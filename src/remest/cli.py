"""Config-driven command line front end.

Subcommands: ``simulate`` (Monte Carlo vs closed-form checks), ``optimize``
(threshold formula vs numeric argmin), ``verify-matching`` (analytic and
empirical CF residuals), and ``sweep`` (formula/numeric agreement over a
parameter grid).  Every run reads a flat JSON config, writes a deterministic
report (JSON or CSV), and exits 0 exactly when all requested checks pass.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import analytics, matching, simulator, strategies
from .distributions import (
    KEY_LIMIT,
    ExponentialDist,
    GammaDist,
    LaplaceDist,
    RngHandle,
    char_fn,
    sample_exponential,
    sample_gamma,
    sample_laplace,
)
from .strategies import SystemParams

SCHEMA_VERSION = 1

SIGMAS = 4.0
ANALYTIC_RESIDUAL_TOL = 1e-12
EMPIRICAL_RESIDUAL_TOL = 0.02
UNMATCHED_ANALYTIC_MIN = 0.1
UNMATCHED_EMPIRICAL_MIN = 0.05
ARGMIN_AGREEMENT_TOL = 1e-6
# `jobs` starts no thread (the simulator runs its blocks serially); the cap
# keeps the accepted range small should it start workers again
MAX_JOBS = 64


class ConfigError(ValueError):
    pass


_COMMON_KEYS = {
    "schema_version", "lambda", "k", "p_t", "c", "seed", "stream", "format", "out",
}
_COMMAND_KEYS = {
    "simulate": _COMMON_KEYS | {"strategy", "beta", "horizon", "episodes", "jobs"},
    "optimize": _COMMON_KEYS | {
        "horizon", "episodes", "jobs", "argmin_lo", "argmin_hi", "argmin_tol",
    },
    "verify-matching": _COMMON_KEYS | {
        "pair", "samples", "omega_min", "omega_max", "omega_points",
    },
    "sweep": _COMMON_KEYS | {
        "lambda_grid", "k_grid", "p_t_grid", "c_grid", "argmin_tol",
        "spot_check", "spot_horizon", "spot_episodes",
    },
}

_DEFAULTS = {
    "seed": 0,
    "stream": 0,
    "format": "json",
    "out": None,
    "strategy": "optimal",
    "beta": None,
    "horizon": 10_000,
    "episodes": 100,
    "jobs": 1,
    "argmin_lo": 0.0,
    "argmin_hi": 10.0,
    "argmin_tol": 1e-8,
    "pair": "matched",
    "samples": 1_000_000,
    "omega_min": -5.0,
    "omega_max": 5.0,
    "omega_points": 101,
    "lambda_grid": list(analytics.SWEEP_LAMBDAS),
    "k_grid": list(analytics.SWEEP_SHAPES),
    "p_t_grid": list(analytics.SWEEP_POWERS),
    "c_grid": list(analytics.SWEEP_COSTS),
    "spot_check": False,
    "spot_horizon": 2_000,
    "spot_episodes": 10,
}

_STRATEGY_NAMES = ("optimal", "threshold", "always", "never", "noise_blind")


def _positive_float(cfg: dict, key: str) -> float:
    if key not in cfg:
        raise ConfigError(f"missing required config field '{key}'")
    value = cfg[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"config field '{key}' must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ConfigError(f"config field '{key}' must be positive and finite, got {value!r}")
    return value


def _int_at_least(cfg: dict, key: str, minimum: int) -> int:
    value = cfg[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"config field '{key}' must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"config field '{key}' must be >= {minimum}, got {value}")
    return value


def _grid(cfg: dict, key: str) -> list[float]:
    value = cfg[key]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config field '{key}' must be a non-empty list of numbers")
    out = []
    for item in value:
        if not isinstance(item, (int, float)) or isinstance(item, bool):
            raise ConfigError(f"config field '{key}' must contain only numbers, got {item!r}")
        item = float(item)
        if not math.isfinite(item) or item <= 0.0:
            raise ConfigError(f"config field '{key}' entries must be positive, got {item!r}")
        out.append(item)
    return out


def load_config(path: str, command: str, overrides: dict) -> dict:
    """Read, default, and validate the flat JSON config for ``command``."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    allowed = _COMMAND_KEYS[command]
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown config field(s) for {command}: {', '.join(unknown)}"
        )
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"config field 'schema_version' must be {SCHEMA_VERSION}, "
            f"got {raw.get('schema_version')!r}"
        )

    cfg = {key: _DEFAULTS[key] for key in allowed if key in _DEFAULTS}
    cfg["schema_version"] = SCHEMA_VERSION
    cfg.update(raw)
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value

    for key in ("lambda", "k", "p_t", "c"):
        cfg[key] = _positive_float(cfg, key)
    for key in ("seed", "stream"):
        cfg[key] = _int_at_least(cfg, key, 0)
        if cfg[key] >= KEY_LIMIT:
            raise ConfigError(f"config field '{key}' must be < 2^32, got {cfg[key]}")
    if cfg["format"] not in ("json", "csv"):
        raise ConfigError(f"config field 'format' must be 'json' or 'csv', got {cfg['format']!r}")
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise ConfigError("config field 'out' must be a string path")

    if command in ("simulate", "optimize"):
        cfg["horizon"] = _int_at_least(cfg, "horizon", 1)
        cfg["episodes"] = _int_at_least(cfg, "episodes", 2)
        cfg["jobs"] = _int_at_least(cfg, "jobs", 1)
        if cfg["jobs"] > MAX_JOBS:
            raise ConfigError(f"config field 'jobs' must be <= {MAX_JOBS}, got {cfg['jobs']}")
    if command == "simulate":
        if cfg["strategy"] not in _STRATEGY_NAMES:
            raise ConfigError(
                f"config field 'strategy' must be one of {_STRATEGY_NAMES}, "
                f"got {cfg['strategy']!r}"
            )
        if cfg["beta"] is not None:
            beta = cfg["beta"]
            if not isinstance(beta, (int, float)) or isinstance(beta, bool) \
                    or not math.isfinite(float(beta)) or float(beta) < 0.0:
                raise ConfigError(f"config field 'beta' must be a finite number >= 0, got {beta!r}")
            cfg["beta"] = float(beta)
        elif cfg["strategy"] == "threshold":
            raise ConfigError("config field 'beta' is required when strategy is 'threshold'")
    elif command == "optimize":
        for key in ("argmin_lo", "argmin_hi", "argmin_tol"):
            value = cfg[key]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"config field '{key}' must be a number, got {value!r}")
            cfg[key] = float(value)
        if not (0.0 <= cfg["argmin_lo"] < cfg["argmin_hi"]):
            raise ConfigError("need 0 <= argmin_lo < argmin_hi")
        if cfg["argmin_tol"] <= 0.0:
            raise ConfigError("config field 'argmin_tol' must be positive")
    elif command == "verify-matching":
        if cfg["pair"] not in ("matched", "unmatched"):
            raise ConfigError(f"config field 'pair' must be 'matched' or 'unmatched', got {cfg['pair']!r}")
        cfg["samples"] = _int_at_least(cfg, "samples", 10_000)
        cfg["omega_points"] = _int_at_least(cfg, "omega_points", 2)
        for key in ("omega_min", "omega_max"):
            value = cfg[key]
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or not math.isfinite(float(value)):
                raise ConfigError(f"config field '{key}' must be a finite number, got {value!r}")
            cfg[key] = float(value)
        if cfg["omega_min"] >= cfg["omega_max"]:
            raise ConfigError("need omega_min < omega_max")
    elif command == "sweep":
        for key in ("lambda_grid", "k_grid", "p_t_grid", "c_grid"):
            cfg[key] = _grid(cfg, key)
        value = cfg["argmin_tol"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or float(value) <= 0.0:
            raise ConfigError(f"config field 'argmin_tol' must be a positive number, got {value!r}")
        cfg["argmin_tol"] = float(value)
        if not isinstance(cfg["spot_check"], bool):
            raise ConfigError("config field 'spot_check' must be a boolean")
        cfg["spot_horizon"] = _int_at_least(cfg, "spot_horizon", 1)
        cfg["spot_episodes"] = _int_at_least(cfg, "spot_episodes", 2)
    return cfg


def _params(cfg: dict) -> SystemParams:
    return SystemParams(lam=cfg["lambda"], k=cfg["k"], p_t=cfg["p_t"], c=cfg["c"])


def _derived_block(p: SystemParams) -> dict:
    return {
        "theta": p.theta,
        "alpha": p.alpha,
        "gamma": p.gamma,
        "m": p.m,
        "beta_star": analytics.optimal_threshold(p),
    }


def _build_strategy(cfg: dict, p: SystemParams):
    name = cfg["strategy"]
    beta_star = analytics.optimal_threshold(p)
    if name == "optimal":
        return strategies.ThresholdAffineStrategy(p, beta_star), beta_star
    if name == "threshold":
        return strategies.ThresholdAffineStrategy(p, cfg["beta"]), cfg["beta"]
    if name == "always":
        return strategies.ThresholdAffineStrategy(p, 0.0), 0.0
    if name == "never":
        return strategies.NeverTransmitStrategy(p), None
    beta = cfg["beta"] if cfg["beta"] is not None else beta_star
    return strategies.ThresholdAffineStrategy(p, beta, matched=False), beta


def _check(name: str, estimate: simulator.MonteCarloEstimate | None, target) -> dict:
    """One checked statistic; one that could not be estimated fails with nulls."""
    if estimate is None:
        return {"metric": name, "estimate": None, "std_error": None, "n": None,
                "target": target, "z": None, "passed": False}
    row = {
        "metric": name,
        "estimate": estimate.mean,
        "std_error": estimate.std_error,
        "n": estimate.n,
        "target": target,
        "z": None,
        "passed": None,
    }
    if target is not None:
        z = estimate.z_score(target)
        # a zero standard error with a gap gives an infinite z, which JSON
        # cannot hold; such a row fails anyway
        row["z"] = z if math.isfinite(z) else None
        row["passed"] = estimate.covers(target, SIGMAS)
    return row


def cmd_simulate(cfg: dict) -> dict:
    p = _params(cfg)
    strat, beta = _build_strategy(cfg, p)
    rng = RngHandle(cfg["seed"], cfg["stream"])
    name = cfg["strategy"]

    cost = simulator.estimate_cost(
        p, strat, cfg["horizon"], cfg["episodes"], rng, jobs=cfg["jobs"]
    )
    if name == "never":
        cost_target = 2.0 / p.lam**2
    elif name == "noise_blind":
        cost_target = None
    else:
        cost_target = analytics.cost_closed_form(p, beta).total
    rows = [_check("per_stage_cost", cost, cost_target)]

    if name != "never":
        # a separate substream so the conditional episode is independent of
        # the cost episodes above
        stats = simulator.estimate_conditional_stats(
            p, strat, cfg["horizon"] * cfg["episodes"], rng.substream(cfg["episodes"])
        )
        if stats.problem is not None:
            print(f"error: {stats.problem}", file=sys.stderr)
        matched = name in ("optimal", "threshold", "always")
        rows.append(_check("mse_tx", stats.mse_tx, p.m if matched else None))
        rows.append(_check("mse_tx_pos", stats.mse_tx_pos, p.m if matched else None))
        rows.append(_check("mse_tx_neg", stats.mse_tx_neg, p.m if matched else None))
        rows.append(_check("power", stats.power, p.p_t))
        rows.append(_check("tx_frequency", stats.tx_frequency, math.exp(-p.lam * beta)))
        rows.append(_check("bias_tx", stats.bias_tx, 0.0 if matched else None))

    passed = all(r["passed"] for r in rows if r["passed"] is not None)
    return {
        "command": "simulate",
        "config": cfg,
        "derived": {**_derived_block(p), "beta": beta, "sigmas": SIGMAS},
        "checks": rows,
        "passed": passed,
    }


def cmd_optimize(cfg: dict) -> dict:
    p = _params(cfg)
    formula = analytics.optimal_threshold(p)
    numeric = analytics.numeric_argmin(p, cfg["argmin_lo"], cfg["argmin_hi"], cfg["argmin_tol"])
    j_formula = analytics.cost_closed_form(p, formula).total
    j_numeric = analytics.cost_closed_form(p, numeric).total
    strat = strategies.ThresholdAffineStrategy(p, formula)
    rng = RngHandle(cfg["seed"], cfg["stream"])
    mc = simulator.estimate_cost(p, strat, cfg["horizon"], cfg["episodes"], rng, jobs=cfg["jobs"])

    agreement = abs(numeric - formula)
    checks = [
        {
            "name": "argmin_agreement",
            "value": agreement,
            "tolerance": ARGMIN_AGREEMENT_TOL,
            "passed": agreement < ARGMIN_AGREEMENT_TOL,
        },
        {
            "name": "mc_cost_covers_closed_form",
            "value": mc.z_score(j_formula),
            "tolerance": SIGMAS,
            "passed": mc.covers(j_formula, SIGMAS),
        },
    ]
    return {
        "command": "optimize",
        "config": cfg,
        "derived": _derived_block(p),
        "beta_star_formula": formula,
        "beta_star_numeric": numeric,
        "j_at_beta_star_formula": j_formula,
        "j_at_beta_star_numeric": j_numeric,
        "mc_cost_mean": mc.mean,
        "mc_cost_std_error": mc.std_error,
        "mc_cost_n": mc.n,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def cmd_verify_matching(cfg: dict) -> dict:
    p = _params(cfg)
    grid = tuple(np.linspace(cfg["omega_min"], cfg["omega_max"], cfg["omega_points"]))
    rng = RngHandle(cfg["seed"], cfg["stream"])
    n = cfg["samples"]

    if cfg["pair"] == "matched":
        spec = matching.matched_pair_spec(p, grid)
        src_samples = (
            sample_exponential(ExponentialDist(p.lam), rng, size=n) - 1.0 / p.lam
        )
        noise_samples = sample_gamma(GammaDist(p.k, p.theta), rng, size=n) - p.k * p.theta
        analytic_pass = lambda r: r < ANALYTIC_RESIDUAL_TOL
        empirical_pass = lambda r: r < EMPIRICAL_RESIDUAL_TOL
        expectation = "residuals_below_tolerance"
    else:
        # deliberately unmatched: raw Laplace source vs raw gamma noise with
        # unit gains, so the residual must be visibly large
        lap = LaplaceDist(0.0, 1.0 / p.lam)
        gam = GammaDist(p.k, p.theta)
        spec = matching.MatchSpec(
            source_cf=lambda w: char_fn(lap, w),
            noise_cf=lambda w: char_fn(gam, w),
            alpha=1.0,
            gamma=1.0,
            omega_grid=grid,
        )
        src_samples = sample_laplace(lap, rng, size=n)
        noise_samples = sample_gamma(gam, rng, size=n)
        analytic_pass = lambda r: r > UNMATCHED_ANALYTIC_MIN
        empirical_pass = lambda r: r > UNMATCHED_EMPIRICAL_MIN
        expectation = "residuals_above_floor"

    analytic = matching.check_matching(spec)
    empirical = matching.check_matching_empirical(
        src_samples, noise_samples, spec.alpha, spec.gamma, grid
    )

    analytic_json = analytic.to_json_dict()
    empirical_json = empirical.to_json_dict()
    checks = [
        {
            "name": "analytic_residual",
            "value": analytic_json["max_residual"],
            "expectation": expectation,
            "passed": bool(analytic_pass(analytic.max_residual)),
        },
        {
            "name": "empirical_residual",
            "value": empirical_json["max_residual"],
            "expectation": expectation,
            "passed": bool(empirical_pass(empirical.max_residual)),
        },
    ]
    return {
        "command": "verify-matching",
        "config": cfg,
        "derived": _derived_block(p),
        "analytic": analytic_json,
        "empirical": empirical_json,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def cmd_sweep(cfg: dict) -> dict:
    rows = analytics.threshold_sweep(
        cfg["lambda_grid"], cfg["k_grid"], cfg["p_t_grid"], cfg["c_grid"],
        tol=cfg["argmin_tol"],
    )
    out_rows = []
    max_gap = 0.0
    spot_all_pass = True
    for i, r in enumerate(rows):
        gap = abs(r.beta_star_formula - r.beta_star_numeric)
        max_gap = max(max_gap, gap)
        row = {
            "lambda": r.lam,
            "k": r.k,
            "P_T": r.p_t,
            "c": r.c,
            "beta_star_formula": r.beta_star_formula,
            "beta_star_numeric": r.beta_star_numeric,
            "J_at_beta_star": r.j_at_beta_star,
        }
        if cfg["spot_check"]:
            p = SystemParams(lam=r.lam, k=r.k, p_t=r.p_t, c=r.c)
            strat = strategies.ThresholdAffineStrategy(p, r.beta_star_formula)
            rng = RngHandle(cfg["seed"], cfg["stream"], (i,))
            mc = simulator.estimate_cost(p, strat, cfg["spot_horizon"], cfg["spot_episodes"], rng)
            row["j_mc_mean"] = mc.mean
            row["j_mc_std_error"] = mc.std_error
            row["j_mc_within_4se"] = mc.covers(r.j_at_beta_star, SIGMAS)
            spot_all_pass = spot_all_pass and row["j_mc_within_4se"]
        out_rows.append(row)

    checks = [
        {
            "name": "argmin_agreement_all_rows",
            "value": max_gap,
            "tolerance": ARGMIN_AGREEMENT_TOL,
            "passed": max_gap < ARGMIN_AGREEMENT_TOL,
        },
    ]
    if cfg["spot_check"]:
        checks.append({
            "name": "mc_spot_checks",
            "value": None,
            "tolerance": SIGMAS,
            "passed": spot_all_pass,
        })
    return {
        "command": "sweep",
        "config": cfg,
        "n_rows": len(out_rows),
        "rows": out_rows,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _write_json(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(report: dict, path: str) -> None:
    command = report["command"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if command == "simulate":
            writer.writerow(["metric", "estimate", "std_error", "n", "target", "z", "passed"])
            for row in report["checks"]:
                writer.writerow([_csv_cell(row[k]) for k in
                                 ("metric", "estimate", "std_error", "n", "target", "z", "passed")])
        elif command == "optimize":
            writer.writerow(["field", "value"])
            for key in ("beta_star_formula", "beta_star_numeric",
                        "j_at_beta_star_formula", "j_at_beta_star_numeric",
                        "mc_cost_mean", "mc_cost_std_error", "mc_cost_n", "passed"):
                writer.writerow([key, _csv_cell(report[key])])
        elif command == "verify-matching":
            writer.writerow(["check", "omega", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "residual"])
            for label in ("analytic", "empirical"):
                for point in report[label]["points"]:
                    writer.writerow([label] + [_csv_cell(point[k]) for k in
                                               ("omega", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "residual")])
        else:
            header = ["lambda", "k", "P_T", "c",
                      "beta_star_formula", "beta_star_numeric", "J_at_beta_star"]
            if report["config"]["spot_check"]:
                header += ["j_mc_mean", "j_mc_std_error", "j_mc_within_4se"]
            writer.writerow(header)
            for row in report["rows"]:
                writer.writerow([_csv_cell(row[k]) for k in header])


_COMMANDS = {
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
    "verify-matching": cmd_verify_matching,
    "sweep": cmd_sweep,
}


_COMMAND_HELP = {
    "simulate": "Monte Carlo run of a strategy with closed-form cross checks",
    "optimize": "optimal threshold: formula vs golden-section argmin vs Monte Carlo",
    "verify-matching": "analytic and empirical characteristic-function residuals",
    "sweep": "formula/numeric threshold agreement over a parameter grid",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remest",
        description="Threshold-scheduled remote estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=_COMMAND_HELP[name])
        cmd.add_argument("--config", required=True, help="path to flat JSON config")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument("--out", default=None, help="override report output path")
        cmd.add_argument("--format", choices=("json", "csv"), default=None,
                         help="override report format")
    return parser


def main(argv=None) -> int:
    """Exit 0 when every check passed, 1 when a check failed or the run
    itself raised, 2 on a config, usage or report-write error."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(
            args.config,
            args.command,
            {"seed": args.seed, "out": args.out, "format": args.format},
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the output path shapes where the report goes, not what was computed;
    # leaving it out keeps report bytes identical across destinations
    cfg_for_run = {k: v for k, v in cfg.items() if k != "out"}
    try:
        report = _COMMANDS[args.command](cfg_for_run)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = cfg["out"] or f"remest_{args.command.replace('-', '_')}.{cfg['format']}"
    try:
        if cfg["format"] == "json":
            _write_json(report, out)
        else:
            _write_csv(report, out)
    except OSError as exc:
        print(f"error: cannot write report to {out!r}: {exc}", file=sys.stderr)
        return 2

    status = "PASS" if report["passed"] else "FAIL"
    graded = [c for c in report["checks"] if c.get("passed") is not None]
    n_pass = sum(1 for c in graded if c["passed"])
    print(f"{args.command}: {status} ({n_pass}/{len(graded)} checks) -> {out}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
