"""Config-driven command line front end.

Subcommands: ``simulate`` (Monte Carlo vs closed-form checks), ``optimize``
(threshold formula vs numeric argmin), ``verify-matching`` (analytic and
empirical CF residuals of the pair that ``matching.pair`` builds, on the
config's omega grid), and ``sweep`` (formula/numeric agreement over a
parameter grid).  Every run reads a flat JSON config, writes a deterministic
report (JSON or CSV), and exits 0 exactly when all requested checks pass.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from typing import Callable, NamedTuple, NoReturn

import numpy as np

from . import analytics, matching, simulator, strategies
# cli draws nothing itself; bench/test_smoke.py's
# test_patch_reaches_names_imported_elsewhere reads sample_gamma here
from .distributions import KEY_LIMIT, RngHandle, sample_gamma  # noqa: F401
from .strategies import SystemParams

SCHEMA_VERSION = 1

SIGMAS = 4.0
ANALYTIC_RESIDUAL_TOL = 1e-12
EMPIRICAL_RESIDUAL_TOL = 0.02
UNMATCHED_ANALYTIC_MIN = 0.1
UNMATCHED_EMPIRICAL_MIN = 0.05
# the argmin's grade in z = lambda*beta: 8 ulps of z* exceed 1e-6 from z* = 2^30
ARGMIN_AGREEMENT_TOL = 1e-6
ARGMIN_AGREEMENT_ULPS = 8


class ConfigError(ValueError):
    pass


def _fail(key: str, expected: str, value) -> NoReturn:
    raise ConfigError(f"config field '{key}' must be {expected}, got {value!r}")


def _number(minimum: float = -math.inf, above: bool = False):
    """Parser of a finite number, as a float, ``>= minimum`` (``>`` when ``above``)."""
    bound = f" {'>' if above else '>='} {minimum:g}" if minimum > -math.inf else ""

    def parse(key: str, value) -> float:
        try:  # a bool is not a number here, though bool is a subclass of int
            number = float(value) if type(value) in (int, float) else math.nan
        except OverflowError:  # an integer beyond the float range
            number = math.nan
        if not math.isfinite(number) or (number <= minimum if above else number < minimum):
            _fail(key, "a finite number" + bound, value)
        return number
    return parse


def _integer(minimum: int, maximum: int | None = None):
    """Parser of an integer in ``[minimum, maximum]``."""
    def parse(key: str, value) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(key, "an integer", value)
        if value < minimum or (maximum is not None and value > maximum):
            _fail(key, f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]", value)
        return value
    return parse


def _choice(*options):
    """Parser of one of ``options``, compared by type and value (1 is not true)."""
    def parse(key: str, value):
        if not any(type(value) is type(option) and value == option for option in options):
            _fail(key, "one of " + ", ".join(json.dumps(option) for option in options), value)
        return value
    return parse


def _path(key: str, value) -> str:
    if not isinstance(value, str):
        _fail(key, "a string path", value)
    return value


_positive = _number(0.0, above=True)


def _grid(key: str, value) -> list[float]:
    if not isinstance(value, list) or not value:
        _fail(key, "a non-empty list of numbers", value)
    return [_positive(key, item) for item in value]


class Field(NamedTuple):
    commands: str  # the commands that take the key, separated by spaces
    default: object  # REQUIRED when the config must give the key
    parse: Callable | None  # (key, value) -> value; raises ConfigError


REQUIRED = object()
_ALL = "simulate optimize verify-matching sweep"
_random_key = _integer(0, KEY_LIMIT - 1)

# Every config key, in the order its value is validated. A value of None is
# kept without parsing where the default is None; `schema_version` is checked
# before all others and echoed as given.
CONFIG_FIELDS = {
    "schema_version": Field(_ALL, REQUIRED, None),
    "lambda": Field(_ALL, REQUIRED, _positive),
    "k": Field(_ALL, REQUIRED, _positive),
    "p_t": Field(_ALL, REQUIRED, _positive),
    "c": Field(_ALL, REQUIRED, _positive),
    "seed": Field(_ALL, 0, _random_key),
    "stream": Field(_ALL, 0, _random_key),
    "format": Field(_ALL, "json", _choice("json", "csv")),
    "out": Field(_ALL, None, _path),
    "horizon": Field("simulate optimize", 10_000, _integer(1)),
    "episodes": Field("simulate optimize", 100, _integer(2)),
    "strategy": Field("simulate", "optimal",
                      _choice("optimal", "threshold", "always", "never", "noise_blind")),
    "beta": Field("simulate", None, _number(0.0)),
    "pair": Field("verify-matching", "matched", _choice("matched", "unmatched")),
    "samples": Field("verify-matching", 1_000_000, _integer(matching.MIN_SAMPLES)),
    "omega_points": Field("verify-matching", 101, _integer(2)),
    "omega_min": Field("verify-matching", -5.0, _number()),
    "omega_max": Field("verify-matching", 5.0, _number()),
    # the default k grid puts gamma = 1/k below, at and above 1
    "lambda_grid": Field("sweep", [0.5, 1.0, 2.0], _grid),
    "k_grid": Field("sweep", [0.5, 1.0, 2.0, 5.0], _grid),
    "p_t_grid": Field("sweep", [0.25, 1.0, 4.0], _grid),
    "c_grid": Field("sweep", [0.1, 1.0, 10.0], _grid),
    "spot_check": Field("sweep", False, _choice(False, True)),
    "spot_horizon": Field("sweep", 2_000, _integer(1)),
    "spot_episodes": Field("sweep", 10, _integer(2)),
}


def load_config(path: str, command: str, overrides: dict) -> dict:
    """Read the flat JSON config for ``command``, fill its defaults, apply the
    ``overrides`` that are not None, and validate it against CONFIG_FIELDS."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except ValueError as exc:  # also an integer literal beyond Python's digit limit
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    fields = {key: f for key, f in CONFIG_FIELDS.items() if command in f.commands.split()}
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ConfigError(f"unknown config field(s) for {command}: {', '.join(map(repr, unknown))}")
    version = raw.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:  # true == 1 in Python
        _fail("schema_version", str(SCHEMA_VERSION), version)

    cfg = {key: f.default for key, f in fields.items() if f.default is not REQUIRED}
    cfg.update(raw)
    cfg.update((key, value) for key, value in overrides.items() if value is not None)
    for key, f in fields.items():
        if key not in cfg:
            raise ConfigError(f"missing required config field '{key}'")
        if f.parse is not None and not (cfg[key] is None and f.default is None):
            cfg[key] = f.parse(key, cfg[key])

    if cfg.get("strategy") == "threshold" and cfg["beta"] is None:
        raise ConfigError("config field 'beta' is required when strategy is 'threshold'")
    # a span beyond the float range would overflow the grid's linspace
    if "omega_min" in cfg and not 0.0 < cfg["omega_max"] - cfg["omega_min"] < math.inf:
        _fail("omega_min", f"< omega_max ({cfg['omega_max']!r}), with a finite difference",
              cfg["omega_min"])
    # the model, and every point of the sweep grids, must give a finite m and
    # beta*, which SystemParams checks
    model = ("lambda", "k", "p_t", "c")
    for keys in (model, tuple(f"{key}_grid" for key in model)):
        for point in itertools.product(*(np.atleast_1d(cfg.get(key, [])).tolist() for key in keys)):
            try:
                SystemParams(*point)
            except ValueError as exc:
                raise ConfigError(f"config fields {', '.join(map(repr, keys))} of {list(point)} "
                                  f"are out of range: {exc}") from None
    # the CFs take omega times alpha, theta, k*theta or 1/lambda, and the
    # Laplace CF squares that product
    if "omega_min" in cfg:
        p = _params(cfg)
        key = max(("omega_min", "omega_max"), key=lambda key: abs(cfg[key]))
        reach = abs(cfg[key]) * max(p.alpha, p.theta, p.k * p.theta, 1.0 / p.lam)
        if not math.isfinite(reach * reach):
            _fail(key, "small enough that (|omega| * max(alpha, theta, k*theta, 1/lambda))^2 "
                  "is finite", cfg[key])
        # the matched pair's gamma-th power follows its branch from the grid
        # point nearest 0, and the phase of its centred noise CF turns by less
        # than k*theta per unit of omega
        if cfg["pair"] == "matched":
            if not cfg["omega_min"] <= 0.0 <= cfg["omega_max"]:
                key = "omega_min" if cfg["omega_min"] > 0.0 else "omega_max"
                _fail(key, "such that omega_min <= 0 <= omega_max for the matched pair", cfg[key])
            step = (cfg["omega_max"] - cfg["omega_min"]) / (cfg["omega_points"] - 1)
            if not p.k * p.theta * step < math.pi:
                _fail("omega_points", f"large enough that k*theta*step < pi for the matched "
                      f"pair (k*theta = {p.k * p.theta!r})", cfg["omega_points"])
    return cfg


# Every check of every command is one record with these keys; see _check.
_CHECK_COLUMNS = ("metric", "estimate", "std_error", "n", "target", "z", "tolerance", "basis",
                  "passed")
_SE_RULE = f"<= {SIGMAS:g} sample SE, no multiplicity correction"

# The rows of each command's CSV table and their columns. An optimize report
# is one row per field. A sweep row, in JSON too, has these columns, with the
# spot-check columns only when spot checks ran.
_SWEEP_COLUMNS = ("lambda", "k", "P_T", "c", "beta_star_formula", "beta_star_numeric",
                  "J_at_beta_star")
_SPOT_COLUMNS = ("j_mc_mean", "j_mc_std_error", "j_mc_within_4se")
# A verify-matching point, in JSON too, is a CfResidualReport point under
# these names and `reliable`, which the CSV table leaves out.
_CF_POINT_COLUMNS = ("omega", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "residual")
_CSV_COLUMNS = {
    "simulate": _CHECK_COLUMNS,
    "optimize": ("field", "value"),
    "verify-matching": ("check",) + _CF_POINT_COLUMNS,
    "sweep": _SWEEP_COLUMNS + _SPOT_COLUMNS,
}
_OPTIMIZE_FIELDS = ("beta_star_formula", "beta_star_numeric", "j_at_beta_star_formula",
                    "j_at_beta_star_numeric", "mc_cost_mean", "mc_cost_std_error",
                    "mc_cost_n", "passed")


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


# The strategies whose threshold the config's `beta` does not set, None for
# beta*: never transmitting is beta = inf.
_FIXED_BETA = {"optimal": None, "always": 0.0, "never": math.inf}


def _check(metric: str, estimate, tolerance, basis: str, passed: bool, **diagnostics) -> dict:
    """One check record: the statistic, the tolerance it is graded against,
    the rule (``basis``) and the verdict."""
    row = dict.fromkeys(_CHECK_COLUMNS)
    row.update(metric=metric, estimate=estimate, tolerance=tolerance, basis=basis,
               passed=passed, **diagnostics)
    return row


def _mc_check(metric: str, estimate: simulator.MonteCarloEstimate | None, target) -> dict:
    """A Monte Carlo statistic against its closed-form target, failed with
    nulls when it could not be estimated."""
    basis = f"|estimate - target| {_SE_RULE}"
    if estimate is None:
        return _check(metric, None, SIGMAS, basis, False, target=target)
    return _check(metric, estimate.mean, SIGMAS, basis, estimate.covers(target, SIGMAS),
                  std_error=estimate.std_error, n=estimate.n, target=target,
                  z=estimate.z_score(target))


def _argmin_check(metric: str, rows: list[tuple[float, float, float]]) -> dict:
    """The largest gap in z = lambda*beta over (lambda, formula, numeric) rows."""
    gaps = [(lam * abs(numeric - formula), lam * formula) for lam, formula, numeric in rows]
    passed = all(gap < max(ARGMIN_AGREEMENT_TOL, ARGMIN_AGREEMENT_ULPS * math.ulp(z))
                 for gap, z in gaps)
    return _check(metric, max(gap for gap, _ in gaps), ARGMIN_AGREEMENT_TOL,
                  f"|lambda*(numeric - formula)| < max(tolerance, {ARGMIN_AGREEMENT_ULPS} "
                  "ulp of lambda*formula)", passed)


def _report(command: str, cfg: dict, checks: list[dict], **body) -> dict:
    """A command's report; it passed when every check passed."""
    passed = all(c["passed"] for c in checks)
    return {"command": command, "config": cfg, **body, "checks": checks, "passed": passed}


def cmd_simulate(cfg: dict) -> dict:
    """Monte Carlo run of a strategy with closed-form cross checks"""
    p = _params(cfg)
    beta = _FIXED_BETA.get(cfg["strategy"], cfg["beta"])
    if beta is None:  # `threshold` requires beta; `noise_blind` defaults to beta*
        beta = analytics.optimal_threshold(p)
    matched = cfg["strategy"] != "noise_blind"
    law = analytics.cost_closed_form(p, beta, matched)
    strat = strategies.ThresholdAffineStrategy(p, beta, matched)
    run = (p, strat, cfg["horizon"], cfg["episodes"], RngHandle(cfg["seed"], cfg["stream"]))
    if math.isinf(beta):  # no stage transmits, so there are no conditional rows
        cost, rows, targets = simulator.estimate_cost(*run), {}, {}
    else:
        # one pass: the conditional rows pool the stages of the cost episodes
        cost, rows, problem = simulator.estimate_cost(*run, conditional=True)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
        targets = {"mse_tx": law.mse_tx, "mse_tx_pos": law.mse_tx, "mse_tx_neg": law.mse_tx,
                   "power": p.p_t, "tx_frequency": law.tx_prob, "bias_tx": 0.0}
    checks = [_mc_check("per_stage_cost", cost, law.total)]
    checks += [_mc_check(key, rows[key], target) for key, target in targets.items()]
    return _report("simulate", cfg, checks, derived={**_derived_block(p), "beta": beta})


def _threshold_row(p: SystemParams, horizon: int, episodes: int, rng: RngHandle | None):
    """beta* by formula and by numeric argmin, J at the formula's beta*, and
    a Monte Carlo estimate of that J from ``rng``, None without one."""
    formula = analytics.optimal_threshold(p)
    j_formula = analytics.cost_closed_form(p, formula).total
    mc = None if rng is None else simulator.estimate_cost(
        p, strategies.ThresholdAffineStrategy(p, formula), horizon, episodes, rng)
    return formula, analytics.numeric_argmin(p), j_formula, mc


def cmd_optimize(cfg: dict) -> dict:
    """optimal threshold: formula vs golden-section argmin vs Monte Carlo"""
    p = _params(cfg)
    rng = RngHandle(cfg["seed"], cfg["stream"])
    formula, numeric, j_formula, mc = _threshold_row(p, cfg["horizon"], cfg["episodes"], rng)
    j_numeric = analytics.cost_closed_form(p, numeric).total

    checks = [_argmin_check("argmin_agreement", [(p.lam, formula, numeric)]),
              _mc_check("mc_cost_covers_closed_form", mc, j_formula)]
    # every optimize field but the last, passed, which _report adds
    headline = (formula, numeric, j_formula, j_numeric, mc.mean, mc.std_error, mc.n)
    return _report("optimize", cfg, checks, derived=_derived_block(p),
                   **dict(zip(_OPTIMIZE_FIELDS[:-1], headline, strict=True)))


def _cf_block(report: matching.CfResidualReport) -> dict:
    """A CF residual report's JSON block; NaN becomes null at the writer."""
    columns = (report.omega, report.lhs.real, report.lhs.imag, report.rhs.real,
               report.rhs.imag, report.residual, report.reliable)
    return {
        "max_residual": report.max_residual,
        "n_points": report.omega.size,
        "n_unreliable": int(np.count_nonzero(~report.reliable)),
        "points": [dict(zip(_CF_POINT_COLUMNS + ("reliable",), point))
                   for point in zip(*(column.tolist() for column in columns))],
    }


def cmd_verify_matching(cfg: dict) -> dict:
    """analytic and empirical characteristic-function residuals"""
    p = _params(cfg)
    grid = (cfg["omega_min"], cfg["omega_max"], cfg["omega_points"])
    matched = cfg["pair"] == "matched"
    pair = matching.pair(p, matched)
    rng = RngHandle(cfg["seed"], cfg["stream"])
    reports = {
        "analytic": matching.check_matching(pair, grid),
        "empirical": matching.check_matching_empirical(pair, grid, cfg["samples"], rng),
    }
    tolerances = ({"analytic": ANALYTIC_RESIDUAL_TOL, "empirical": EMPIRICAL_RESIDUAL_TOL}
                  if matched else
                  {"analytic": UNMATCHED_ANALYTIC_MIN, "empirical": UNMATCHED_EMPIRICAL_MIN})
    basis = f"max reliable residual {'<' if matched else '>'} tolerance"
    checks = [
        _check(f"{label}_residual", report.max_residual, tolerances[label], basis,
               bool(report.max_residual < tolerances[label] if matched
                    else report.max_residual > tolerances[label]))
        for label, report in reports.items()
    ]
    return _report("verify-matching", cfg, checks, derived=_derived_block(p),
                   **{label: _cf_block(report) for label, report in reports.items()})


def cmd_sweep(cfg: dict) -> dict:
    """formula/numeric threshold agreement over a parameter grid"""
    grids = (cfg["lambda_grid"], cfg["k_grid"], cfg["p_t_grid"], cfg["c_grid"])
    rows = []
    # the rows in the nested order lambda > k > P_T > c
    for i, point in enumerate(itertools.product(*grids)):
        rng = RngHandle(cfg["seed"], cfg["stream"], (i,)) if cfg["spot_check"] else None
        formula, numeric, j_formula, mc = _threshold_row(SystemParams(*point), cfg["spot_horizon"],
                                                         cfg["spot_episodes"], rng)
        row = dict(zip(_SWEEP_COLUMNS, (*point, formula, numeric, j_formula)))
        if mc is not None:
            row.update(zip(_SPOT_COLUMNS, (mc.mean, mc.std_error, mc.covers(j_formula, SIGMAS))))
        rows.append(row)

    checks = [_argmin_check("argmin_agreement_all_rows", [
        (row["lambda"], row["beta_star_formula"], row["beta_star_numeric"]) for row in rows])]
    if cfg["spot_check"]:
        checks.append(_check("mc_spot_checks", None, SIGMAS,
                             f"every row's |j_mc_mean - J_at_beta_star| {_SE_RULE}",
                             all(row["j_mc_within_4se"] for row in rows)))
    return _report("sweep", cfg, checks, n_rows=len(rows), rows=rows)


def _strict(value):
    """``value`` with every non-finite float, which JSON cannot hold, as None."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(_strict(report), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _csv_cell(value) -> str:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(report: dict, path: str) -> None:
    command = report["command"]
    if command == "optimize":
        rows = [{"field": key, "value": report[key]} for key in _OPTIMIZE_FIELDS]
    elif command == "verify-matching":
        rows = [{"check": label, **point} for label in ("analytic", "empirical")
                for point in report[label]["points"]]
    else:
        rows = report["checks" if command == "simulate" else "rows"]
    header = [column for column in _CSV_COLUMNS[command] if column in rows[0]]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_csv_cell(row[column]) for column in header] for row in rows)


_COMMANDS = {
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
    "verify-matching": cmd_verify_matching,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remest",
        description="Threshold-scheduled remote estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=_COMMANDS[name].__doc__)
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
    n_pass = sum(1 for c in report["checks"] if c["passed"])
    print(f"{args.command}: {status} ({n_pass}/{len(report['checks'])} checks) -> {out}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
