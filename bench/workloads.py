"""The benchmark's workloads and the independent correctness gate.

Each workload is one ``remest`` CLI command on one flat JSON config built
from the seed.  All use the reference model lambda=1, k=2, P_T=1, c=1 and
leave ``jobs`` at its default, so every job runs serially in one thread.

- ``sweep_spot``: ``sweep`` with Monte Carlo spot checks over the default
  108-point grid, 100 episodes of 100 stages per point.  The episodes are
  short, so per-episode overhead (one substream and one small set of arrays
  per episode) sets the time, and the grid reaches the k < 1 path of the
  gamma sampler and transmit fractions from about 0.2% to 55%.  It also runs
  108 golden-section searches.  The CLI's 108 spot checks at 4 SE carry no
  multiplicity correction: about 2% of seeds (27 and 47 among 0-119) fail
  one, and then every job of the run fails.
- ``simulate_long``: ``simulate`` of the optimal policy on 40 episodes of
  50,000 stages plus one conditional episode of 2,000,000 stages.  Sampling
  and the simulator kernel set the time; peak memory grows with the stage
  count.  40 episodes rather than fewer keep the per-stage cost check's
  standard error (from the episode means) close to normal.
- ``cf_matching``: ``verify-matching`` of the matched pair on the default
  101-point omega grid with 1,000,000 samples per side, where the CLI's
  fixed 0.02 residual tolerance holds.  The empirical characteristic
  function sets the time; the simulator is not used.

The gate recomputes every target with ``remest.analytics`` and
``SystemParams`` and requires each reported Monte Carlo estimate to lie
within 4 standard errors of it, so a report the CLI wrongly marks as passed
still fails here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

SIGMAS = 4.0
REFERENCE = {"schema_version": 1, "lambda": 1.0, "k": 2.0, "p_t": 1.0, "c": 1.0}

# the CLI's default sweep axes, written out so the workload stays fixed
SWEEP_GRID = {
    "lambda_grid": [0.5, 1.0, 2.0],
    "k_grid": [0.5, 1.0, 2.0, 5.0],
    "p_t_grid": [0.25, 1.0, 4.0],
    "c_grid": [0.1, 1.0, 10.0],
}
OMEGA_MIN, OMEGA_MAX, OMEGA_POINTS = -5.0, 5.0, 101
SIMULATE_CHECKS = ("per_stage_cost", "mse_tx", "mse_tx_pos", "mse_tx_neg",
                   "power", "tx_frequency", "bias_tx")

# per scale: sweep (spot horizon, spot episodes), simulate (horizon, episodes),
# cf_matching samples per side.  The sweep keeps its full size even when
# tiny: with fewer episodes per point the CLI's 4-SE spot checks over 108
# points fail on many seeds.
SIZES = {
    "full": {"sweep": (100, 100), "simulate": (50_000, 40), "samples": 1_000_000},
    "tiny": {"sweep": (100, 100), "simulate": (2_000, 10), "samples": 300_000},
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    work: int            # stages or CF evaluations per job
    work_name: str       # the end-to-end name of work per second
    must_hit: tuple      # span names the traced run has to see
    gate: Callable       # (report, config) -> list of problems
    reference: str       # kind of reference pass closest to the work (reference.py)


def _params(cfg: dict):
    from remest.strategies import SystemParams

    return SystemParams(lam=cfg["lambda"], k=cfg["k"], p_t=cfg["p_t"], c=cfg["c"])


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def _within_se(estimate, std_error, target) -> bool:
    return (math.isfinite(estimate) and math.isfinite(std_error) and std_error > 0.0
            and abs(estimate - target) <= SIGMAS * std_error)


def _common(report: dict, command: str, n_checks: int) -> list[str]:
    problems = []
    if report.get("command") != command:
        problems.append(f"command is {report.get('command')!r}, expected {command!r}")
    if report.get("passed") is not True:
        problems.append("report says passed is not true")
    checks = report.get("checks", [])
    if len(checks) != n_checks:
        problems.append(f"{len(checks)} checks, expected {n_checks}")
    if any(c.get("passed") is not True for c in checks if c.get("passed") is not None):
        problems.append("a check in the report failed")
    return problems


def gate_simulate(report: dict, cfg: dict) -> list[str]:
    from remest import analytics

    p = _params(cfg)
    beta = analytics.optimal_threshold(p)
    targets = {
        "per_stage_cost": analytics.cost_closed_form(p, beta).total,
        "mse_tx": p.m, "mse_tx_pos": p.m, "mse_tx_neg": p.m,
        "power": p.p_t,
        "tx_frequency": math.exp(-p.lam * beta),
        "bias_tx": 0.0,
    }
    problems = _common(report, "simulate", len(SIMULATE_CHECKS))
    names = tuple(row.get("metric") for row in report.get("checks", []))
    if names != SIMULATE_CHECKS:
        problems.append(f"check names {names}, expected {SIMULATE_CHECKS}")
    for row in report.get("checks", []):
        target = targets.get(row.get("metric"))
        if target is not None and not _within_se(row["estimate"], row["std_error"], target):
            problems.append(f"{row['metric']} = {row['estimate']!r} +- {row['std_error']!r} "
                            f"is not within {SIGMAS} SE of {target!r}")
    return problems


def gate_sweep(report: dict, cfg: dict) -> list[str]:
    from remest import analytics
    from remest.strategies import SystemParams

    grid = list(itertools.product(cfg["lambda_grid"], cfg["k_grid"],
                                  cfg["p_t_grid"], cfg["c_grid"]))
    problems = _common(report, "sweep", 2)
    rows = report.get("rows", [])
    if len(rows) != len(grid) or report.get("n_rows") != len(grid):
        problems.append(f"{len(rows)} sweep rows (n_rows {report.get('n_rows')}), "
                        f"expected {len(grid)}")
    for i, (row, (lam, k, p_t, c)) in enumerate(zip(rows, grid)):
        if (row["lambda"], row["k"], row["P_T"], row["c"]) != (lam, k, p_t, c):
            problems.append(f"row {i} is for the wrong parameters")
            continue
        p = SystemParams(lam=lam, k=k, p_t=p_t, c=c)
        beta = analytics.optimal_threshold(p)
        j = analytics.cost_closed_form(p, beta).total
        if not _close(row["beta_star_formula"], beta, 1e-12):
            problems.append(f"row {i}: beta_star_formula {row['beta_star_formula']!r} != {beta!r}")
        if not abs(row["beta_star_numeric"] - beta) < 1e-6:
            problems.append(f"row {i}: beta_star_numeric {row['beta_star_numeric']!r} "
                            f"is not within 1e-6 of {beta!r}")
        if not _close(row["J_at_beta_star"], j, 1e-12):
            problems.append(f"row {i}: J_at_beta_star {row['J_at_beta_star']!r} != {j!r}")
        if not _within_se(row["j_mc_mean"], row["j_mc_std_error"], j):
            problems.append(f"row {i}: j_mc_mean {row['j_mc_mean']!r} +- "
                            f"{row['j_mc_std_error']!r} is not within {SIGMAS} SE of {j!r}")
        if row.get("j_mc_within_4se") is not True:
            problems.append(f"row {i}: j_mc_within_4se is not true")
    return problems


def _points(block: dict, label: str, problems: list):
    points = block.get("points", [])
    if len(points) != OMEGA_POINTS:
        problems.append(f"{label}: {len(points)} omega points, expected {OMEGA_POINTS}")
        return None
    omega = np.array([pt["omega"] for pt in points])
    if not np.allclose(omega, np.linspace(OMEGA_MIN, OMEGA_MAX, OMEGA_POINTS), rtol=0, atol=1e-12):
        problems.append(f"{label}: omega grid differs from linspace({OMEGA_MIN}, {OMEGA_MAX}, "
                        f"{OMEGA_POINTS})")
        return None
    lhs = np.array([complex(pt["lhs_re"], pt["lhs_im"]) for pt in points])
    rhs = np.array([complex(pt["rhs_re"], pt["rhs_im"]) for pt in points])
    residual = np.array([np.nan if pt["residual"] is None else pt["residual"] for pt in points])
    return omega, lhs, rhs, residual


def gate_cf(report: dict, cfg: dict) -> list[str]:
    """Analytic side against closed forms written here; empirical side
    against the same closed forms within 4 SE of an empirical CF, whose
    squared error has mean (1 - |phi|^2)/N (carried through the g-th power
    by the delta method)."""
    p = _params(cfg)
    n = cfg["samples"]
    g = p.gamma
    problems = _common(report, "verify-matching", 2)

    def exact(omega):
        # mean-centred exponential source at alpha*w, and the g-th power of
        # the mean-centred gamma noise, both in closed form
        u = p.alpha * omega / p.lam
        src = np.exp(-1j * u) / (1.0 - 1j * u)
        noise = np.exp(-1j * omega * p.k * p.theta) / (1.0 - 1j * omega * p.theta) ** p.k
        power = np.exp(-p.k * g * np.log(1.0 - 1j * omega * p.theta)
                       - 1j * omega * p.k * p.theta * g)
        return src, noise, power

    analytic = _points(report.get("analytic", {}), "analytic", problems)
    if analytic is not None:
        omega, lhs, rhs, residual = analytic
        src, _, power = exact(omega)
        if np.max(np.abs(lhs - src)) > 1e-12 or np.max(np.abs(rhs - power)) > 1e-12:
            problems.append("analytic CF values differ from the closed forms by more than 1e-12")
        if not np.all(np.abs(src - power) <= 1e-12) or not np.all(residual <= 1e-12):
            problems.append("analytic residual exceeds 1e-12")

    empirical = _points(report.get("empirical", {}), "empirical", problems)
    if empirical is not None:
        omega, lhs, rhs, residual = empirical
        src, noise, power = exact(omega)
        if not np.allclose(residual, np.abs(lhs - rhs), rtol=1e-9, atol=1e-15):
            problems.append("empirical residuals do not equal |lhs - rhs|")
        elif not _close(report["empirical"]["max_residual"], float(np.max(residual)), 1e-12):
            problems.append("empirical max_residual is not the largest residual")
        se_src = np.sqrt(np.maximum(1.0 - np.abs(src) ** 2, 0.0) / n)
        se_noise = np.sqrt(np.maximum(1.0 - np.abs(noise) ** 2, 0.0) / n)
        se_power = g * np.abs(noise) ** (g - 1.0) * se_noise
        slack = 1e-9  # the exact point omega = 0 has zero variance
        bad = np.flatnonzero((np.abs(lhs - src) > SIGMAS * se_src + slack)
                             | (np.abs(rhs - power) > SIGMAS * se_power + slack))
        if bad.size:
            problems.append(f"empirical CF outside {SIGMAS} SE of the closed form at omega "
                            f"{omega[bad].tolist()}")
    return problems


def build(name: str, seed: int, scale: str = "full") -> Workload:
    size = SIZES[scale]
    base = {**REFERENCE, "seed": int(seed), "format": "json"}
    if name == "sweep_spot":
        horizon, episodes = size["sweep"]
        cfg = {**base, **SWEEP_GRID, "spot_check": True,
               "spot_horizon": horizon, "spot_episodes": episodes}
        points = math.prod(len(v) for v in SWEEP_GRID.values())
        return Workload(
            name, "sweep", cfg, work=points * horizon * episodes, work_name="stages_per_s",
            must_hit=("distributions.substream", "distributions.sample_laplace",
                      "distributions.sample_gamma", "strategies.policy",
                      "simulator.run_episode", "simulator.estimate_cost",
                      "simulator.from_samples", "analytics.numeric_argmin",
                      "cli.load_config", "cli.command", "cli.report_write"),
            gate=gate_sweep, reference="episodes",
        )
    if name == "simulate_long":
        horizon, episodes = size["simulate"]
        cfg = {**base, "strategy": "optimal", "horizon": horizon, "episodes": episodes}
        # cost episodes plus the conditional episode of horizon x episodes stages
        return Workload(
            name, "simulate", cfg, work=2 * horizon * episodes, work_name="stages_per_s",
            must_hit=("distributions.sample_laplace", "distributions.sample_gamma",
                      "strategies.policy", "simulator.run_episode",
                      "simulator.estimate_cost", "simulator.estimate_conditional_stats",
                      "simulator.from_samples", "cli.load_config", "cli.command",
                      "cli.report_write"),
            gate=gate_simulate, reference="stream",
        )
    if name == "cf_matching":
        samples = size["samples"]
        cfg = {**base, "pair": "matched", "samples": samples, "omega_min": OMEGA_MIN,
               "omega_max": OMEGA_MAX, "omega_points": OMEGA_POINTS}
        return Workload(
            name, "verify-matching", cfg, work=2 * samples * OMEGA_POINTS,
            work_name="cf_evals_per_s",
            must_hit=("distributions.sample_exponential", "distributions.sample_gamma",
                      "distributions.empirical_char_fn", "matching.check_matching",
                      "matching.check_matching_empirical", "cli.load_config",
                      "cli.command", "cli.report_write"),
            gate=gate_cf, reference="rotate",
        )
    raise KeyError(name)


NAMES = ("sweep_spot", "simulate_long", "cf_matching")
