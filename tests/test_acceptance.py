"""Acceptance suite: every criterion at its stated scale and tolerance,
one printed PASS/FAIL line per criterion (run with -s to see them all).
"""

import json
import math
import time

import numpy as np
from scipy import stats
from scipy.integrate import quad

from remest.analytics import (
    cost_closed_form,
    cost_derivative,
    numeric_argmin,
    optimal_threshold,
)
from remest.cli import main as cli_main
from remest.distributions import RngHandle
from remest.matching import check_matching, check_matching_empirical, pair
from remest.simulator import (
    MonteCarloEstimate,
    estimate_conditional_stats,
    run_episode,
    stationarity_check,
)
from remest.strategies import SystemParams, ThresholdAffineStrategy

from nonstationary import SwitchedThreshold

REF = SystemParams(lam=1.0, k=2.0, p_t=1.0, c=1.0)
BETA_STAR = optimal_threshold(REF)

SWEEP_PARAMS = [
    SystemParams(lam=lam, k=k, p_t=p_t, c=c)
    for lam in (0.5, 1.0, 2.0)
    for k in (0.5, 1.0, 2.0, 5.0)
    for p_t in (0.25, 1.0, 4.0)
    for c in (0.1, 1.0, 10.0)
]


def _report(num, name, passed, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_matching_condition():
    start = time.monotonic()
    omega = np.linspace(-5.0, 5.0, 101)
    analytic = check_matching(pair(REF, True), omega)
    empirical = check_matching_empirical(pair(REF, True), omega, 10**6, RngHandle(20240, 0))
    elapsed = time.monotonic() - start

    passed = (
        analytic.max_residual < 1e-12
        and empirical.max_residual < 0.02
        and elapsed < 10.0
    )
    _report(1, "matching condition", passed,
            f"analytic={analytic.max_residual:.2e}, "
            f"empirical={empirical.max_residual:.4f}, t={elapsed:.1f}s")


def test_criterion_02_conditional_mse_per_sign():
    start = time.monotonic()
    stats = estimate_conditional_stats(
        REF, ThresholdAffineStrategy(REF, BETA_STAR), 10**6, RngHandle(20240, 1)
    )
    elapsed = time.monotonic() - start
    z_pos = stats.mse_tx_pos.z_score(REF.m)
    z_neg = stats.mse_tx_neg.z_score(REF.m)
    passed = (
        stats.mse_tx_pos.covers(REF.m, 4.0)
        and stats.mse_tx_neg.covers(REF.m, 4.0)
        and elapsed < 30.0
    )
    _report(2, "conditional MSE per sign", passed,
            f"z_pos={z_pos:.2f}, z_neg={z_neg:.2f}, "
            f"n_tx={stats.n_transmissions}, t={elapsed:.1f}s")


def test_criterion_03_power_equality_across_sweep():
    # the sparse corners (c=10) transmit with probability ~2e-3, and y^2 is
    # right-skewed, so each point needs a decent transmission count for the
    # 4-sigma band to be fair
    worst_z = 0.0
    for i, p in enumerate(SWEEP_PARAMS):
        strat = ThresholdAffineStrategy(p, optimal_threshold(p))
        stats = estimate_conditional_stats(p, strat, 4 * 10**5, RngHandle(20240, 2, (i,)))
        worst_z = max(worst_z, abs(stats.power.z_score(p.p_t)))
    passed = worst_z < 4.0
    _report(3, "power constraint equality on sweep grid", passed,
            f"max |z| over {len(SWEEP_PARAMS)} points = {worst_z:.2f}")


def test_criterion_04_closed_form_vs_quadrature():
    start = time.monotonic()
    worst = 0.0
    density_ok = True
    xs = np.linspace(-20.0, 20.0, 401)
    for p in SWEEP_PARAMS:
        # scipy's Laplace density, written out: its frozen pdf costs about
        # 60 us a call, which puts the 3e5 quadrature nodes past the time bound
        density = lambda x, lam=p.lam: 0.5 * lam * np.exp(-lam * np.abs(x))
        density_ok &= np.allclose(density(xs), stats.laplace(scale=1.0 / p.lam).pdf(xs),
                                  rtol=1e-14, atol=0.0)
        hi = 2.5 * optimal_threshold(p)
        for beta in np.linspace(0.0, hi, 20):
            beta = float(beta)
            inside, _ = quad(lambda x: 2.0 * x * x * density(x), 0.0, beta, limit=200)
            tail, _ = quad(lambda x: 2.0 * density(x), beta, np.inf, limit=200)
            oracle = inside + (p.c + p.m) * tail
            worst = max(worst, abs(cost_closed_form(p, beta).total - oracle))
    elapsed = time.monotonic() - start
    passed = worst < 1e-10 and density_ok and elapsed < 5.0
    _report(4, "closed-form cost vs quadrature", passed,
            f"max gap={worst:.2e} over {len(SWEEP_PARAMS)}x20 points, t={elapsed:.1f}s")


def test_criterion_05_unique_minimizer():
    worst_gap = 0.0
    signs_ok = True
    for p in SWEEP_PARAMS:
        star = optimal_threshold(p)
        numeric = numeric_argmin(p)
        worst_gap = max(worst_gap, abs(numeric - star))
        at_star = cost_derivative(p, star)
        scale = p.lam * (p.c + p.m)
        signs_ok = signs_ok and (
            cost_derivative(p, star - 0.1) < 0.0
            and abs(at_star) < 1e-12 * scale
            and cost_derivative(p, star + 0.1) > 0.0
        )
    passed = worst_gap < 1e-6 and signs_ok
    _report(5, "unique minimizer", passed,
            f"max |numeric-formula|={worst_gap:.2e}, sign pattern ok={signs_ok}")


def test_criterion_06_end_to_end_cost_consistency():
    betas = (0.5 * BETA_STAR, BETA_STAR, 2.0 * BETA_STAR)
    means = []
    all_within = True
    detail = []
    for beta in betas:
        # identical handle key -> common random numbers across the three runs
        trace = run_episode(REF, ThresholdAffineStrategy(REF, beta), 10**6, RngHandle(20240, 3))
        est = MonteCarloEstimate.from_samples(trace.stage_cost)
        target = cost_closed_form(REF, beta).total
        means.append(est.mean)
        all_within = all_within and est.covers(target, 4.0)
        detail.append(f"beta={beta:.3f}: z={est.z_score(target):.2f}")
    star_smallest = means[1] == min(means)
    passed = all_within and star_smallest
    _report(6, "end-to-end cost consistency", passed,
            "; ".join(detail) + f"; optimum smallest={star_smallest}")


def test_criterion_07_stationarity():
    optimal = ThresholdAffineStrategy(REF, BETA_STAR)
    good = stationarity_check(REF, optimal, 10, 10**5, RngHandle(20240, 4))
    switched = SwitchedThreshold(REF, BETA_STAR, switch_stage=5)
    bad = stationarity_check(REF, switched, 10, 10**5, RngHandle(20240, 4))
    passed = good.passed and not bad.passed
    _report(7, "stationarity", passed,
            f"stationary max z={good.max_pairwise_z:.2f}, "
            f"counterexample max z={bad.max_pairwise_z:.1f}")


def test_criterion_08_conditional_unbiasedness():
    stats = estimate_conditional_stats(
        REF, ThresholdAffineStrategy(REF, BETA_STAR), 10**6, RngHandle(20240, 5)
    )
    z = stats.bias_tx.z_score(0.0)
    passed = stats.bias_tx.covers(0.0, 4.0)
    _report(8, "conditional unbiasedness", passed, f"bias z={z:.2f}")


def test_criterion_09_baseline_identities():
    never = ThresholdAffineStrategy(REF, math.inf)
    never_trace = run_episode(REF, never, 10**6, RngHandle(20240, 6))
    never_est = MonteCarloEstimate.from_samples(never_trace.stage_cost)
    never_ok = never_est.covers(2.0 / REF.lam**2, 4.0)

    always_exact = cost_closed_form(REF, 0.0).total == REF.c + REF.m

    blind = ThresholdAffineStrategy(REF, BETA_STAR, matched=False)
    blind_stats = estimate_conditional_stats(REF, blind, 10**6, RngHandle(20240, 7))
    blind_excess = blind_stats.mse_tx.mean - REF.m
    blind_ok = blind_excess > 4.0 * blind_stats.mse_tx.std_error

    passed = never_ok and always_exact and blind_ok
    _report(9, "baseline identities", passed,
            f"never z={never_est.z_score(2.0):.2f}, J(0)==c+m={always_exact}, "
            f"noise-blind excess={blind_excess:.3f}")


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "schema_version": 1,
        "lambda": 1.0, "k": 2.0, "p_t": 1.0, "c": 1.0,
        "strategy": "optimal", "horizon": 2000, "episodes": 16,
        "seed": 77,
    }))
    outs = [tmp_path / f"report_{i}.json" for i in range(2)]
    for out in outs:
        code = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
    identical = outs[0].read_bytes() == outs[1].read_bytes()

    _report(10, "byte-identical deterministic reports", identical,
            f"repeated runs identical={identical}")
