import math
import tracemalloc

import numpy as np
import pytest

from remest.analytics import cost_closed_form, optimal_threshold
from remest.distributions import (
    GammaDist,
    LaplaceDist,
    RngHandle,
    sample_gamma,
    sample_laplace,
)
from remest.simulator import (
    CHUNK_STAGES,
    MIN_TRANSMISSIONS,
    MonteCarloEstimate,
    estimate_conditional_stats,
    estimate_cost,
    run_episode,
    stationarity_check,
)
from remest.strategies import SystemParams, ThresholdAffineStrategy, payload_sign

from nonstationary import SwitchedThreshold

REF = SystemParams(lam=1.0, k=2.0, p_t=1.0, c=1.0)
BETA_STAR = optimal_threshold(REF)
OPTIMAL = ThresholdAffineStrategy(REF, BETA_STAR)
NEVER = ThresholdAffineStrategy(REF, math.inf)


class TestMonteCarloEstimate:
    def test_from_samples(self):
        est = MonteCarloEstimate.from_samples([1.0, 2.0, 3.0, 4.0])
        assert est.mean == 2.5
        assert est.n == 4
        assert est.std_error == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            MonteCarloEstimate.from_samples([1.0])

    def test_z_and_coverage(self):
        est = MonteCarloEstimate(mean=1.0, std_error=0.1, n=100)
        assert est.z_score(0.8) == pytest.approx(2.0)
        assert est.covers(0.8, sigmas=4.0)
        assert not est.covers(0.5, sigmas=4.0)

    def test_degenerate_std_error(self):
        est = MonteCarloEstimate(mean=1.0, std_error=0.0, n=10)
        assert est.z_score(1.0) == 0.0
        assert est.z_score(0.9) == float("inf")
        assert est.covers(1.0)
        assert not est.covers(0.9)

    def test_non_finite_estimate_covers_nothing(self):
        # an M2 beyond the float range gives an infinite SE, which covered
        # every target when the check was |gap| <= 4·SE
        with np.errstate(over="ignore"):  # the overflow under test
            overflowed = MonteCarloEstimate.from_samples([1e300, -1e300])
        assert overflowed.mean == 0.0 and overflowed.std_error == math.inf
        for est in (overflowed, MonteCarloEstimate(mean=math.inf, std_error=1.0, n=2),
                    MonteCarloEstimate(mean=math.nan, std_error=1.0, n=2),
                    MonteCarloEstimate(mean=1.0, std_error=math.nan, n=2)):
            assert not est.covers(0.0), est
            assert math.isnan(est.z_score(0.0)), est


class TestRunEpisode:
    def test_bitwise_reproducibility(self):
        a = run_episode(REF, OPTIMAL, 5_000, RngHandle(42, 7))
        b = run_episode(REF, OPTIMAL, 5_000, RngHandle(42, 7))
        for field in ("x", "u", "y", "v", "y_tilde", "s", "x_hat", "stage_cost"):
            assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True), field
        assert a.total_cost == b.total_cost

    def test_protocol_invariant(self):
        tr = run_episode(REF, OPTIMAL, 10_000, RngHandle(1))
        silent = ~tr.u
        assert silent.any() and tr.u.any()
        assert np.isnan(tr.y[silent]).all()
        assert np.isnan(tr.y_tilde[silent]).all()
        assert (tr.s[silent] == 0).all()
        assert (tr.x_hat[silent] == 0.0).all()
        assert np.isfinite(tr.y[tr.u]).all()
        assert np.isfinite(tr.y_tilde[tr.u]).all()
        assert np.isin(tr.s[tr.u], (-1, 1)).all()
        # channel additivity where transmitting
        np.testing.assert_allclose(tr.y_tilde[tr.u], tr.y[tr.u] + tr.v[tr.u], rtol=1e-15)
        np.testing.assert_allclose(tr.stage_cost, REF.c * tr.u + (tr.x - tr.x_hat) ** 2,
                                   rtol=1e-15)

    def test_stage_view_maps_epsilon(self):
        # Stage by stage, "no transmission" maps to NaN payloads and sign 0 in
        # the columns.
        tr = run_episode(REF, OPTIMAL, 200, RngHandle(2))
        for field in ("x", "u", "y", "v", "y_tilde", "s", "x_hat", "stage_cost"):
            assert getattr(tr, field).shape == (200,), field
        saw_silent = saw_tx = False
        for i in range(200):
            if not tr.u[i]:
                saw_silent = True
                assert math.isnan(tr.y[i]) and math.isnan(tr.y_tilde[i])
                assert tr.s[i] == 0
                assert tr.x_hat[i] == 0.0
            else:
                saw_tx = True
                assert tr.s[i] in (1, -1)
                assert tr.y_tilde[i] == pytest.approx(tr.y[i] + tr.v[i])
            assert tr.stage_cost[i] == pytest.approx(
                REF.c * tr.u[i] + (tr.x[i] - tr.x_hat[i]) ** 2
            )
        assert saw_silent and saw_tx

    def test_policy_sees_only_transmitting_entries(self):
        seen = []

        class Recording(ThresholdAffineStrategy):
            def encode(self, t, x):
                seen.append(x)
                return super().encode(t, x)

        tr = run_episode(REF, Recording(REF, BETA_STAR), 2_000, RngHandle(2))
        assert len(seen) == 1
        assert seen[0].size == tr.n_transmissions
        assert (np.abs(seen[0]) > BETA_STAR).all()

    def test_cost_decomposition(self):
        tr = run_episode(REF, OPTIMAL, 50_000, RngHandle(3))
        err_sq = (tr.x - tr.x_hat) ** 2
        expected = REF.c * tr.n_transmissions + err_sq.sum()
        assert tr.total_cost == pytest.approx(expected, rel=1e-12)
        assert tr.total_cost == pytest.approx(tr.stage_cost.sum(), rel=0.0)

    def test_never_transmit_episode(self):
        tr = run_episode(REF, NEVER, 5, RngHandle(4))
        assert not tr.u.any()
        assert (tr.x_hat == 0.0).all()
        assert tr.total_cost == pytest.approx((tr.x**2).sum(), rel=1e-15)
        assert np.isfinite(tr.v).all()  # noise still drawn and recorded

    def test_always_transmit_fraction_is_one(self):
        tr = run_episode(REF, ThresholdAffineStrategy(REF, 0.0), 1_000, RngHandle(5))
        assert tr.n_transmissions == 1_000

    def test_common_random_numbers_across_policies(self):
        a = run_episode(REF, OPTIMAL, 1_000, RngHandle(6, 3))
        b = run_episode(REF, ThresholdAffineStrategy(REF, 2.0), 1_000, RngHandle(6, 3))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.v, b.v)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            run_episode(REF, OPTIMAL, 0, RngHandle(0))

    def test_block_i_draws_from_substream_i(self):
        rng = RngHandle(8, 2)
        tr = run_episode(REF, OPTIMAL, CHUNK_STAGES + 5, rng)
        source = LaplaceDist(1.0 / REF.lam)
        assert np.array_equal(tr.x[:CHUNK_STAGES],
                              sample_laplace(source, rng.substream(0), size=CHUNK_STAGES))
        assert np.array_equal(tr.x[CHUNK_STAGES:],
                              sample_laplace(source, rng.substream(1), size=5))


class TestEstimateCost:
    def test_matches_closed_form_at_optimum(self):
        est = estimate_cost(REF, OPTIMAL, 10_000, 100, RngHandle(2025, 0))
        assert est.n == 100
        assert est.covers(cost_closed_form(REF, BETA_STAR).total, sigmas=4.0)

    def test_never_transmit_matches_second_moment(self):
        est = estimate_cost(REF, NEVER, 10_000, 100, RngHandle(2025, 1))
        assert est.covers(2.0 / REF.lam**2, sigmas=4.0)

    def test_optimum_beats_neighbors_under_crn(self):
        handle = lambda: RngHandle(2025, 2)
        at_star = estimate_cost(REF, OPTIMAL, 2_000, 50, handle())
        below = estimate_cost(REF, ThresholdAffineStrategy(REF, BETA_STAR - 0.3), 2_000, 50, handle())
        above = estimate_cost(REF, ThresholdAffineStrategy(REF, BETA_STAR + 0.3), 2_000, 50, handle())
        assert at_star.mean < below.mean
        assert at_star.mean < above.mean

    def test_episode_totals_match_run_episode(self):
        horizon = CHUNK_STAGES + 100
        rng = RngHandle(2025, 14)
        est = estimate_cost(REF, OPTIMAL, horizon, 2, rng)
        # a one-episode run on the same handle draws the first episode's blocks
        first = run_episode(REF, OPTIMAL, horizon, rng).total_cost / horizon
        second = 2.0 * est.mean - first
        np.testing.assert_allclose(est.std_error, abs(first - second) / 2.0, rtol=1e-9)

    def test_requires_two_episodes(self):
        with pytest.raises(ValueError):
            estimate_cost(REF, OPTIMAL, 100, 1, RngHandle(0))

    def test_sweep_of_betas_against_closed_form(self):
        for i, beta in enumerate((0.2, 0.8, 1.5, 2.5)):
            strat = ThresholdAffineStrategy(REF, beta)
            est = estimate_cost(REF, strat, 5_000, 60, RngHandle(2025, 10 + i))
            assert est.covers(cost_closed_form(REF, beta).total, sigmas=4.0), beta


class TestConditionalStats:
    def test_reference_targets(self):
        stats = estimate_conditional_stats(REF, OPTIMAL, 200_000, RngHandle(2025, 4))
        assert stats.mse_tx.covers(REF.m, sigmas=4.0)
        assert stats.mse_tx_pos.covers(REF.m, sigmas=4.0)
        assert stats.mse_tx_neg.covers(REF.m, sigmas=4.0)
        assert stats.power.covers(REF.p_t, sigmas=4.0)
        assert stats.tx_frequency.covers(math.exp(-REF.lam * BETA_STAR), sigmas=4.0)
        assert stats.bias_tx.covers(0.0, sigmas=4.0)
        assert stats.n_transmissions >= 100

    def test_noise_blind_does_worse(self):
        blind = ThresholdAffineStrategy(REF, BETA_STAR, matched=False)
        stats = estimate_conditional_stats(REF, blind, 200_000, RngHandle(2025, 5))
        gap = stats.mse_tx.mean - REF.m
        assert gap > 4.0 * stats.mse_tx.std_error

    def test_insufficient_transmissions(self):
        # the statistics that cannot be estimated are None and the reason is
        # kept; the transmit frequency still has every stage
        sparse = ThresholdAffineStrategy(REF, 25.0)
        stats = estimate_conditional_stats(REF, sparse, 1_000, RngHandle(2025, 6))
        assert "transmissions" in stats.problem
        for name in ("mse_tx", "mse_tx_pos", "mse_tx_neg", "power", "bias_tx"):
            assert getattr(stats, name) is None, name
        assert stats.tx_frequency.n == 1_000

    def test_streaming_moments_match_the_trace(self):
        # the episode spans several blocks; the merged moments must agree
        # with the statistics of the concatenated samples
        horizon = 3 * CHUNK_STAGES + 17
        rng = RngHandle(2025, 15)
        stats = estimate_conditional_stats(REF, OPTIMAL, horizon, rng)
        tr = run_episode(REF, OPTIMAL, horizon, rng)
        on = tr.u
        err = tr.x_hat[on] - tr.x[on]
        expected = {
            "mse_tx": err**2,
            "mse_tx_pos": err[tr.s[on] == 1] ** 2,
            "mse_tx_neg": err[tr.s[on] == -1] ** 2,
            "power": tr.y[on] ** 2,
            "tx_frequency": on,
            "bias_tx": err,
        }
        for name, samples in expected.items():
            got = getattr(stats, name)
            want = MonteCarloEstimate.from_samples(samples)
            assert got.n == want.n, name
            np.testing.assert_allclose(got.mean, want.mean, rtol=1e-12, err_msg=name)
            np.testing.assert_allclose(got.std_error, want.std_error, rtol=1e-12, err_msg=name)


class TestStationarity:
    def test_stationary_strategy_passes(self):
        report = stationarity_check(REF, OPTIMAL, 10, 20_000, RngHandle(2025, 8))
        assert report.passed
        assert report.max_pairwise_z < 4.0
        assert len(report.stage_means) == 10

    def test_single_stage_trivially_passes(self):
        report = stationarity_check(REF, OPTIMAL, 1, 1_000, RngHandle(2025, 9))
        assert report.passed
        assert report.max_pairwise_z == 0.0

    def test_nonstationary_counterexample_fails(self):
        switched = SwitchedThreshold(REF, BETA_STAR, switch_stage=5)
        report = stationarity_check(REF, switched, 10, 20_000, RngHandle(2025, 8))
        assert not report.passed
        assert report.max_pairwise_z > 4.0

    def test_a_max_z_between_4_and_6_fails(self):
        # the switch of the counterexample, on 1% of its episodes
        switched = SwitchedThreshold(REF, BETA_STAR, switch_stage=5)
        report = stationarity_check(REF, switched, 10, 200, RngHandle(2025, 7))
        assert 4.5 <= report.max_pairwise_z <= 5.5
        assert not report.passed

    @pytest.mark.parametrize("horizon", [10, 600])
    def test_max_z_equals_full_pairwise_formula(self, horizon):
        # 600 stages take several row blocks of the pairwise scan
        report = stationarity_check(REF, OPTIMAL, horizon, 50, RngHandle(2025, 16))
        means = np.array([e.mean for e in report.stage_means])
        ses = np.array([e.std_error for e in report.stage_means])
        gap = np.abs(means[:, None] - means[None, :])
        joint = np.sqrt(ses[:, None] ** 2 + ses[None, :] ** 2)
        iu = np.triu_indices(horizon, k=1)
        assert report.max_pairwise_z == float(np.max(gap[iu] / joint[iu]))

    def test_pairwise_scan_memory_is_linear_in_horizon(self):
        # an H x H array of pairs would be 30 MiB at H=2000
        def run():
            return stationarity_check(REF, OPTIMAL, 2_000, 50, RngHandle(2025, 17))

        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


class TestBoundedMemory:
    """The kernel holds a few blocks, not the whole run: the traced peak at
    2^20 stages stays within a small constant of the peak at 2^16 stages."""

    SLACK = 64 * 1024  # bytes: the per-episode totals and allocator noise

    @staticmethod
    def _peak(fn) -> int:
        fn()  # warm caches outside the measurement
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("horizon", [1_000, 2**14])
    def test_estimate_cost(self, horizon):
        small = self._peak(lambda: estimate_cost(REF, OPTIMAL, horizon, 2**16 // horizon,
                                                 RngHandle(3)))
        large = self._peak(lambda: estimate_cost(REF, OPTIMAL, horizon, 2**20 // horizon,
                                                 RngHandle(3)))
        assert large <= small + self.SLACK, (small, large)

    def test_estimate_cost_with_conditional_stats(self):
        def run(stages):
            return lambda: estimate_cost(REF, OPTIMAL, 1_000, stages // 1_000, RngHandle(5),
                                         conditional=True)

        small, large = self._peak(run(2**16)), self._peak(run(2**20))
        assert large <= small + self.SLACK, (small, large)

    def test_estimate_conditional_stats(self):
        small = self._peak(lambda: estimate_conditional_stats(REF, OPTIMAL, 2**16, RngHandle(4)))
        large = self._peak(lambda: estimate_conditional_stats(REF, OPTIMAL, 2**20, RngHandle(4)))
        assert large <= small + self.SLACK, (small, large)
        # and far below the 2^20 * 8 bytes of a single float column
        assert large < 2**20


def _reference_blocks(p, strat, horizon, n_episodes, rng):
    """The kernel written plainly: a full ``x_hat`` per block and boolean
    masks.  Yields (r0, r1, c0, x, v, u, x_hat, y_on, s_on, stage cost)."""
    if horizon <= CHUNK_STAGES:
        rows = CHUNK_STAGES // horizon
        bounds = [(r0, min(r0 + rows, n_episodes), 0, horizon)
                  for r0 in range(0, n_episodes, rows)]
    else:
        bounds = [(r, r + 1, c0, min(c0 + CHUNK_STAGES, horizon))
                  for r in range(n_episodes) for c0 in range(0, horizon, CHUNK_STAGES)]
    source, noise = LaplaceDist(1.0 / p.lam), GammaDist(p.k, p.theta)
    for i, (r0, r1, c0, c1) in enumerate(bounds):
        sub = rng.substream(i)
        shape = (r1 - r0, c1 - c0)
        x = sample_laplace(source, sub, size=shape[0] * shape[1]).reshape(shape)
        v = sample_gamma(noise, sub, size=x.size).reshape(shape)
        t = np.arange(c0 + 1, c1 + 1)
        u = np.asarray(strat.transmit(t, x), dtype=bool)
        x_hat = np.zeros(shape)
        y_on, s_on = np.empty(0), np.empty(0, dtype=np.int8)
        if u.any():
            t_on = np.broadcast_to(t, shape)[u]
            y_on = np.asarray(strat.encode(t_on, x[u]), dtype=np.float64)
            s_on = payload_sign(x[u])
            x_hat[u] = strat.decode(t_on, y_on + v[u], s_on)
        cost = np.square(x - x_hat)
        np.add(cost, p.c, out=cost, where=u)
        yield r0, r1, c0, x, v, u, x_hat, y_on, s_on, cost


def _reference_conditional(blocks):
    """The conditional fold written plainly, one row at a time.

    Each transmitting block gives the rows err = x_hat - x, y², and err² of
    its transmit set, less their means over the first transmitting block;
    the shifted err² is split by sign into two rows.  The rows' sums and
    sums of squares are added up in block order, and err² over both
    branches adds the two branch rows.  Returns the five
    transmission-conditional estimates by name (None below
    MIN_TRANSMISSIONS transmissions, or below 2 samples) and the number of
    transmissions."""
    n_tx = n_pos = 0
    shift = None
    sums, squares = [0.0] * 4, [0.0] * 4
    for _, _, _, x, _, u, x_hat, y_on, s_on, _ in blocks:
        if not u.any():
            continue
        err = x_hat[u] - x[u]
        rows = [err, np.square(y_on), np.square(err)]
        if shift is None:
            shift = [np.sum(row) / row.size for row in rows]
        dev = [row - k for row, k in zip(rows, shift)]
        pos = s_on > 0
        dev[2:] = [np.where(pos, 0.0, dev[2]), np.where(pos, dev[2], 0.0)]
        for i, row in enumerate(dev):
            sums[i] += np.sum(row)
            squares[i] += np.sum(np.square(row))
        n_tx += err.size
        n_pos += int(np.count_nonzero(pos))

    def estimate(n, k, s, q):
        if n_tx < MIN_TRANSMISSIONS or n < 2:
            return None
        m2 = max(q - s / n * s, 0.0)
        return MonteCarloEstimate(mean=float(k + s / n),
                                  std_error=math.sqrt(m2 / (n - 1)) / math.sqrt(n), n=n)

    k_err, k_y2, k_sq = shift or (0.0, 0.0, 0.0)
    return {
        "mse_tx": estimate(n_tx, k_sq, sums[2] + sums[3], squares[2] + squares[3]),
        "mse_tx_pos": estimate(n_pos, k_sq, sums[3], squares[3]),
        "mse_tx_neg": estimate(n_tx - n_pos, k_sq, sums[2], squares[2]),
        "power": estimate(n_tx, k_y2, sums[1], squares[1]),
        "bias_tx": estimate(n_tx, k_err, sums[0], squares[0]),
    }, n_tx


class TestTransmitSetKernel:
    """The kernel runs the policy on the transmit set only; every estimator
    and every trace column equals, bit for bit, what the plain full-array
    kernel gives on the same draws, and the per-stage moments agree to 1e-12
    with the exactly rounded moments of its stage costs."""

    CASES = {
        "optimal": OPTIMAL,
        "beta-0": ThresholdAffineStrategy(REF, 0.0),
        "noise-blind": ThresholdAffineStrategy(REF, BETA_STAR, matched=False),
        "never": NEVER,
        "switched": SwitchedThreshold(REF, BETA_STAR, switch_stage=50),
    }

    @pytest.fixture(params=[(name, 100, 90) for name in CASES]
                    + [("switched", CHUNK_STAGES + 17, 3)],
                    ids=lambda case: f"{case[0]}-{case[1]}")
    def case(self, request):
        # horizon 100 packs 40 episodes per block; CHUNK_STAGES + 17 cuts
        # each episode into two column pieces
        name, horizon, episodes = request.param
        return self.CASES[name], horizon, episodes

    def test_estimate_cost(self, case):
        strat, horizon, episodes = case
        totals = np.zeros(episodes)
        for r0, r1, *_, cost in _reference_blocks(REF, strat, horizon, episodes, RngHandle(31)):
            totals[r0:r1] += cost.sum(axis=1)
        want = MonteCarloEstimate.from_samples(totals / horizon)
        assert estimate_cost(REF, strat, horizon, episodes, RngHandle(31)) == want

    def test_stationarity_check(self, case):
        strat, horizon, episodes = case
        report = stationarity_check(REF, strat, horizon, episodes, RngHandle(32))
        _assert_stage_moments(report, _stage_costs(REF, strat, horizon, episodes, RngHandle(32)))

    def test_estimate_conditional_stats(self, case):
        strat, horizon, episodes = case
        stages = horizon * episodes
        blocks = list(_reference_blocks(REF, strat, stages, 1, RngHandle(33)))
        want, n_tx = _reference_conditional(blocks)
        stats = estimate_conditional_stats(REF, strat, stages, RngHandle(33))
        assert stats.n_transmissions == n_tx
        assert stats.tx_frequency == _count_estimate(n_tx, stages)
        for name, estimate in want.items():
            assert getattr(stats, name) == estimate, name

    def test_one_pass_pools_the_cost_episodes(self, case):
        # estimate_cost(conditional=True): the conditional rows pool every
        # stage of the cost episodes' blocks, and the cost is unchanged
        strat, horizon, episodes = case
        stages = horizon * episodes
        blocks = list(_reference_blocks(REF, strat, horizon, episodes, RngHandle(35)))
        totals = np.zeros(episodes)
        for r0, r1, *_, cost in blocks:
            totals[r0:r1] += cost.sum(axis=1)
        want, k = _reference_conditional(blocks)
        cost, stats = estimate_cost(REF, strat, horizon, episodes, RngHandle(35),
                                    conditional=True)
        assert cost == MonteCarloEstimate.from_samples(totals / horizon)
        assert cost == estimate_cost(REF, strat, horizon, episodes, RngHandle(35))
        # the transmit frequency from the exact count k of the stages
        assert stats.n_transmissions == k
        assert stats.tx_frequency == _count_estimate(k, stages)
        for name, estimate in want.items():
            assert getattr(stats, name) == estimate, name

    def test_run_episode_columns(self, case):
        strat, horizon, episodes = case
        stages = horizon * episodes
        want = {"x": np.empty(stages), "v": np.empty(stages), "u": np.empty(stages, dtype=bool),
                "x_hat": np.empty(stages), "stage_cost": np.empty(stages),
                "y": np.full(stages, np.nan), "y_tilde": np.full(stages, np.nan),
                "s": np.zeros(stages, dtype=np.int8)}
        for _, _, c0, x, v, u, x_hat, y_on, s_on, cost in _reference_blocks(
                REF, strat, stages, 1, RngHandle(34)):
            cols = slice(c0, c0 + x.shape[1])
            for name, block in (("x", x), ("v", v), ("u", u), ("x_hat", x_hat),
                                ("stage_cost", cost)):
                want[name][cols] = block[0]
            on = np.flatnonzero(u[0]) + c0
            want["y"][on] = y_on
            want["y_tilde"][on] = y_on + v[u]
            want["s"][on] = s_on
        tr = run_episode(REF, strat, stages, RngHandle(34))
        for name, column in want.items():
            got = getattr(tr, name)
            assert got.dtype == column.dtype, name
            assert np.array_equal(got, column, equal_nan=True), name
        assert tr.total_cost == float(want["stage_cost"].sum())


def _transmitting(rule, p=REF):
    """The optimal policy's coder maps under the transmit rule ``rule(t, x)``."""
    class Rule(ThresholdAffineStrategy):
        def transmit(self, t, x):
            return np.broadcast_to(rule(np.asarray(t), np.asarray(x)), np.shape(x))

    return Rule(p, optimal_threshold(p))


# silent through the first block of each episode and once at the first stage
# of the second, then the optimal threshold: the first transmitting block
# holds a single transmission, and it sets the conditional fold's shift
SPARSE_START = _transmitting(
    lambda t, x: (np.abs(x) > BETA_STAR) & (t > 2 * CHUNK_STAGES) | (t == CHUNK_STAGES + 1))


class _OffsetDecoder(ThresholdAffineStrategy):
    """The optimal policy with 1e4 added to every estimate: err² then lies
    far from 0 against its spread, where an M2 from unshifted sums,
    Σx² - (Σx)²/n, loses about eight digits."""

    def decode(self, t, y_tilde, s):
        return super().decode(t, y_tilde, s) + 1e4


def _fsum_estimate(samples) -> tuple[int, float, float]:
    """n, mean and standard error of the samples, from exactly rounded sums."""
    values = [float(v) for v in samples]
    n = len(values)
    mean = math.fsum(values) / n
    m2 = math.fsum((v - mean) ** 2 for v in values)
    return n, mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n)


def _count_estimate(k: int, n: int) -> MonteCarloEstimate:
    """The estimate of a frequency from its exact count: k of n samples are
    1, so the mean is k/n and M2 = k(n - k)/n."""
    return MonteCarloEstimate(mean=k / n, std_error=math.sqrt(k * (n - k) / n / (n - 1))
                              / math.sqrt(n), n=n)


def _stage_costs(p, strat, horizon, n_episodes, rng) -> np.ndarray:
    """The (episodes, horizon) stage costs of the plain kernel."""
    costs = np.empty((n_episodes, horizon))
    for r0, r1, c0, *_, cost in _reference_blocks(p, strat, horizon, n_episodes, rng):
        costs[r0:r1, c0:c0 + cost.shape[1]] = cost
    return costs


def _assert_stage_moments(report, costs):
    """Each stage's count, and its mean and SE to 1e-12 of the fsum moments
    of the stage's costs over the episodes."""
    assert all(est.n == costs.shape[0] for est in report.stage_means)
    got = np.array([(est.mean, est.std_error) for est in report.stage_means])
    want = np.array([_fsum_estimate(column)[1:] for column in costs.T])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _assert_fsum_moments(stats, samples, rows):
    """Each row's count, and its mean and SE to 1e-12 of the fsum moments."""
    for row in rows:
        n, mean, se = _fsum_estimate(samples[row])
        got = getattr(stats, row)
        assert got.n == n, row
        np.testing.assert_allclose(got.mean, mean, rtol=1e-12, atol=0, err_msg=row)
        np.testing.assert_allclose(got.std_error, se, rtol=1e-12, atol=0, err_msg=row)


def _transmit_set_samples(p, strat, horizon, n_episodes, rng):
    """The samples of each ConditionalStats row, from the plain kernel."""
    err, y_on, s_on, u = [], [], [], []
    for _, _, _, x, _, on, x_hat, y, s, _ in _reference_blocks(p, strat, horizon, n_episodes,
                                                                rng):
        err.append(x_hat[on] - x[on])
        y_on.append(y)
        s_on.append(s)
        u.append(on.ravel())
    err, y_on, s_on = np.concatenate(err), np.concatenate(y_on), np.concatenate(s_on)
    return {
        "mse_tx": err**2,
        "mse_tx_pos": err[s_on == 1] ** 2,
        "mse_tx_neg": err[s_on == -1] ** 2,
        "power": y_on**2,
        "tx_frequency": np.concatenate(u),
        "bias_tx": err,
    }


class TestConditionalFold:
    """The fused conditional reducer against exactly rounded moments of the
    concatenated transmit-set samples, and at its edges."""

    CASES = {
        "optimal": (OPTIMAL, 1_000, 20),
        "noise-blind": (ThresholdAffineStrategy(REF, BETA_STAR, matched=False), 1_000, 20),
        "switched": (SwitchedThreshold(REF, BETA_STAR, switch_stage=50),
                     CHUNK_STAGES + 17, 3),
        "sparse-start": (SPARSE_START, 3 * CHUNK_STAGES + 500, 2),
        "offset-decoder": (_OffsetDecoder(REF, BETA_STAR), 1_000, 20),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_matches_fsum_moments(self, name):
        strat, horizon, episodes = self.CASES[name]
        _, stats = estimate_cost(REF, strat, horizon, episodes, RngHandle(41), conditional=True)
        assert stats.problem is None
        samples = _transmit_set_samples(REF, strat, horizon, episodes, RngHandle(41))
        _assert_fsum_moments(stats, samples, samples)

    def test_silent_blocks_before_a_single_transmission(self):
        horizon = 3 * CHUNK_STAGES + 500
        blocks = list(_reference_blocks(REF, SPARSE_START, horizon, 2, RngHandle(42)))
        assert [int(b[5].sum()) for b in blocks[:2]] == [0, 1]
        want, n_tx = _reference_conditional(blocks)
        _, stats = estimate_cost(REF, SPARSE_START, horizon, 2, RngHandle(42), conditional=True)
        assert stats.n_transmissions == n_tx >= MIN_TRANSMISSIONS
        for name, estimate in want.items():
            assert estimate is not None and getattr(stats, name) == estimate, name

    @pytest.mark.parametrize("n_tx", [1, 2, MIN_TRANSMISSIONS - 1, MIN_TRANSMISSIONS])
    def test_fewer_than_min_transmissions(self, n_tx):
        strat = _transmitting(lambda t, x: t <= n_tx)
        stats = estimate_conditional_stats(REF, strat, 1_000, RngHandle(43))
        assert stats.n_transmissions == n_tx
        assert (stats.tx_frequency.mean, stats.tx_frequency.n) == (n_tx / 1_000, 1_000)
        rows = ("mse_tx", "mse_tx_pos", "mse_tx_neg", "power", "bias_tx")
        if n_tx < MIN_TRANSMISSIONS:
            assert "transmissions" in stats.problem
            assert all(getattr(stats, row) is None for row in rows)
        else:
            assert stats.problem is None
            assert stats.mse_tx.n == stats.power.n == stats.bias_tx.n == n_tx

    def test_tens_of_transmissions_are_too_few(self):
        # literal bounds: the parametrized test above moves with the constant
        sparse = ThresholdAffineStrategy(REF, 3.0)  # transmits at e^-3, about 5% of stages
        _, stats = estimate_cost(REF, sparse, 100, 10, RngHandle(45), conditional=True)
        assert 10 <= stats.n_transmissions <= 99
        assert (stats.mse_tx, stats.power, stats.bias_tx) == (None, None, None)
        assert "transmissions" in stats.problem

    @pytest.mark.parametrize("negatives", [0, 1])
    def test_sign_branch_with_fewer_than_two_transmissions(self, negatives):
        # above the threshold on the positive side, plus the first stages
        # below -beta as many as ``negatives``; the draws do not depend on
        # the policy, so a silent run shows where those stages are
        rng = RngHandle(44)
        x = run_episode(REF, NEVER, 5_000, rng).x
        stages = 1 + np.flatnonzero(x < -BETA_STAR)[:negatives]
        strat = _transmitting(lambda t, x: (x > BETA_STAR) | np.isin(t, stages))
        stats = estimate_conditional_stats(REF, strat, 5_000, rng)
        assert stats.problem == "a sign branch has fewer than 2 transmissions"
        assert stats.mse_tx_neg is None
        assert stats.mse_tx_pos.n == stats.n_transmissions - negatives
        if negatives == 0:  # the positive branch is every transmission
            assert stats.mse_tx_pos == stats.mse_tx
        samples = _transmit_set_samples(REF, strat, 5_000, 1, rng)
        _assert_fsum_moments(stats, samples, ("mse_tx", "mse_tx_pos", "power", "bias_tx"))

    @pytest.mark.parametrize("episodes, finite", [
        (60, ("mse_tx", "mse_tx_pos", "mse_tx_neg", "power", "tx_frequency", "bias_tx")),
        (80, ("mse_tx_pos", "mse_tx_neg", "power", "tx_frequency", "bias_tx")),
    ])
    def test_extreme_scale_overflows_where_each_rows_m2_does(self, episodes, finite):
        # at lam = 1e-76 the squared deviations of err² are near 1e304: over
        # 100 x 60 stages every row's M2 is finite; over 100 x 80 the M2 of
        # err² over both branches overflows, and each branch's does not
        p = SystemParams(lam=1e-76, k=2.0, p_t=1.0, c=1.0)
        with np.errstate(over="ignore"):  # the overflow under test
            _, stats = estimate_cost(p, ThresholdAffineStrategy(p, 0.0), 100, episodes,
                                     RngHandle(2025, 40), conditional=True)
        for row in ("mse_tx", "mse_tx_pos", "mse_tx_neg", "power", "tx_frequency", "bias_tx"):
            assert math.isfinite(getattr(stats, row).std_error) == (row in finite), row

    def test_extreme_scale_with_a_one_sample_shift(self):
        # a single transmission in the first transmitting block sets the
        # shift, one err² of order 1e152; over the 2,000 stages that follow,
        # (Σd)² overflows and Σd² does not, so M2 stays finite
        p = SystemParams(lam=1e-76, k=2.0, p_t=1.0, c=1.0)
        strat = _transmitting(lambda t, x: (t > 2 * CHUNK_STAGES) | (t == CHUNK_STAGES + 1), p)
        stats = estimate_conditional_stats(p, strat, 2 * CHUNK_STAGES + 2_000, RngHandle(2025, 45))
        assert stats.n_transmissions == 2_001
        for row in ("mse_tx", "mse_tx_pos", "mse_tx_neg", "power", "bias_tx"):
            assert 0.0 < getattr(stats, row).std_error < math.inf, row


class TestStageFold:
    """The stationarity check's per-stage shifted sums against exactly
    rounded moments: at horizon 100 a stage's shift is its mean over the 40
    episodes of the first block, and past CHUNK_STAGES it is episode 0's
    cost.  The offset decoder puts every cost near 1e8, against a spread
    near 1e4."""

    @pytest.mark.parametrize("strat", [OPTIMAL, _OffsetDecoder(REF, 0.0)],
                             ids=("optimal", "offset-decoder"))
    @pytest.mark.parametrize("horizon, episodes", [(100, 90), (CHUNK_STAGES + 17, 3)])
    def test_matches_fsum_moments(self, strat, horizon, episodes):
        report = stationarity_check(REF, strat, horizon, episodes, RngHandle(46))
        _assert_stage_moments(report, _stage_costs(REF, strat, horizon, episodes, RngHandle(46)))
