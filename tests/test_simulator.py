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
    Moments,
    MonteCarloEstimate,
    estimate_conditional_stats,
    estimate_cost,
    run_episode,
    stationarity_check,
)
from remest.strategies import SystemParams, ThresholdAffineStrategy, payload_sign

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


class TestMoments:
    def test_merged_pieces_match_from_samples(self):
        x = np.random.default_rng(0).gamma(0.5, 3.0, size=10_001) + 1e3
        whole = MonteCarloEstimate.from_samples(x)
        acc = Moments()
        for piece in np.split(x, [0, 1, 7, 4_096, 4_097, 9_000]):
            acc = acc.merge(Moments.of(piece))
        merged = acc.estimate()
        assert merged.n == whole.n
        np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-12)
        np.testing.assert_allclose(merged.std_error, whole.std_error, rtol=1e-12)

    def test_per_column_moments(self):
        x = np.random.default_rng(1).laplace(size=(50, 3))
        acc = Moments.of(x[:20], axis=0).merge(Moments.of(x[20:], axis=0))
        np.testing.assert_allclose(acc.mean, x.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(acc.m2, x.var(axis=0) * 50, rtol=1e-12)


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
        source = LaplaceDist(0.0, 1.0 / REF.lam)
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
        switched = ThresholdAffineStrategy(REF, BETA_STAR, switch_stage=5)
        report = stationarity_check(REF, switched, 10, 20_000, RngHandle(2025, 8))
        assert not report.passed
        assert report.max_pairwise_z > 4.0

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
    source, noise = LaplaceDist(0.0, 1.0 / p.lam), GammaDist(p.k, p.theta)
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
            s_on = payload_sign(x[u]).astype(np.int8)
            x_hat[u] = strat.decode(t_on, y_on + v[u], s_on)
        cost = np.square(x - x_hat)
        np.add(cost, p.c, out=cost, where=u)
        yield r0, r1, c0, x, v, u, x_hat, y_on, s_on, cost


class TestTransmitSetKernel:
    """The kernel runs the policy on the transmit set only; every estimator
    and every trace column equals, bit for bit, what the plain full-array
    kernel gives on the same draws."""

    CASES = {
        "optimal": OPTIMAL,
        "beta-0": ThresholdAffineStrategy(REF, 0.0),
        "noise-blind": ThresholdAffineStrategy(REF, BETA_STAR, matched=False),
        "never": NEVER,
        "switched": ThresholdAffineStrategy(REF, BETA_STAR, switch_stage=50),
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
        pieces = {}
        for _, _, c0, *_, cost in _reference_blocks(REF, strat, horizon, episodes, RngHandle(32)):
            pieces[c0] = pieces.get(c0, Moments()).merge(Moments.of(cost, axis=0))
        means = np.concatenate([pieces[c0].mean for c0 in sorted(pieces)])
        m2 = np.concatenate([pieces[c0].m2 for c0 in sorted(pieces)])
        ses = np.sqrt(m2 / (episodes - 1)) / np.sqrt(episodes)
        max_z = max(
            float(np.max(np.abs(means[i:i + 1] - means[i + 1:])
                         / np.sqrt(ses[i:i + 1] ** 2 + ses[i + 1:] ** 2)))
            for i in range(horizon - 1)
        )
        report = stationarity_check(REF, strat, horizon, episodes, RngHandle(32))
        assert report.max_pairwise_z == max_z
        assert report.stage_means == tuple(
            MonteCarloEstimate(mean=float(m), std_error=float(se), n=episodes)
            for m, se in zip(means, ses)
        )

    def test_estimate_conditional_stats(self, case):
        strat, horizon, episodes = case
        stages = horizon * episodes
        acc = (Moments(),) * 6
        for _, _, _, x, v, u, x_hat, y_on, s_on, _ in _reference_blocks(
                REF, strat, stages, 1, RngHandle(33)):
            err = x_hat[u] - x[u]
            sq = np.square(err)
            pos = s_on == 1
            part = (Moments.of(sq), Moments.of(sq[pos]), Moments.of(sq[~pos]),
                    Moments.of(np.square(y_on)), Moments.of(u), Moments.of(err))
            acc = tuple(a.merge(b) for a, b in zip(acc, part))
        stats = estimate_conditional_stats(REF, strat, stages, RngHandle(33))
        assert stats.n_transmissions == acc[0].n
        assert stats.tx_frequency == acc[4].estimate()
        names = ("mse_tx", "mse_tx_pos", "mse_tx_neg", "power", "tx_frequency", "bias_tx")
        for name, moments in zip(names, acc):
            got = getattr(stats, name)
            assert got is None or got == moments.estimate(), name

    def test_one_pass_pools_the_cost_episodes(self, case):
        # estimate_cost(conditional=True): the conditional rows pool every
        # stage of the cost episodes' blocks, and the cost is unchanged
        strat, horizon, episodes = case
        stages = horizon * episodes
        totals = np.zeros(episodes)
        acc = (Moments(),) * 5
        for r0, r1, _, x, _, u, x_hat, y_on, s_on, cost in _reference_blocks(
                REF, strat, horizon, episodes, RngHandle(35)):
            totals[r0:r1] += cost.sum(axis=1)
            err = x_hat[u] - x[u]
            sq = np.square(err)
            pos = s_on == 1
            part = (Moments.of(sq), Moments.of(sq[pos]), Moments.of(sq[~pos]),
                    Moments.of(np.square(y_on)), Moments.of(err))
            acc = tuple(a.merge(b) for a, b in zip(acc, part))
        cost, stats = estimate_cost(REF, strat, horizon, episodes, RngHandle(35),
                                    conditional=True)
        assert cost == MonteCarloEstimate.from_samples(totals / horizon)
        assert cost == estimate_cost(REF, strat, horizon, episodes, RngHandle(35))
        # the transmit frequency from the exact count k of the stages
        k = acc[0].n
        assert stats.n_transmissions == k
        exact = Moments(stages, k / stages, k * (stages - k) / stages)
        assert stats.tx_frequency == exact.estimate()
        assert stats.tx_frequency.n == stages
        names = ("mse_tx", "mse_tx_pos", "mse_tx_neg", "power", "bias_tx")
        for name, moments in zip(names, acc):
            got = getattr(stats, name)
            assert got is None or got == moments.estimate(), name

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
