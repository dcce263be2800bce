import numpy as np
import pytest

from remest.distributions import LaplaceDist, RngHandle, sample_laplace
from remest.strategies import SystemParams, ThresholdAffineStrategy, payload_sign

from nonstationary import SwitchedThreshold

REF = SystemParams(lam=1.0, k=2.0, p_t=1.0, c=1.0)


def _one(strat, x, t=1):
    """Transmit decision for one stage."""
    return bool(strat.transmit(np.array([t]), np.array([x]))[0])


class TestSystemParams:
    def test_reference_derived_values(self):
        assert REF.theta == 1.0
        assert REF.alpha == 1.0
        assert REF.gamma == 0.5
        assert REF.m == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_theta_squares_back_to_power(self):
        for p_t in (0.25, 1.0, 2.0, 4.0, 7.3):
            p = SystemParams(lam=1.0, k=1.0, p_t=p_t, c=1.0)
            assert p.theta**2 == pytest.approx(p_t, rel=1e-15)

    def test_gamma_times_k_is_one(self):
        for k in (0.5, 1.0, 3.0, 5.0):
            p = SystemParams(lam=2.0, k=k, p_t=4.0, c=0.1)
            assert p.gamma * p.k == pytest.approx(1.0, rel=1e-15)

    def test_m_formula(self):
        p = SystemParams(lam=2.0, k=1.0, p_t=4.0, c=0.5)
        assert p.m == pytest.approx(0.125, rel=1e-15)

    @pytest.mark.parametrize("field", ["lam", "k", "p_t", "c"])
    def test_rejects_nonpositive(self, field):
        kwargs = {"lam": 1.0, "k": 1.0, "p_t": 1.0, "c": 1.0}
        kwargs[field] = 0.0
        with pytest.raises(ValueError, match=field):
            SystemParams(**kwargs)


class TestScheduler:
    def test_above_threshold_transmits(self):
        strat = ThresholdAffineStrategy(REF, 1.0)
        assert _one(strat, 1.5)
        assert _one(strat, -1.5)

    def test_inside_band_is_silent(self):
        assert not _one(ThresholdAffineStrategy(REF, 1.0), -0.5)

    def test_boundary_is_silent(self):
        strat = ThresholdAffineStrategy(REF, 1.0)
        assert not _one(strat, 1.0)
        assert not _one(strat, -1.0)

    def test_zero_threshold(self):
        strat = ThresholdAffineStrategy(REF, 0.0)
        assert not _one(strat, 0.0)
        assert _one(strat, 1e-12)

    def test_rejects_negative_beta(self):
        for beta in (-0.1, -np.inf, np.nan):  # NaN too: it compares false both ways
            with pytest.raises(ValueError):
                ThresholdAffineStrategy(REF, beta)


class TestEncoder:
    def test_example_values(self):
        strat = ThresholdAffineStrategy(REF, 1.0)
        y = strat.encode(np.ones(2), np.array([2.5, -2.5]))
        np.testing.assert_allclose(y, [0.5, 0.5], rtol=0.0, atol=1e-15)


class TestSideChannel:
    def test_sign_values(self):
        np.testing.assert_array_equal(payload_sign(np.array([-3.0, 2.0])), [-1, 1])

    def test_zero_payload_convention(self):
        assert payload_sign(0.0) == 1


class TestDecoder:
    def test_example_value(self):
        # gamma = 1/2 so the shrinkage factor is 1/3
        strat = ThresholdAffineStrategy(REF, 1.0)
        x_hat = strat.decode(np.ones(2), np.array([0.9, 0.9]), np.array([1, -1]))
        expected = 0.9 / 3.0 + 1.0 / 3.0 + 1.0
        np.testing.assert_allclose(x_hat, [expected, -expected], rtol=0.0, atol=1e-14)

    def test_odd_symmetry(self):
        strat = ThresholdAffineStrategy(REF, 0.7)
        y = np.linspace(-8.0, 8.0, 33)
        t = np.ones_like(y)
        pos = strat.decode(t, y, np.ones(y.shape, dtype=np.int8))
        neg = strat.decode(t, y, -np.ones(y.shape, dtype=np.int8))
        np.testing.assert_array_equal(neg, -pos)


def _transmitting_draws(params, beta, n, seed):
    src = LaplaceDist(0.0, 1.0 / params.lam)
    x = sample_laplace(src, RngHandle(seed), size=n)
    return x[np.abs(x) > beta]


class TestConditionalMoments:
    """Monte Carlo checks of the conditional algebra behind the affine coder."""

    def test_power_equality(self):
        # conditioned on transmission, E[Y^2] equals the budget exactly
        beta = 1.2909944487358056
        x = _transmitting_draws(REF, beta, 4_000_000, seed=31)
        y = ThresholdAffineStrategy(REF, beta).encode(1, x)
        sq = y**2
        se = sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(sq.mean() - REF.p_t) < 4.0 * se

    def test_power_equality_other_params(self):
        p = SystemParams(lam=2.0, k=1.0, p_t=4.0, c=0.5)
        beta = 0.6
        x = _transmitting_draws(p, beta, 2_000_000, seed=32)
        sq = ThresholdAffineStrategy(p, beta).encode(1, x) ** 2
        se = sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(sq.mean() - p.p_t) < 4.0 * se


class TestBaselines:
    def test_always_transmit_is_zero_threshold(self):
        strat = ThresholdAffineStrategy(REF, 0.0)
        t = np.arange(1, 6)
        x = np.array([0.1, -0.2, 3.0, -4.0, 0.5])
        assert strat.transmit(t, x).all()

    def test_never_transmit_is_infinite_threshold(self):
        x = np.array([0.0, 100.0, -100.0, 1e308, -np.inf])
        for strat in (ThresholdAffineStrategy(REF, np.inf),
                      SwitchedThreshold(REF, np.inf, switch_stage=1)):
            assert not strat.transmit(np.arange(1, 6), x).any()

    def test_noise_blind_inverts_encoder_exactly(self):
        strat = ThresholdAffineStrategy(REF, beta=1.0, matched=False)
        t = np.zeros(5)
        x = np.array([1.5, 2.5, -3.0, 7.0, -1.1])
        y = strat.encode(t, x)
        s = np.where(x >= 0.0, 1, -1)
        recovered = strat.decode(t, y, s)  # noiseless channel
        np.testing.assert_allclose(recovered, x, rtol=1e-12)


class TestSwitchedThreshold:
    def test_threshold_doubles_after_switch(self):
        strat = SwitchedThreshold(REF, beta=1.0, switch_stage=5)
        x = np.full(10, 1.5)
        t = np.arange(1, 11)
        u = strat.transmit(t, x)
        assert u[:5].all()  # |x| = 1.5 > 1.0
        assert not u[5:].any()  # 1.5 <= 2.0

    def test_coder_follows_the_active_threshold(self):
        strat = SwitchedThreshold(REF, beta=1.0, switch_stage=5)
        early = strat.encode(np.array([1]), np.array([3.0]))[0]
        late = strat.encode(np.array([9]), np.array([3.0]))[0]
        assert early == pytest.approx(1.0)  # 3 - 1 - 1
        assert late == pytest.approx(0.0)  # 3 - 2 - 1
        # decoded at the same stages, the shift is the active beta
        shrink = REF.gamma / (REF.gamma + 1.0)
        x_hat = strat.decode(np.array([1, 9]), np.array([0.0, 0.0]), np.array([1, 1]))
        np.testing.assert_allclose(x_hat, [shrink / REF.lam + 1.0, shrink / REF.lam + 2.0])
