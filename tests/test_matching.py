import numpy as np
import pytest

from remest.distributions import (
    ExponentialDist,
    GammaDist,
    LaplaceDist,
    RngHandle,
    char_fn,
    empirical_char_fn,
    sample_exponential,
    sample_gamma,
    sample_laplace,
)
from remest.matching import (
    DEFAULT_OMEGA_GRID,
    MatchSpec,
    centered_exponential_cf,
    centered_gamma_cf,
    check_matching,
    check_matching_empirical,
    gamma_power_closed_form,
    matched_pair_spec,
)
from remest.strategies import SystemParams

REF = SystemParams(lam=1.0, k=2.0, p_t=1.0, c=1.0)


def _centered_pair_samples(params, n, seed=777):
    rng = RngHandle(seed)
    src = sample_exponential(ExponentialDist(params.lam), rng, size=n) - 1.0 / params.lam
    noise = (
        sample_gamma(GammaDist(params.k, params.theta), rng, size=n)
        - params.k * params.theta
    )
    return src, noise


class TestMatchSpecValidation:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            MatchSpec(lambda w: w, lambda w: w, alpha=0.0, gamma=1.0, omega_grid=(1.0,))

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            MatchSpec(lambda w: w, lambda w: w, alpha=1.0, gamma=-1.0, omega_grid=(1.0,))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            MatchSpec(lambda w: w, lambda w: w, alpha=1.0, gamma=1.0, omega_grid=())

    def test_rejects_nonfinite_grid(self):
        with pytest.raises(ValueError):
            MatchSpec(lambda w: w, lambda w: w, alpha=1.0, gamma=1.0,
                      omega_grid=(0.0, float("inf")))

    def test_cf_must_return_one_value_per_point(self):
        # a CF is called once on the whole grid; a scalar answer is an error
        spec = MatchSpec(lambda w: 1.0 + 0j, centered_gamma_cf(2.0, 1.0), alpha=1.0, gamma=1.0,
                         omega_grid=(-1.0, 0.0, 1.0))
        with pytest.raises(ValueError, match=r"got shape \(\)"):
            check_matching(spec)


class TestAnalyticMatching:
    def test_matched_pair_residual_is_roundoff(self):
        report = check_matching(matched_pair_spec(REF))
        assert report.reliable.all()
        assert report.max_residual < 1e-12

    def test_matched_pair_various_params(self):
        for lam, k, p_t in [(0.5, 0.5, 4.0), (2.0, 5.0, 0.25), (1.0, 1.0, 1.0)]:
            p = SystemParams(lam=lam, k=k, p_t=p_t, c=1.0)
            report = check_matching(matched_pair_spec(p))
            assert report.max_residual < 1e-12, (lam, k, p_t)

    def test_identity_pair_residual_exactly_zero(self):
        cf = centered_gamma_cf(2.0, 1.0)
        spec = MatchSpec(source_cf=cf, noise_cf=cf, alpha=1.0, gamma=1.0)
        report = check_matching(spec)
        assert np.all(report.residual == 0.0)
        assert report.max_residual == 0.0

    def test_unmatched_pair_residual_is_large(self):
        lap = LaplaceDist(0.0, 1.0)
        gam = GammaDist(2.0, 1.0)
        spec = MatchSpec(
            source_cf=lambda w: char_fn(lap, w),
            noise_cf=lambda w: char_fn(gam, w),
            alpha=1.0,
            gamma=1.0,
        )
        assert check_matching(spec).max_residual > 0.1

    def test_gamma_power_two_ways_agree(self):
        # generic continuous-branch power vs the exponent pushed inside the
        # closed form (which never sees a branch cut)
        p = REF
        report = check_matching(matched_pair_spec(p))
        direct = gamma_power_closed_form(p.k, p.theta, p.gamma, report.omega)
        assert np.max(np.abs(report.rhs - direct)) < 1e-12

    def test_report_is_pure_and_grid_order_invariant(self):
        spec = matched_pair_spec(REF)
        shuffled = MatchSpec(
            source_cf=spec.source_cf,
            noise_cf=spec.noise_cf,
            alpha=spec.alpha,
            gamma=spec.gamma,
            omega_grid=tuple(reversed(spec.omega_grid)),
        )
        a = check_matching(spec)
        for other in (check_matching(spec), check_matching(shuffled)):
            for column in ("omega", "lhs", "rhs", "residual", "reliable"):
                np.testing.assert_array_equal(getattr(other, column), getattr(a, column))
            assert other.max_residual == a.max_residual

    def test_vanishing_noise_cf_marked_unreliable(self):
        # noise CF is 0 at omega = 0: the power is undefined there
        spec = MatchSpec(
            source_cf=lambda w: np.asarray(np.sin(np.asarray(w) + 1e-9), dtype=complex),
            noise_cf=lambda w: np.asarray(np.sin(np.asarray(w)), dtype=complex),
            alpha=1.0,
            gamma=0.5,
            omega_grid=(-1.0, 0.0, 1.0),
        )
        report = check_matching(spec)
        assert report.omega[1] == 0.0
        assert report.reliable.tolist() == [True, False, True]
        assert np.isnan(report.residual[1])
        assert np.count_nonzero(~report.reliable) == 1
        assert np.isfinite(report.max_residual)


class TestEmpiricalMatching:
    def test_matched_samples_small_residual(self):
        src, noise = _centered_pair_samples(REF, 10**6)
        report = check_matching_empirical([src], [noise], REF.alpha, REF.gamma)
        assert report.reliable.all()
        assert report.max_residual < 0.02

    def test_degenerate_zero_samples(self):
        zeros = np.zeros(10_000)
        report = check_matching_empirical([zeros], [zeros], 1.0, 0.5)
        assert report.max_residual == 0.0

    def test_mismatched_samples_large_residual(self):
        rng = RngHandle(778)
        src = sample_laplace(LaplaceDist(0.0, 1.0), rng, size=10**5)
        noise = sample_gamma(GammaDist(2.0, 1.0), rng, size=10**5)
        report = check_matching_empirical([src], [noise], 1.0, 1.0)
        assert report.max_residual > 0.05

    def test_no_reliable_point_gives_null_maximum(self):
        # noise on {0, pi} in equal parts: its CF (1 + exp(j·pi·w))/2 vanishes at w = +-1
        noise = np.tile([0.0, np.pi], 5_000)
        report = check_matching_empirical([np.zeros(10_000)], [noise], 1.0, 0.5, (-1.0, 1.0))
        assert not report.reliable.any()
        assert np.isnan(report.max_residual)
        assert np.count_nonzero(~report.reliable) == 2
        assert np.isnan(report.residual).all() and np.isnan(report.rhs).all()
        assert report.lhs.real.tolist() == [1.0, 1.0]

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            check_matching_empirical([np.zeros(100)], [np.zeros(100)], 1.0, 1.0)

    def test_matches_analytic_cfs_closely(self):
        src, noise = _centered_pair_samples(REF, 200_000, seed=12)
        emp = check_matching_empirical([src], [noise], REF.alpha, REF.gamma)
        ana = check_matching(matched_pair_spec(REF))
        assert np.max(np.abs(emp.lhs - ana.lhs)) < 0.02


class TestEmpiricalMatchingChunks:
    """Each side is an iterable of 1-D chunks; the chunk CFs are averaged."""

    N = 3 * 2**16 + 4321
    CUTS = (2**16, 2 * 2**16, 3 * 2**16)  # three full chunks and a ragged one

    @staticmethod
    def _values(report):
        return np.stack([report.lhs, report.rhs], axis=1)

    @pytest.mark.parametrize("pair", ["matched", "unmatched"])
    def test_chunks_equal_one_array(self, pair):
        if pair == "matched":
            src, noise = _centered_pair_samples(REF, self.N, seed=31)
            alpha, gamma = REF.alpha, REF.gamma
        else:
            rng = RngHandle(31)
            src = sample_laplace(LaplaceDist(0.0, 1.0), rng, size=self.N)
            noise = sample_gamma(GammaDist(2.0, 1.0), rng, size=self.N)
            alpha, gamma = 1.0, 1.0
        whole = check_matching_empirical([src], [noise], alpha, gamma)
        chunked = check_matching_empirical(np.split(src, self.CUTS), np.split(noise, self.CUTS),
                                           alpha, gamma)
        np.testing.assert_allclose(self._values(chunked), self._values(whole),
                                   rtol=0.0, atol=1e-14)
        assert abs(chunked.max_residual - whole.max_residual) <= 1e-14

    def test_one_chunk_is_the_cf_of_the_array(self):
        rng = RngHandle(32)
        src = sample_laplace(LaplaceDist(0.0, 1.0), rng, size=50_000)
        noise = sample_gamma(GammaDist(2.0, 1.0), rng, size=50_000)
        omega = np.asarray(DEFAULT_OMEGA_GRID)
        report = check_matching_empirical([src], [noise], 0.5, 1.0)
        lhs, rhs = self._values(report).T
        assert lhs.tobytes() == empirical_char_fn(src, 0.5 * omega).tobytes()
        assert rhs.tobytes() == empirical_char_fn(noise, omega).tobytes()

    def test_source_chunks_are_drawn_before_noise_chunks(self):
        # two generators on one handle draw what one-shot arrays draw
        src, noise = _centered_pair_samples(REF, self.N, seed=33)
        rng = RngHandle(33)

        def draws(sample, dist, shift):
            for lo in range(0, self.N, 2**16):
                yield sample(dist, rng, size=min(2**16, self.N - lo)) - shift

        lazy = check_matching_empirical(
            draws(sample_exponential, ExponentialDist(REF.lam), 1.0 / REF.lam),
            draws(sample_gamma, GammaDist(REF.k, REF.theta), REF.k * REF.theta),
            REF.alpha, REF.gamma)
        whole = check_matching_empirical([src], [noise], REF.alpha, REF.gamma)
        np.testing.assert_allclose(self._values(lazy), self._values(whole),
                                   rtol=0.0, atol=1e-14)

    def test_bare_array_rejected(self):
        x = np.zeros(10_000)
        with pytest.raises(TypeError, match=r"\[array\]"):
            check_matching_empirical(x, [x], 1.0, 1.0)
        with pytest.raises(TypeError, match=r"\[array\]"):
            check_matching_empirical([x], x, 1.0, 1.0)

    def test_chunk_must_be_1d(self):
        x = np.zeros(10_000)
        with pytest.raises(TypeError, match="1-D"):
            check_matching_empirical([x.reshape(100, 100)], [x], 1.0, 1.0)
        with pytest.raises(TypeError, match="1-D"):
            check_matching_empirical(list(x), [x], 1.0, 1.0)

    def test_sample_count_is_summed_over_chunks(self):
        x = np.zeros(4_000)
        with pytest.raises(ValueError, match="12000 source and 8000 noise"):
            check_matching_empirical([x, x, x], [x, x, np.empty(0)], 1.0, 1.0)
        report = check_matching_empirical([x, x, x], [x, x, x], 1.0, 1.0)
        assert report.max_residual == 0.0


class TestCenteredCfs:
    def test_centered_exponential_has_zero_mean_slope(self):
        cf = centered_exponential_cf(2.0)
        h = 1e-6
        deriv = (cf(h) - cf(-h)) / (2.0 * h)
        assert abs(deriv.imag) < 1e-6  # E of centered variable is 0

    def test_centered_gamma_matches_shifted_analytic(self):
        cf = centered_gamma_cf(2.0, 1.5)
        w = np.linspace(-3.0, 3.0, 13)
        expected = char_fn(GammaDist(2.0, 1.5), w) * np.exp(-1j * w * 3.0)
        np.testing.assert_allclose(cf(w), expected, rtol=1e-14)


class TestReportSerialization:
    def test_default_grid_shape(self):
        assert len(DEFAULT_OMEGA_GRID) == 101
        assert DEFAULT_OMEGA_GRID[0] == -5.0
        assert DEFAULT_OMEGA_GRID[-1] == 5.0
