import tracemalloc

import numpy as np
import pytest

from remest.cli import CONFIG_FIELDS
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
    EMPIRICAL_MODULUS_FLOOR,
    MIN_SAMPLES,
    SAMPLE_CHUNK,
    Pair,
    _build_report,
    _mean_cf,
    check_matching,
    check_matching_empirical,
    pair,
)
from remest.strategies import SystemParams

REF = SystemParams(lam=1.0, k=2.0, p_t=1.0, c=1.0)
GRID = (-5.0, 5.0, 101)
OMEGA = np.linspace(*GRID)
SAMPLERS = {ExponentialDist: sample_exponential, GammaDist: sample_gamma,
            LaplaceDist: sample_laplace}


def gamma_power_closed_form(shape, scale, exponent, omega):
    """The gamma-th power of the centered-gamma CF with the exponent applied
    inside the closed form: (1 - j·w·scale)^(-shape·g) · exp(-j·w·shape·scale·g).

    Log(1 - j·w·scale) is principal-safe (real part is 1), so this is immune
    to branch wrapping and serves as the independent cross-check for
    ``matching._continuous_power``.
    """
    w = np.asarray(omega, dtype=np.float64)
    return np.exp(
        -shape * exponent * np.log(1.0 - 1j * w * scale)
        - 1j * w * shape * scale * exponent
    )


def _one_shot(pr, n, rng, noise_first=False):
    """One array of ``n`` draws per side of the pair from ``rng``, less the
    means when the pair is centered: the source first, unless ``noise_first``."""
    def draw(dist):
        x = SAMPLERS[type(dist)](dist, rng, size=n)
        return x - dist.mean if pr.centered else x

    if noise_first:
        noise = draw(pr.noise)
        return draw(pr.source), noise
    return draw(pr.source), draw(pr.noise)


def _report_of(pr, src, noise, grid=GRID):
    """The empirical report of one source and one noise array."""
    start, stop, points = grid
    lhs = _mean_cf([src], (pr.alpha * start, pr.alpha * stop, points))
    cf = _mean_cf([noise], grid)
    return _build_report(np.linspace(*grid), lhs, cf, pr.gamma,
                         np.abs(cf) >= EMPIRICAL_MODULUS_FLOOR)


class TestPair:
    def test_matched_pair_laws_and_gains(self):
        p = SystemParams(lam=0.5, k=4.0, p_t=9.0, c=1.0)
        assert pair(p, True) == Pair(ExponentialDist(0.5), GammaDist(4.0, 3.0), 1.5, 0.25, True)

    def test_unmatched_pair_laws_and_gains(self):
        p = SystemParams(lam=0.5, k=4.0, p_t=9.0, c=1.0)
        assert pair(p, False) == Pair(LaplaceDist(2.0), GammaDist(4.0, 3.0), 1.0, 1.0,
                                      False)

    def test_uncentered_lhs_is_the_laplace_cf_bit_for_bit(self):
        # centring by a zero mean would flip the sign of the zero imaginary parts
        for lam in (1.0, 0.5, 3.0):
            p = SystemParams(lam=lam, k=2.0, p_t=1.0, c=1.0)
            report = check_matching(pair(p, False), GRID)
            assert report.lhs.tobytes() == char_fn(LaplaceDist(1.0 / lam), OMEGA).tobytes()


class TestAnalyticMatching:
    def test_matched_pair_residual_is_roundoff(self):
        report = check_matching(pair(REF, True), GRID)
        assert report.reliable.all()
        assert report.max_residual < 1e-12

    def test_matched_pair_various_params(self):
        for lam, k, p_t in [(0.5, 0.5, 4.0), (2.0, 5.0, 0.25), (1.0, 1.0, 1.0)]:
            p = SystemParams(lam=lam, k=k, p_t=p_t, c=1.0)
            report = check_matching(pair(p, True), GRID)
            assert report.max_residual < 1e-12, (lam, k, p_t)

    def test_identity_pair_residual_exactly_zero(self):
        gam = GammaDist(2.0, 1.0)
        report = check_matching(Pair(gam, gam, 1.0, 1.0, True), GRID)
        assert np.all(report.residual == 0.0)
        assert report.max_residual == 0.0

    def test_unmatched_pair_residual_is_large(self):
        assert check_matching(pair(REF, False), GRID).max_residual > 0.1

    def test_gamma_power_two_ways_agree(self):
        # generic continuous-branch power vs the exponent pushed inside the
        # closed form (which never sees a branch cut)
        p = REF
        report = check_matching(pair(p, True), GRID)
        direct = gamma_power_closed_form(p.k, p.theta, p.gamma, report.omega)
        assert np.max(np.abs(report.rhs - direct)) < 1e-12

    def test_report_is_pure_and_a_descending_grid_is_rejected(self):
        a, other = check_matching(pair(REF, True), GRID), check_matching(pair(REF, True), GRID)
        for column in ("omega", "lhs", "rhs", "residual", "reliable"):
            np.testing.assert_array_equal(getattr(other, column), getattr(a, column))
        assert other.max_residual == a.max_residual
        np.testing.assert_array_equal(a.omega, OMEGA)
        for check in (lambda grid: check_matching(pair(REF, True), grid),
                      lambda grid: check_matching_empirical(pair(REF, True), grid, MIN_SAMPLES,
                                                            RngHandle(0))):
            for grid in ((5.0, -5.0, 101), (1.0, 1.0, 2)):
                with pytest.raises(ValueError, match="start < stop"):
                    check(grid)

    def test_vanishing_noise_cf_marked_unreliable(self):
        # noise CF is 0 at omega = 0: the power is undefined there
        omega = np.array([-1.0, 0.0, 1.0])
        noise = np.sin(omega).astype(complex)
        report = _build_report(omega, np.sin(omega + 1e-9).astype(complex), noise, 0.5,
                               np.abs(noise) > 0.0)
        assert report.omega[1] == 0.0
        assert report.reliable.tolist() == [True, False, True]
        assert np.isnan(report.residual[1])
        assert np.count_nonzero(~report.reliable) == 1
        assert np.isfinite(report.max_residual)


class TestEmpiricalMatching:
    def test_matched_samples_small_residual(self):
        report = check_matching_empirical(pair(REF, True), GRID, 10**6, RngHandle(777))
        assert report.reliable.all()
        assert report.max_residual < 0.02

    def test_degenerate_zero_samples(self):
        zeros = np.zeros(10_000)
        report = _report_of(Pair(None, None, 1.0, 0.5, False), zeros, zeros)
        assert report.max_residual == 0.0

    def test_mismatched_samples_large_residual(self):
        report = check_matching_empirical(pair(REF, False), GRID, 10**5, RngHandle(778))
        assert report.max_residual > 0.05

    def test_no_reliable_point_gives_null_maximum(self):
        # noise on {0, pi} in equal parts: its CF (1 + exp(j·pi·w))/2 vanishes at w = +-1
        noise = np.tile([0.0, np.pi], 5_000)
        report = _report_of(Pair(None, None, 1.0, 0.5, False), np.zeros(10_000), noise,
                            (-1.0, 1.0, 2))
        assert not report.reliable.any()
        assert np.isnan(report.max_residual)
        assert np.count_nonzero(~report.reliable) == 2
        assert np.isnan(report.residual).all() and np.isnan(report.rhs).all()
        assert report.lhs.real.tolist() == [1.0, 1.0]

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match=f"at least {MIN_SAMPLES}"):
            check_matching_empirical(pair(REF, True), GRID, MIN_SAMPLES - 1, RngHandle(0))

    def test_matches_analytic_cfs_closely(self):
        emp = check_matching_empirical(pair(REF, True), GRID, 200_000, RngHandle(12))
        ana = check_matching(pair(REF, True), GRID)
        assert np.max(np.abs(emp.lhs - ana.lhs)) < 0.02


class TestEmpiricalMatchingChunks:
    """Each side is drawn SAMPLE_CHUNK at a time; the chunk CFs are averaged."""

    N = 3 * SAMPLE_CHUNK + 4321  # three full chunks and a ragged one

    @staticmethod
    def _values(report):
        return np.stack([report.lhs, report.rhs], axis=1)

    @pytest.mark.parametrize("matched", [True, False], ids=["matched", "unmatched"])
    def test_chunks_equal_one_array(self, matched):
        pr = pair(REF, matched)
        chunked = check_matching_empirical(pr, GRID, self.N, RngHandle(31))
        whole = _report_of(pr, *_one_shot(pr, self.N, RngHandle(31)))
        np.testing.assert_allclose(self._values(chunked), self._values(whole),
                                   rtol=0.0, atol=1e-14)
        assert abs(chunked.max_residual - whole.max_residual) <= 1e-14

    def test_one_chunk_is_the_cf_of_the_array(self):
        pr = pair(REF, False)  # unit gains: the lhs and rhs are the two CFs as they are
        report = check_matching_empirical(pr, GRID, SAMPLE_CHUNK, RngHandle(32))
        src, noise = _one_shot(pr, SAMPLE_CHUNK, RngHandle(32))
        assert report.lhs.tobytes() == empirical_char_fn(src, *GRID).tobytes()
        assert report.rhs.tobytes() == empirical_char_fn(noise, *GRID).tobytes()
        assert _mean_cf([src], GRID).tobytes() == empirical_char_fn(src, *GRID).tobytes()

    def test_source_chunks_are_drawn_before_noise_chunks(self):
        pr = pair(REF, True)
        lazy = self._values(check_matching_empirical(pr, GRID, self.N, RngHandle(33)))
        in_order = self._values(_report_of(pr, *_one_shot(pr, self.N, RngHandle(33))))
        swapped = _one_shot(pr, self.N, RngHandle(33), noise_first=True)
        np.testing.assert_allclose(lazy, in_order, rtol=0.0, atol=1e-14)
        assert np.max(np.abs(lazy - self._values(_report_of(pr, *swapped)))) > 1e-6

    def test_sample_count_is_summed_over_chunks(self):
        # each chunk's weight is its size over the count so far
        x = sample_gamma(GammaDist(2.0, 1.0), RngHandle(34), size=12_000)
        ragged = _mean_cf([x[:4_000], x[4_000:5_000], x[5_000:]], GRID)
        np.testing.assert_allclose(ragged, empirical_char_fn(x, *GRID), rtol=0.0, atol=1e-14)


class TestEmpiricalMatchingMemory:
    def test_a_warm_run_holds_one_chunk_and_no_cf_blocks(self):
        # the CF keeps its baby, giant and leap rows (544 KiB) from the first
        # run, and a chunk is dropped before the next is drawn, so a warm
        # run's peak is one chunk and a few small arrays
        two_chunks = 2 * SAMPLE_CHUNK * 8  # bytes

        def peak():
            tracemalloc.start()
            try:
                check_matching_empirical(pair(REF, True), GRID, 2**20, RngHandle(36))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak()  # the first run makes the rows
        warm = peak()
        assert warm < two_chunks, warm


class TestEmpiricalModulusFloor:
    """With k = 5 the noise CF modulus (1 + w²)^(-5/2) lies between 3e-3 and
    6e-3 at 2.6 <= |w| <= 3.0 on the default grid, and falls below 1e-3 from
    |w| of about 3.85."""

    def test_points_are_unreliable_exactly_below_1e_3(self):
        pr = pair(SystemParams(lam=1.0, k=5.0, p_t=1.0, c=1.0), True)
        report = check_matching_empirical(pr, GRID, 10**6, RngHandle(35))
        band = (np.abs(OMEGA) > 2.55) & (np.abs(OMEGA) < 3.05)
        assert np.count_nonzero(band) == 10
        analytic = np.abs(char_fn(pr.noise, OMEGA[band]))
        assert ((analytic > 3e-3) & (analytic < 6e-3)).all()
        assert report.reliable[band].all()
        _, noise = _one_shot(pr, 10**6, RngHandle(35))
        modulus = np.abs(empirical_char_fn(noise, *GRID))
        assert np.count_nonzero(~report.reliable) == np.count_nonzero(modulus < 1e-3) > 0


class TestCenteredCfs:
    def test_centered_exponential_has_zero_mean_slope(self):
        h = 1e-6
        report = check_matching(pair(SystemParams(lam=2.0, k=2.0, p_t=1.0, c=1.0), True),
                                (-h, h, 2))
        deriv = (report.lhs[1] - report.lhs[0]) / (2.0 * h)
        assert abs(deriv.imag) < 1e-6  # E of centered variable is 0

    def test_centered_gamma_matches_shifted_analytic(self):
        # k = 1: gamma = 1, so the rhs is the centered noise CF as it is
        w = np.linspace(-3.0, 3.0, 13)
        report = check_matching(pair(SystemParams(lam=1.0, k=1.0, p_t=2.25, c=1.0), True),
                                (-3.0, 3.0, 13))
        expected = char_fn(GammaDist(1.0, 1.5), w) * np.exp(-1j * w * 1.5)
        np.testing.assert_allclose(report.rhs, expected, rtol=1e-14)


class TestReportSerialization:
    def test_default_grid_shape(self):
        # the one default grid is the verify-matching config's
        grid = np.linspace(*(CONFIG_FIELDS[key].default
                             for key in ("omega_min", "omega_max", "omega_points")))
        assert grid.size == 101
        assert grid[0] == -5.0
        assert grid[-1] == 5.0
        np.testing.assert_array_equal(grid, OMEGA)
