import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from remest.distributions import (
    CF_BLOCK,
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
from remest.distributions import _cis
from remest.matching import SAMPLE_CHUNK

N = 10**6


class TestValidation:
    def test_laplace_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            LaplaceDist(0.0)
        with pytest.raises(ValueError):
            LaplaceDist(-1.0)
        with pytest.raises(ValueError):
            LaplaceDist(float("nan"))

    def test_exponential_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ExponentialDist(0.0)

    def test_gamma_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GammaDist(0.0, 1.0)
        with pytest.raises(ValueError):
            GammaDist(2.0, float("inf"))

    def test_rng_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            RngHandle(-1)
        with pytest.raises(ValueError):
            RngHandle(3, -2)

    def test_rng_rejects_ids_from_2_32(self):
        # SeedSequence splits larger integers into 32-bit words, so these
        # keys would repeat the draws of (seed 0, stream 1) and path (0, 1)
        with pytest.raises(ValueError, match="2\\^32"):
            RngHandle(2**32)
        with pytest.raises(ValueError, match="2\\^32"):
            RngHandle(0, 2**32)
        with pytest.raises(ValueError, match="2\\^32"):
            RngHandle(0).substream(2**32)


class TestRngHandle:
    def test_same_key_is_bitwise_identical(self):
        a = sample_laplace(LaplaceDist(1.0), RngHandle(99, 4), size=10_000)
        b = sample_laplace(LaplaceDist(1.0), RngHandle(99, 4), size=10_000)
        assert np.array_equal(a, b)
        g1 = sample_gamma(GammaDist(2.0, 1.0), RngHandle(99, 4), size=10_000)
        g2 = sample_gamma(GammaDist(2.0, 1.0), RngHandle(99, 4), size=10_000)
        assert np.array_equal(g1, g2)

    def test_streams_are_independent(self):
        a = sample_laplace(LaplaceDist(1.0), RngHandle(99, 0), size=1_000)
        b = sample_laplace(LaplaceDist(1.0), RngHandle(99, 1), size=1_000)
        assert not np.array_equal(a, b)

    def test_substream_deterministic(self):
        a = RngHandle(7).substream(3).generator.random(100)
        b = RngHandle(7).substream(3).generator.random(100)
        c = RngHandle(7).substream(4).generator.random(100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_substream_keys_do_not_collide(self):
        # a path is a spawn key: SeedSequence zero-pads short entropy, so a
        # path keyed as entropy would repeat its parent's or its prefix's draws
        draw = lambda h: h.generator.random(64)
        root = RngHandle(7)
        assert not np.array_equal(draw(root.substream(0)), draw(RngHandle(7)))
        assert not np.array_equal(draw(RngHandle(7, 0, (5,))), draw(RngHandle(7, 0, (5, 0))))
        assert not np.array_equal(draw(root.substream(40)), draw(root.substream(40).substream(0)))

    def test_root_handle_draws_unchanged_by_keying(self):
        ss = np.random.SeedSequence([7, 3])
        expected = np.random.Generator(np.random.PCG64(ss)).random(8)
        assert np.array_equal(RngHandle(7, 3).generator.random(8), expected)

    @pytest.mark.parametrize("key", [0, 2**32 - 1])
    def test_state_equals_the_list_keyed_seed_sequence(self, key):
        ss = np.random.SeedSequence([key, key], spawn_key=(key, key))
        expected = np.random.Generator(np.random.PCG64(ss)).bit_generator.state
        handle = RngHandle(key, key).substream(key).substream(key)
        assert handle.generator.bit_generator.state == expected

    def test_largest_ids_keep_their_draws(self):
        top = 2**32 - 1
        expected = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([top, top], spawn_key=(top,)))
        ).random(8)
        assert np.array_equal(RngHandle(top, top).substream(top).generator.random(8), expected)


class TestLaplaceSampling:
    def test_mean_at_unit_rate(self):
        d = LaplaceDist(1.0)
        x = sample_laplace(d, RngHandle(2024, 1), size=N)
        assert abs(x.mean()) < 0.005  # std error sqrt(2)/1e3

    def test_variance_at_rate_two(self):
        d = LaplaceDist(0.5)  # rate 2 -> variance 2/4 = 0.5
        x = sample_laplace(d, RngHandle(2024, 2), size=N)
        assert x.var(ddof=1) == pytest.approx(0.5, rel=0.02)

    def test_sign_symmetry(self):
        x = sample_laplace(LaplaceDist(1.0), RngHandle(2024, 3), size=N)
        assert abs((x > 0).mean() - 0.5) < 0.002

    def test_ks_against_scipy_cdf(self):
        x = sample_laplace(LaplaceDist(1.0), RngHandle(2024, 4), size=N)
        ks = stats.kstest(x, stats.laplace(loc=0.0, scale=1.0).cdf)
        assert ks.statistic < 0.002


# PCG64's multiplier; a state is stepped as state·M + inc before each output
PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def _zero_after(handle: RngHandle, ahead: int) -> RngHandle:
    """``handle`` set so that its (ahead + 1)-th ``random()`` draw is exactly 0.

    PCG64 outputs the xor of the high and low words of the stepped state,
    rotated, so a stepped state with equal words outputs 0."""
    bits = handle.generator.bit_generator
    state = bits.state
    target = (0x5EED << 64) | 0x5EED
    inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)
    state["state"]["state"] = (target - state["state"]["inc"]) * inverse % (1 << 128)
    bits.state = state
    bits.advance(-ahead)
    return handle


class TestLaplaceInverseCdf:
    """sample_laplace applies Generator.laplace's inverse CDF to
    Generator.random's uniforms, vectorized."""

    @pytest.mark.parametrize("size", [1, 4096, 100_000])
    @pytest.mark.parametrize("loc, scale", [(0.0, 1.0), (-1.5, 0.37)], ids=["unit", "shifted"])
    def test_same_state_and_values_as_numpy(self, loc, scale, size):
        # the law is centred; a caller shifts its draws by adding a location
        ours, theirs = RngHandle(2024, 7), RngHandle(2024, 7)
        x = loc + sample_laplace(LaplaceDist(scale), ours, size=size)
        y = theirs.generator.laplace(loc, scale, size)
        assert ours.generator.bit_generator.state == theirs.generator.bit_generator.state
        assert x.shape == (size,)
        np.testing.assert_allclose(x, y, rtol=1e-10, atol=0.0)

    def test_inverse_cdf_of_the_same_uniforms_bit_for_bit(self):
        # scipy's ppf takes log(2u) or -log(2(1 - u)), exact arguments as here
        d = LaplaceDist(1.7)
        u = RngHandle(2024, 8).generator.random(100_000)
        x = sample_laplace(d, RngHandle(2024, 8), size=u.size)
        assert np.array_equal(x, d.scale * stats.laplace.ppf(u))

    @pytest.mark.parametrize("size, ahead", [(1, 0), (5, 0), (5, 3), (4096, 4095)])
    def test_a_zero_uniform_is_redrawn_as_numpy_does(self, size, ahead):
        d = LaplaceDist(2.0)
        ours = _zero_after(RngHandle(2024, 9), ahead)
        theirs = _zero_after(RngHandle(2024, 9), ahead)
        assert _zero_after(RngHandle(2024, 9), ahead).generator.random(ahead + 1)[-1] == 0.0
        x = sample_laplace(d, ours, size=size)
        y = theirs.generator.laplace(0.0, d.scale, size)
        assert np.all(np.isfinite(x))
        assert ours.generator.bit_generator.state == theirs.generator.bit_generator.state
        np.testing.assert_allclose(x, y, rtol=1e-10, atol=0.0)


class TestGammaSampling:
    def test_moments_shape_two(self):
        x = sample_gamma(GammaDist(2.0, 1.0), RngHandle(2024, 5), size=N)
        assert x.mean() == pytest.approx(2.0, rel=0.01)
        assert x.var(ddof=1) == pytest.approx(2.0, rel=0.02)
        assert np.all(x >= 0.0)

    def test_shape_one_is_exponential(self):
        x = sample_gamma(GammaDist(1.0, 1.0), RngHandle(2024, 6), size=N)
        ks = stats.kstest(x, stats.expon(scale=1.0).cdf)
        assert ks.statistic < 0.002

    def test_fractional_shape_below_one(self):
        d = GammaDist(0.5, 2.0)
        x = sample_gamma(d, RngHandle(2024, 7), size=N)
        assert x.mean() == pytest.approx(d.mean, rel=0.01)
        assert x.var(ddof=1) == pytest.approx(d.shape * d.scale**2, rel=0.02)
        ks = stats.kstest(x, stats.gamma(0.5, scale=2.0).cdf)
        assert ks.statistic < 0.002

    def test_fractional_shape_above_one(self):
        d = GammaDist(2.7, 0.3)
        x = sample_gamma(d, RngHandle(2024, 8), size=200_000)
        assert x.mean() == pytest.approx(d.mean, rel=0.02)
        ks = stats.kstest(x, stats.gamma(2.7, scale=0.3).cdf)
        assert ks.statistic < 0.005


class TestExponentialSampling:
    def test_moments(self):
        d = ExponentialDist(1.5)
        x = sample_exponential(d, RngHandle(2024, 9), size=N)
        assert x.mean() == pytest.approx(d.mean, rel=0.01)
        assert x.var(ddof=1) == pytest.approx(1.0 / d.rate**2, rel=0.02)


class TestCharFn:
    def test_unity_at_origin(self):
        for d in (LaplaceDist(1.0), ExponentialDist(2.0), GammaDist(2.0, 1.0)):
            assert char_fn(d, 0.0) == 1.0 + 0.0j

    def test_gamma_closed_value(self):
        # (1 - j)^-2 = j/2
        assert char_fn(GammaDist(2.0, 1.0), 1.0) == pytest.approx(0.5j, abs=1e-15)

    def test_laplace_closed_value(self):
        assert char_fn(LaplaceDist(1.0), 1.0) == pytest.approx(0.5 + 0.0j, abs=1e-15)

    def test_exponential_formula(self):
        w = np.linspace(-4.0, 4.0, 17)
        np.testing.assert_allclose(
            char_fn(ExponentialDist(3.0), w), 1.0 / (1.0 - 1j * w / 3.0), rtol=1e-14
        )

    @pytest.mark.parametrize("scale", [0.7, 2.5])
    def test_laplace_is_the_fourier_integral_of_its_density(self, scale):
        # the density e^(-|x|/b)/(2b) is even: phi(w) = integral over x > 0 of cos(w·x)·e^(-x/b)/b
        w = np.array([0.0, 0.3, 1.0, 2.2, 7.5])
        want = [integrate.quad(lambda x: np.exp(-x / scale) / scale, 0.0, np.inf,
                               weight="cos", wvar=wi)[0] for wi in w]
        np.testing.assert_allclose(char_fn(LaplaceDist(scale), w), want, rtol=1e-8, atol=0.0)

    def test_conjugate_symmetry(self):
        w = np.linspace(0.1, 5.0, 20)
        for d in (LaplaceDist(0.7), ExponentialDist(1.2), GammaDist(1.7, 0.9)):
            np.testing.assert_allclose(char_fn(d, -w), np.conj(char_fn(d, w)), rtol=1e-14)


class TestMomentMatch:
    # each mean and variance in closed form: 0 and 2·b², 1/rate and
    # 1/rate², k·theta and k·theta²
    @pytest.mark.parametrize(
        "dist,sampler,mean,variance",
        [
            (LaplaceDist(1.0), sample_laplace, 0.0, 2.0),
            (ExponentialDist(1.0), sample_exponential, 1.0, 1.0),
            (GammaDist(2.0, 1.0), sample_gamma, 2.0, 2.0),
        ],
        ids=["laplace", "exponential", "gamma"],
    )
    def test_mean_and_variance_within_4se(self, dist, sampler, mean, variance):
        x = sampler(dist, RngHandle(555, 0), size=N)
        se_mean = x.std(ddof=1) / np.sqrt(N)
        assert abs(x.mean() - mean) < 4.0 * se_mean
        centered_sq = (x - x.mean()) ** 2
        se_var = centered_sq.std(ddof=1) / np.sqrt(N)
        assert abs(x.var(ddof=1) - variance) < 4.0 * se_var


class TestEmpiricalCharFn:
    def test_degenerate_samples(self):
        np.testing.assert_array_equal(empirical_char_fn([0.0, 0.0, 0.0], 3.7, 4.2, 2), 1.0)

    def test_single_sample(self):
        x, w = 1.3, np.array([-2.1, 0.4])
        np.testing.assert_allclose(empirical_char_fn([x], -2.1, 0.4, 2), np.exp(1j * w * x), rtol=0,
                                   atol=1e-15)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_char_fn([], -1.0, 1.0, 3)

    def test_gamma_draws_close_to_analytic(self):
        d = GammaDist(2.0, 1.0)
        x = sample_gamma(d, RngHandle(2024, 10), size=N)
        est, exact = empirical_char_fn(x, 0.5, 1.0, 2), char_fn(d, np.array([0.5, 1.0]))
        assert np.abs(np.abs(est) - np.abs(exact)).max() < 0.005
        assert np.abs(np.angle(est) - np.angle(exact)).max() < 0.005

    def test_uniform_grid_fast_path_matches_pointwise(self):
        rng = RngHandle(11)
        x = sample_laplace(LaplaceDist(1.0), rng, size=10_000)
        grid = (-5.0, 5.0, 51)
        np.testing.assert_allclose(empirical_char_fn(x, *grid),
                                   _direct_cf(x, np.linspace(*grid)), atol=1e-12)

    @pytest.mark.parametrize(
        "dist,sampler",
        [
            (LaplaceDist(1.0), sample_laplace),
            (ExponentialDist(1.0), sample_exponential),
            (GammaDist(2.0, 1.0), sample_gamma),
        ],
        ids=["laplace", "exponential", "gamma"],
    )
    def test_cf_consistency_on_grid(self, dist, sampler):
        # |empirical - analytic| <= 5/sqrt(N) uniformly on a 51-point grid
        x = sampler(dist, RngHandle(321, 0), size=N)
        grid = np.linspace(-5.0, 5.0, 51)
        gap = np.abs(empirical_char_fn(x, -5.0, 5.0, 51) - char_fn(dist, grid))
        assert gap.max() <= 5.0 / np.sqrt(N)


class TestGridRules:
    """The empirical CF takes the grid np.linspace(start, stop, points) with
    finite ends and at least 2 points."""

    @pytest.mark.parametrize("grid", [(-1.0, np.inf, 3), (np.nan, 1.0, 3), (-1.0, 1.0, 1)],
                             ids=["inf", "nan", "one-point"])
    def test_rejects_what_is_not_a_uniform_grid(self, grid):
        with pytest.raises(ValueError, match="finite ends and at least 2 points"):
            empirical_char_fn(np.ones(5), *grid)


def _direct_cf(x, omega):
    """Reference: the cos and sin means at each point, one point at a time."""
    return np.array([complex(np.cos(w * x).mean(), np.sin(w * x).mean()) for w in omega])


class TestRotation:
    """``_cis`` builds exp(j·t) from one tan of t/2; it must match libm's
    cos and sin over the whole float range, including where tan(t/2) is
    near its poles."""

    @staticmethod
    def _max_error(t):
        z = _cis(1.0, t, np.empty(t.shape, dtype=np.complex128))
        assert np.isfinite(z).all()
        return max(np.abs(z.real - np.cos(t)).max(), np.abs(z.imag - np.sin(t)).max())

    def test_matches_cos_and_sin_from_tiny_to_huge_arguments(self):
        mag = np.logspace(-300.0, 300.0, 6001)
        assert self._max_error(np.concatenate([mag, -mag])) <= 1e-15

    def test_matches_cos_and_sin_next_to_odd_multiples_of_pi(self):
        odd = np.pi * (2.0 * np.arange(-5000, 5000) + 1.0)
        t = np.concatenate([odd, np.nextafter(odd, np.inf), np.nextafter(odd, -np.inf)])
        assert np.abs(np.tan(t / 2.0)).max() > 1e16  # the half-angle tangent is near a pole
        assert self._max_error(t) <= 1e-15

    def test_exact_at_zero(self):
        z = _cis(1.0, np.zeros(3), np.empty(3, dtype=np.complex128))
        np.testing.assert_array_equal(z.real, 1.0)
        np.testing.assert_array_equal(z.imag, 0.0)

    def test_degenerate_samples_on_a_uniform_grid(self):
        np.testing.assert_array_equal(
            empirical_char_fn([0.0, 0.0, 0.0], -5.0, 5.0, 101), 1.0)


class TestBlockedCharFn:
    """The blocked kernel against direct cos/sin means, on a sample count
    spanning three whole blocks and a ragged tail."""

    N = 3 * CF_BLOCK + 17

    @pytest.fixture(scope="class")
    def x(self):
        return sample_laplace(LaplaceDist(1.0), RngHandle(12), size=self.N) + 0.3

    @pytest.mark.parametrize(
        "grid",
        [
            (-5.0, 5.0, 101),
            (-5.0, 5.0, 100),
            (-2.0, 7.0, 40),
            (5.0, -5.0, 101),
            (-50.0, 50.0, 101),
            (-1.0, 2.0, 2),
            (-2.0, 2.0, 2),
            (0.0, 3.0, 2),
            (1.5, 1.5, 2),
            (-1.0, 1.0, 3),
            (0.5, 2.5, 3),
            (-1.5, 1.5, 9),
            (-5.0, 5.0, 201),
            (-2.0, 7.0, 150),
            (100.0, 101.0, 101),
            (-5.0, np.nextafter(5.0, 6.0), 101),
        ],
        ids=["odd-symmetric", "even-symmetric", "asymmetric", "descending",
             "wide", "two-point", "two-point-symmetric", "two-point-from-zero",
             "two-point-zero-step", "three-point-symmetric",
             "three-point", "short-half", "giant-groups-symmetric", "giant-groups",
             "far-from-zero", "one-ulp-from-symmetric"],
    )
    def test_matches_direct_means(self, x, grid):
        got = empirical_char_fn(x, *grid)
        np.testing.assert_allclose(got, _direct_cf(x, np.linspace(*grid)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("size", [101, 100])
    def test_symmetric_grid_halves_are_conjugates(self, x, size):
        out = empirical_char_fn(x, -5.0, 5.0, size)
        half = size // 2
        np.testing.assert_array_equal(out[:half], np.conj(out[::-1][:half]))


class TestCharFnBoundedMemory:
    """The traced peak of ``empirical_char_fn`` beyond its input is a few
    blocks, not a multiple of the sample count."""

    SLACK = 2 * CF_BLOCK * 16  # bytes: two complex blocks

    @staticmethod
    def _peak(x, grid) -> int:
        empirical_char_fn(x[:CF_BLOCK], *grid)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            empirical_char_fn(x, *grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "grid",
        [(-5.0, 5.0, 101), (-2.0, 7.0, 40)],
        ids=["symmetric", "asymmetric"],
    )
    def test_peak_does_not_grow_with_samples(self, grid):
        x = sample_laplace(LaplaceDist(1.0), RngHandle(13), size=2**20)
        small = self._peak(x[:2**16], grid)
        large = self._peak(x, grid)
        assert large <= small + self.SLACK, (small, large)
        # and far below one complex column of the samples
        assert large < x.size * 16 // 4, large

    def test_peak_does_not_grow_with_grid_beyond_the_result(self):
        x = sample_laplace(LaplaceDist(1.0), RngHandle(13), size=2**16)
        narrow, wide = (-5.0, 5.0, 101), (-5.0, 5.0, 10_001)
        result_growth = (wide[2] - narrow[2]) * 16  # bytes of the larger complex result
        small = self._peak(x, narrow)
        large = self._peak(x, wide)
        assert large <= small + result_growth + self.SLACK, (small, large)


class TestCharFnThreads:
    """Each thread keeps its own blocks: threads that compute different CFs
    at the same time each get the CF they get alone."""

    ROUNDS = 20

    def test_concurrent_calls_equal_serial_ones(self):
        grids = [(-5.0, 5.0, 101), (-2.0, 7.0, 40), (-1.0, 2.0, 2), (-5.0, 5.0, 201)]
        xs = [sample_laplace(LaplaceDist(1.0 + i), RngHandle(14, i), size=8 * CF_BLOCK + i)
              for i in range(len(grids))]
        serial = [empirical_char_fn(x, *grid).tobytes() for x, grid in zip(xs, grids)]
        got = [[] for _ in grids]
        start = threading.Barrier(len(grids))

        def work(i):
            start.wait(timeout=60)
            for _ in range(self.ROUNDS):
                got[i].append(empirical_char_fn(xs[i], *grids[i]).tobytes())

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(grids))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[cf] * self.ROUNDS for cf in serial]


class TestChunkedDraws:
    """numpy draws a sequence in chunks bit for bit as it draws it at once;
    verify-matching draws its samples SAMPLE_CHUNK at a time, all source
    chunks before the first noise chunk, and relies on this."""

    N = 2**17 + 4321

    @pytest.mark.parametrize("source", [
        lambda rng, n: sample_exponential(ExponentialDist(1.0), rng, size=n),
        lambda rng, n: sample_laplace(LaplaceDist(1.0), rng, size=n),
    ], ids=["exponential", "laplace"])
    @pytest.mark.parametrize("shape", [2.0, 0.5])
    def test_chunked_draws_equal_one_shot(self, source, shape):
        def noise(rng, n):
            return sample_gamma(GammaDist(shape, 1.0), rng, size=n)

        whole = RngHandle(41)
        expected = [source(whole, self.N), noise(whole, self.N)]
        chunked = RngHandle(41)
        got = [np.concatenate([draw(chunked, min(SAMPLE_CHUNK, self.N - lo))
                               for lo in range(0, self.N, SAMPLE_CHUNK)])
               for draw in (source, noise)]
        for a, b in zip(expected, got):
            assert a.tobytes() == b.tobytes()
