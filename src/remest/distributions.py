"""Samplers, moments, and characteristic functions for the three
distribution families used by the estimation pipeline: Laplace sources,
exponential tails, and gamma channel noise.  All randomness flows through
:class:`RngHandle` so every experiment is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LaplaceDist",
    "ExponentialDist",
    "GammaDist",
    "RngHandle",
    "sample_laplace",
    "sample_exponential",
    "sample_gamma",
    "char_fn",
    "empirical_char_fn",
]


# Samples per block of the empirical CF.  A uniform-grid block holds a baby
# and a giant matrix of up to CF_BABY rows of this length, 256 KiB each.
# 4096 ran the CF about 10% faster on a 2-vCPU host, but its 1 MiB working
# set would add 3% to the peak memory of verify-matching at 1e6 samples.
CF_BLOCK = 2048

# Grid points per giant step of the uniform-grid CF: point a·CF_BABY + b is
# giant row a times baby row b.
CF_BABY = 8


def _require_positive(name: str, value: float) -> None:
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class LaplaceDist:
    """Double-exponential law with density (1/2b)·exp(-|x - loc|/b).

    ``scale`` is b = 1/rate; variance is 2·b².
    """

    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("scale", self.scale)
        if not np.isfinite(self.location):
            raise ValueError(f"location must be finite, got {self.location!r}")

    @property
    def mean(self) -> float:
        return self.location

    @property
    def variance(self) -> float:
        return 2.0 * self.scale**2


@dataclass(frozen=True)
class ExponentialDist:
    """Exponential law with density rate·exp(-rate·x) on x >= 0."""

    rate: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("rate", self.rate)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def variance(self) -> float:
        return 1.0 / self.rate**2


@dataclass(frozen=True)
class GammaDist:
    """Gamma law with shape k and scale theta; mean k·theta, variance k·theta²."""

    shape: float
    scale: float

    def __post_init__(self) -> None:
        _require_positive("shape", self.shape)
        _require_positive("scale", self.scale)

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale**2


# Exclusive upper bound of every RngHandle key entry (seed, stream, path).
KEY_LIMIT = 2**32


class RngHandle:
    """Deterministic random stream keyed by (seed, stream id, path).

    Two handles constructed with the same key produce bitwise-identical
    sample sequences on any platform (numpy PCG64 seeded through
    ``SeedSequence([seed, stream], spawn_key=path)``).  The path is a spawn
    key, not more entropy: ``SeedSequence`` zero-pads short entropy, so
    keying the path as entropy would give ``substream(0)`` the draws of its
    parent and path ``(5,)`` the draws of ``(5, 0)``.  Each key entry must
    lie in [0, 2^32): ``SeedSequence`` splits larger integers into 32-bit
    words, so seed 2^32 would draw what ``(seed 0, stream 1)`` draws.  A
    handle is single-owner: drawing advances its state.  Use
    :meth:`substream` to derive independent child streams for parallel work.
    """

    def __init__(self, seed: int, stream: int = 0, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.stream = int(stream)
        self.path = tuple(int(i) for i in _path)
        ids = (self.seed, self.stream, *self.path)
        if min(ids) < 0 or max(ids) >= KEY_LIMIT:
            raise ValueError(
                f"seed, stream and path ids must be integers in [0, 2^32), "
                f"got seed={self.seed}, stream={self.stream}, path={self.path}"
            )
        # the words of the list [seed, stream], which SeedSequence splits 3x slower
        entropy = np.array((self.seed, self.stream), dtype=np.uint32)
        key = np.random.SeedSequence(entropy, spawn_key=self.path)
        self.generator = np.random.Generator(np.random.PCG64(key))

    def substream(self, index: int) -> "RngHandle":
        """Independent child stream; same (seed, stream, path, index) -> same draws."""
        return RngHandle(self.seed, self.stream, (*self.path, int(index)))


def sample_laplace(d: LaplaceDist, rng: RngHandle, size: int | None = None):
    """Laplace draws by numpy's inverse CDF, vectorized over ``Generator.random``:
    x = loc + scale·copysign(log(1 - 2|u - 1/2|), u - 1/2).  A u of exactly 0
    is redrawn, as ``Generator.laplace`` does, so the generator ends in its
    state.  The values differ from numpy's only by its rounding of 2 - u - u.

    ``size=None`` returns a scalar float; an integer returns a 1-D array.
    """
    n = 1 if size is None else size
    u = rng.generator.random(n)
    while not u.all():  # as numpy does, redraw a u of 0, where log(2u) is -inf
        u = np.concatenate((u[u != 0.0], rng.generator.random(n - np.count_nonzero(u))))
    u -= 0.5
    x = np.abs(u)  # the one temporary array; the rest is in place
    x *= -2.0
    x += 1.0
    np.log(x, out=x)
    np.copysign(x, u, out=x)
    x *= d.scale
    x += d.location
    return float(x[0]) if size is None else x


def sample_exponential(d: ExponentialDist, rng: RngHandle, size: int | None = None):
    """Exponential draws from numpy's ``Generator.exponential`` (scale 1/rate).

    ``size=None`` returns a scalar float; an integer returns a 1-D array.
    """
    return rng.generator.exponential(1.0 / d.rate, size)


def sample_gamma(d: GammaDist, rng: RngHandle, size: int | None = None):
    """Gamma draws from numpy's ``Generator.gamma``, valid for every shape k > 0.

    ``size=None`` returns a scalar float; an integer returns a 1-D array.
    """
    return rng.generator.gamma(d.shape, d.scale, size)


def char_fn(dist, omega):
    """Analytic characteristic function of ``dist`` at ``omega`` (scalar or array).

    Laplace(loc, b):    exp(j·w·loc) / (1 + w²b²)
    Exponential(rate):  1 / (1 - j·w/rate)
    Gamma(k, theta):    (1 - j·w·theta)^(-k), evaluated as
                        exp(-k·Log(1 - j·w·theta)); the principal Log is
                        branch-safe here because Re(1 - j·w·theta) = 1 > 0.
    """
    w = np.asarray(omega, dtype=np.float64)
    if isinstance(dist, LaplaceDist):
        out = np.exp(1j * w * dist.location) / (1.0 + (w * dist.scale) ** 2)
    elif isinstance(dist, ExponentialDist):
        out = 1.0 / (1.0 - 1j * w / dist.rate)
    elif isinstance(dist, GammaDist):
        out = np.exp(-dist.shape * np.log(1.0 - 1j * w * dist.scale))
    else:
        raise TypeError(f"unsupported distribution type: {type(dist).__name__}")
    out = np.asarray(out, dtype=np.complex128)
    return out if out.ndim else complex(out)


def _cis(w, x, out=None):
    """exp(j·w·x) for real ``w`` and ``x`` from one cos/sin pair, into ``out``
    if given.  Equal bit for bit to ``np.exp(1j * w * x)`` on numpy 2.4."""
    t = w * x
    if out is None:
        out = np.empty(t.shape, dtype=np.complex128)
    np.cos(t, out=out.real)
    np.sin(t, out=out.imag)
    return out


def _uniform_cf_sums(x, start, step, sums):
    """Add sum_i exp(j·(start + p·step)·x_i) to ``sums[p]`` for every p.

    Baby-step/giant-step: with p = a·K + b (K = ``CF_BABY``, or the point
    count if smaller), exp(j·w_p·x) = giant_a(x)·baby_b(x), where
    baby_b = exp(j·b·step·x) and giant_a = exp(j·(start + a·K·step)·x).
    Per block of ``CF_BLOCK`` samples, one cos/sin pair gives the rotation
    exp(j·step·x), K − 1 products the baby rows and the leap
    exp(j·K·step·x), and one product each further giant row; the partial
    sums of all points are then one complex matrix product, giant @ baby.T.
    Giant rows run in groups of at most K against the same baby matrix, so
    memory stays at 2·K rows of a block whatever the grid size.
    """
    k = min(CF_BABY, sums.size)
    giants = -(-sums.size // k)
    width = min(CF_BLOCK, x.size)
    baby = np.empty((k, width), dtype=np.complex128)
    giant = np.empty((min(k, giants), width), dtype=np.complex128)
    for lo in range(0, x.size, CF_BLOCK):
        xb = x[lo:lo + CF_BLOCK]
        b = baby[:, :xb.size]
        g = giant[:, :xb.size]
        b[0] = 1.0
        _cis(step, xb, out=b[1])
        for i in range(2, k):
            np.multiply(b[i - 1], b[1], out=b[i])
        leap = b[k - 1] * b[1]
        if start == 0.0:  # the middle of an odd symmetric grid
            g[0] = 1.0
        else:
            _cis(start, xb, out=g[0])
        for a0 in range(0, giants, k):
            rows = min(k, giants - a0)
            if a0:
                np.multiply(g[-1], leap, out=g[0])
            for r in range(1, rows):
                np.multiply(g[r - 1], leap, out=g[r])
            seg = sums[a0 * k:(a0 + rows) * k]
            seg += (g[:rows] @ b.T).ravel()[:seg.size]


def empirical_char_fn(samples, omega):
    """Sample characteristic function (1/N)·sum exp(j·w·x_i).

    Parameters
    ----------
    samples : array_like
        Non-empty collection of real draws.
    omega : float or array_like
        Evaluation point(s), in any order.

    The samples are cut into blocks of ``CF_BLOCK``; each block adds its
    partial sums for every grid point, so the working set is a few hundred
    KiB whatever the sample count or grid size.  On a uniform grid a block
    builds baby and giant phase rotations and sums all points with one
    complex matrix product (see :func:`_uniform_cf_sums`); on any other
    grid, or a scalar, it evaluates exp(j·w·x) point by point.  When a
    uniform grid is symmetric about 0, only the half from the middle point
    on is computed and the other half is its conjugate:
    phi(-w) = conj(phi(w)) for real samples.  Uniformity and symmetry are
    judged to a relative 1e-12, far below sampling noise, because linspace
    grids hold them only to the ulp.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("empirical_char_fn requires at least one sample")
    w = np.asarray(omega, dtype=np.float64)
    scalar = w.ndim == 0
    wv = np.atleast_1d(w)

    uniform = wv.size > 2 and bool(
        np.allclose(np.diff(wv), wv[1] - wv[0], rtol=1e-12, atol=0.0)
    )
    symmetric = uniform and bool(np.allclose(
        wv + wv[::-1], 0.0, rtol=0.0, atol=1e-12 * abs(wv[-1] - wv[0])
    ))
    half = wv.size // 2 if symmetric else 0
    pts = wv[half:]

    out = np.zeros(wv.size, dtype=np.complex128)
    sums = out[half:]
    if uniform:
        _uniform_cf_sums(x, pts[0], (pts[-1] - pts[0]) / (pts.size - 1), sums)
    else:
        for lo in range(0, x.size, CF_BLOCK):
            xb = x[lo:lo + CF_BLOCK]
            for i, wi in enumerate(pts):
                sums[i] += _cis(wi, xb).sum()
    sums /= x.size
    np.conjugate(out[::-1][:half], out=out[:half])
    return complex(out[0]) if scalar else out
