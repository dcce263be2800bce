"""Samplers, moments, and characteristic functions for the three
distribution families used by the estimation pipeline: Laplace sources,
exponential tails, and gamma channel noise, and the empirical
characteristic function on a linspace grid.  All randomness flows through
:class:`RngHandle` so every experiment is reproducible bit for bit.
"""

from __future__ import annotations

import threading
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


# Samples per block of the empirical CF.  Each thread that computes one keeps
# a baby and a giant matrix of CF_BABY rows of this length, 256 KiB each, and
# one leap row (see _blocks).
# 4096 ran the CF about 10% faster on a 2-vCPU host, but its blocks would add
# another 544 KiB to the peak memory of verify-matching.
CF_BLOCK = 2048

# Grid points per giant step of the uniform-grid CF: point a·CF_BABY + b is
# giant row a times baby row b.
CF_BABY = 8


def _require_positive(name: str, value: float) -> None:
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class LaplaceDist:
    """Double-exponential law centred at 0, with density (1/2b)·exp(-|x|/b).

    ``scale`` is b = 1/rate; mean 0, variance 2·b².
    """

    scale: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("scale", self.scale)


@dataclass(frozen=True)
class ExponentialDist:
    """Exponential law with density rate·exp(-rate·x) on x >= 0."""

    rate: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("rate", self.rate)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate


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


# Exclusive upper bound of every RngHandle key entry (seed, stream, path).
KEY_LIMIT = 2**32


class RngHandle:
    """Deterministic random stream keyed by (seed, stream id, path).

    Two handles constructed with the same key draw the same uniforms, bit for
    bit, on every platform (numpy PCG64 seeded through
    ``SeedSequence([seed, stream], spawn_key=path)``).  The draws computed
    from them are bit for bit the same only under the same numpy build, libm
    and CPU features: numpy and glibc pick their ``log`` kernels per CPU, and
    numpy's AVX2 ``log`` puts about 1 in 300 Laplace draws 1 ulp away from
    its AVX-512 one.  The path is a spawn key, not more entropy:
    ``SeedSequence`` zero-pads short entropy, so keying the path as entropy
    would give ``substream(0)`` the draws of its parent and path ``(5,)``
    the draws of ``(5, 0)``.  Each key entry must lie in [0, 2^32):
    ``SeedSequence`` splits larger integers into 32-bit words, so seed 2^32
    would draw what ``(seed 0, stream 1)`` draws.  A handle is single-owner:
    drawing advances its state.  Use :meth:`substream` to derive independent
    child streams for parallel work.
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


def sample_laplace(d: LaplaceDist, rng: RngHandle, size: int) -> np.ndarray:
    """``size`` Laplace draws by numpy's inverse CDF, vectorized over
    ``Generator.random``: x = scale·copysign(log(1 - 2|u - 1/2|), u - 1/2).
    A u of exactly 0 is redrawn, as ``Generator.laplace`` does, so the
    generator ends in its state.  The values differ from numpy's only by its
    rounding of 2 - u - u.
    """
    u = rng.generator.random(size)
    while not u.all():  # as numpy does, redraw a u of 0, where log(2u) is -inf
        u = np.concatenate((u[u != 0.0], rng.generator.random(size - np.count_nonzero(u))))
    u -= 0.5
    x = np.abs(u)  # the one temporary array; the rest is in place
    x *= -2.0
    x += 1.0
    np.log(x, out=x)
    np.copysign(x, u, out=x)
    x *= d.scale
    return x


def sample_exponential(d: ExponentialDist, rng: RngHandle, size: int) -> np.ndarray:
    """``size`` draws from numpy's ``Generator.exponential`` (scale 1/rate)."""
    return rng.generator.exponential(1.0 / d.rate, size)


def sample_gamma(d: GammaDist, rng: RngHandle, size: int) -> np.ndarray:
    """``size`` draws from numpy's ``Generator.gamma``, valid for every shape k > 0."""
    return rng.generator.gamma(d.shape, d.scale, size)


def char_fn(dist, omega) -> np.ndarray:
    """Analytic characteristic function of ``dist`` on the array ``omega``.

    Laplace(b):         1 / (1 + w²b²), real
    Exponential(rate):  1 / (1 - j·w/rate)
    Gamma(k, theta):    (1 - j·w·theta)^(-k), evaluated as
                        exp(-k·Log(1 - j·w·theta)); the principal Log is
                        branch-safe here because Re(1 - j·w·theta) = 1 > 0.
    """
    w = np.asarray(omega, dtype=np.float64)
    if isinstance(dist, LaplaceDist):
        out = 1.0 / (1.0 + (w * dist.scale) ** 2)
    elif isinstance(dist, ExponentialDist):
        out = 1.0 / (1.0 - 1j * w / dist.rate)
    elif isinstance(dist, GammaDist):
        out = np.exp(-dist.shape * np.log(1.0 - 1j * w * dist.scale))
    else:
        raise TypeError(f"unsupported distribution type: {type(dist).__name__}")
    return np.asarray(out, dtype=np.complex128)


def _cis(w, x, out):
    """exp(j·w·x) for real ``w`` and ``x``, into the complex array ``out``.

    One ``tan`` and the half-angle identities: with tau = tan(w·x/2) and
    r = 2/(1 + tau²), cos = r − 1 and sin = r·tau.  numpy 2.4's float64
    ``tan`` is SIMD on x86_64 where its ``cos`` and ``sin`` call scalar libm,
    so there this costs about half the pair.  It agrees with ``np.cos`` and
    ``np.sin`` to 4e-16 absolute (tested from |w·x| = 1e-300 to 1e300 and
    next to odd multiples of pi, where tau passes 1e16), and is exactly 1 at
    w·x = 0.  A tau whose square overflowed would give r = 0 and (−1, 0),
    still right.
    """
    tau = np.multiply(0.5 * w, x)
    np.tan(tau, out=tau)
    np.copyto(out.imag, tau)
    np.multiply(tau, tau, out=tau)
    tau += 1.0
    np.divide(2.0, tau, out=tau)
    out.imag *= tau
    np.subtract(tau, 1.0, out=out.real)
    return out


_scratch = threading.local()


def _blocks():
    """This thread's baby, giant and leap rows for :func:`_uniform_cf_sums`:
    CF_BABY × CF_BLOCK, CF_BABY × CF_BLOCK and CF_BLOCK complex entries,
    544 KiB.  They are made on the thread's first call and kept, so a call
    pays no allocation and no first touch of fresh pages; a call uses their
    leading rows and columns.  Only baby row 0, all ones, carries over from
    one call to the next.  One set per thread, so concurrent calls never
    share a row."""
    try:
        return _scratch.blocks
    except AttributeError:
        baby = np.empty((CF_BABY, CF_BLOCK), dtype=np.complex128)
        baby[0] = 1.0
        _scratch.blocks = (baby, np.empty_like(baby), np.empty(CF_BLOCK, dtype=np.complex128))
        return _scratch.blocks


def _uniform_cf_sums(x, start, step, sums):
    """Add sum_i exp(j·(start + p·step)·x_i) to ``sums[p]`` for every p.

    Baby-step/giant-step: with p = a·K + b (K = ``CF_BABY``, or the point
    count if smaller), exp(j·w_p·x) = giant_a(x)·baby_b(x), where
    baby_b = exp(j·b·step·x) and giant_a = exp(j·(start + a·K·step)·x).
    Per block of ``CF_BLOCK`` samples, one :func:`_cis` gives the rotation
    exp(j·step·x), K − 1 products the baby rows and the leap
    exp(j·K·step·x), and one product each further giant row; the partial
    sums of all points are then one complex matrix product, giant @ baby.T.
    Giant rows run in groups of at most K against the same baby matrix, so
    the 2·K + 1 rows of a block are this thread's :func:`_blocks` whatever
    the grid size or sample count.  The rows of ones (baby row 0 once per
    thread, and giant row 0 once per call when ``start`` is 0 and one group
    holds every giant row) are not written per block; with
    ``start`` 0, giant row 1 is a copy of the leap, not a product by ones.
    Every grid of :func:`empirical_char_fn` runs here; with 2 points, K is 2
    and the leap goes unused.
    """
    k = min(CF_BABY, sums.size)
    giants = -(-sums.size // k)
    baby, giant, leap = _blocks()
    baby, giant = baby[:k], giant[:min(k, giants)]
    centred = start == 0.0  # the middle of an odd symmetric grid
    if centred:
        giant[0] = 1.0
    for lo in range(0, x.size, CF_BLOCK):
        xb = x[lo:lo + CF_BLOCK]
        b = baby[:, :xb.size]
        g = giant[:, :xb.size]
        lp = leap[:xb.size]
        _cis(step, xb, out=b[1])
        for i in range(2, k):
            np.multiply(b[i - 1], b[1], out=b[i])
        np.multiply(b[k - 1], b[1], out=lp)
        if not centred:
            _cis(start, xb, out=g[0])
        elif giants > k:  # the last group of the previous block overwrote it
            g[0] = 1.0
        for a0 in range(0, giants, k):
            rows = min(k, giants - a0)
            first = 1
            if a0:
                np.multiply(g[-1], lp, out=g[0])
            elif centred and rows > 1:
                g[1] = lp
                first = 2
            for r in range(first, rows):
                np.multiply(g[r - 1], lp, out=g[r])
            seg = sums[a0 * k:(a0 + rows) * k]
            seg += (g[:rows] @ b.T).ravel()[:seg.size]


def empirical_char_fn(samples, start: float, stop: float, points: int) -> np.ndarray:
    """Sample characteristic function (1/N)·sum exp(j·w·x_i) on the grid
    ``np.linspace(start, stop, points)``.  Point p is evaluated at
    w_0 + p·h, where w_0 and h are linspace's first point and step, so each
    point is within about one ulp of max|w| of linspace's.  Raises
    ValueError unless ``start`` and ``stop`` are finite and ``points`` is at
    least 2.

    The samples are cut into blocks of ``CF_BLOCK``; each block adds its
    partial sums for every grid point with baby and giant phase rotations
    and one complex matrix product (see :func:`_uniform_cf_sums`).  The
    blocks are this thread's 544 KiB, kept from one call to the next, so
    the working set does not grow with the sample count or grid size, and
    a call on a few blocks pays for no fresh pages.  When ``start ==
    -stop`` and there are at least 3 points, only the half from linspace's
    middle point on is computed and the other half is its conjugate:
    phi(-w) = conj(phi(w)) for real samples.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("empirical_char_fn requires at least one sample")
    if not np.isfinite((start, stop)).all() or points < 2:
        raise ValueError(f"the grid needs finite ends and at least 2 points, "
                         f"got start={start!r}, stop={stop!r}, points={points!r}")
    half = points // 2 if points > 2 and start == -stop else 0
    first = half * ((stop - start) / (points - 1)) + start  # linspace's point `half`
    out = np.zeros(points, dtype=np.complex128)
    sums = out[half:]
    _uniform_cf_sums(x, first, (stop - first) / (sums.size - 1), sums)
    sums /= x.size
    np.conjugate(out[::-1][:half], out=out[:half])
    return out
