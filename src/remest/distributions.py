"""Samplers, densities, moments, and characteristic functions for the three
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
    "pdf",
    "char_fn",
    "empirical_char_fn",
]


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
    def rate(self) -> float:
        return 1.0 / self.scale

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


class RngHandle:
    """Deterministic random stream keyed by (seed, stream id, path).

    Two handles constructed with the same key produce bitwise-identical
    sample sequences on any platform (numpy PCG64 seeded through
    ``SeedSequence([seed, stream], spawn_key=path)``).  The path is a spawn
    key, not more entropy: ``SeedSequence`` zero-pads short entropy, so
    keying the path as entropy would give ``substream(0)`` the draws of its
    parent and path ``(5,)`` the draws of ``(5, 0)``.  A handle is
    single-owner: drawing advances its state.  Use :meth:`substream` to
    derive independent child streams for parallel work.
    """

    def __init__(self, seed: int, stream: int = 0, _path: tuple[int, ...] = ()):
        seed = int(seed)
        stream = int(stream)
        if seed < 0 or stream < 0 or any(i < 0 for i in _path):
            raise ValueError("seed and stream ids must be non-negative integers")
        self.seed = seed
        self.stream = stream
        self.path = tuple(int(i) for i in _path)
        key = np.random.SeedSequence([self.seed, self.stream], spawn_key=self.path)
        self.generator = np.random.Generator(np.random.PCG64(key))

    def substream(self, index: int) -> "RngHandle":
        """Independent child stream; same (seed, stream, path, index) -> same draws."""
        return RngHandle(self.seed, self.stream, (*self.path, int(index)))

    def __repr__(self) -> str:
        return f"RngHandle(seed={self.seed}, stream={self.stream}, path={self.path})"


def sample_laplace(d: LaplaceDist, rng: RngHandle, size: int | None = None):
    """Laplace draws from numpy's ``Generator.laplace``.

    ``size=None`` returns a scalar float; an integer returns a 1-D array.
    """
    return rng.generator.laplace(d.location, d.scale, size)


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


def pdf(dist, x):
    """Density of ``dist`` at ``x`` (scalar or array).

    Laplace keeps the explicit two-branch exponential form; exponential and
    gamma densities are zero on the negative axis.
    """
    x = np.asarray(x, dtype=np.float64)
    if isinstance(dist, LaplaceDist):
        lam = dist.rate
        z = x - dist.location
        # the two exponential branches coincide bit for bit on -lam*|z|
        out = 0.5 * lam * np.exp(-lam * np.abs(z))
    elif isinstance(dist, ExponentialDist):
        lam = dist.rate
        out = np.where(x >= 0.0, lam * np.exp(-lam * np.maximum(x, 0.0)), 0.0)
    elif isinstance(dist, GammaDist):
        from scipy.special import gammaln

        k, th = dist.shape, dist.scale
        xp = np.where(x > 0.0, x, 1.0)  # placeholder keeps log finite off-support
        log_pdf = (k - 1.0) * np.log(xp) - xp / th - gammaln(k) - k * np.log(th)
        out = np.where(x > 0.0, np.exp(log_pdf), 0.0)
        if k == 1.0:
            out = np.where(x == 0.0, 1.0 / th, out)
        elif k < 1.0:
            out = np.where(x == 0.0, np.inf, out)
    else:
        raise TypeError(f"unsupported distribution type: {type(dist).__name__}")
    return out if out.ndim else float(out)


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


def empirical_char_fn(samples, omega):
    """Sample characteristic function (1/N)·sum exp(j·w·x_i).

    Parameters
    ----------
    samples : array_like
        Non-empty collection of real draws.
    omega : float or array_like
        Evaluation point(s).  Uniformly spaced grids use an incremental
        phase-rotation recursion (one complex exp over the samples instead
        of one per grid point), which keeps million-sample grids cheap.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("empirical_char_fn requires at least one sample")
    w = np.asarray(omega, dtype=np.float64)
    scalar = w.ndim == 0
    wv = np.atleast_1d(w)

    out = np.empty(wv.size, dtype=np.complex128)
    steps = np.diff(wv)
    # linspace steps agree only to the ulp, which is far below sampling noise
    uniform = wv.size > 2 and bool(
        np.allclose(steps, steps[0], rtol=1e-12, atol=0.0)
    )
    if uniform:
        cur = np.exp(1j * wv[0] * x)
        rot = np.exp(1j * steps[0] * x)
        for i in range(wv.size):
            out[i] = cur.mean()
            if i + 1 < wv.size:
                cur *= rot
    else:
        for i, wi in enumerate(wv):
            out[i] = complex(np.cos(wi * x).mean(), np.sin(wi * x).mean())
    return complex(out[0]) if scalar else out
