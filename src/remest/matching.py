"""Characteristic-function matching checks.

The affine coder is exactly optimal when the source CF evaluated at
alpha·omega equals the gamma-th power of the noise CF.  This module verifies
that identity numerically on an omega grid, both for analytic CFs and for
empirical CFs built from samples, and reports per-point complex residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import ExponentialDist, GammaDist, _require_positive, char_fn, empirical_char_fn
from .strategies import SystemParams

__all__ = [
    "DEFAULT_OMEGA_GRID",
    "EMPIRICAL_MODULUS_FLOOR",
    "MIN_SAMPLES",
    "MatchSpec",
    "CfResidualReport",
    "check_matching",
    "check_matching_empirical",
    "centered_cf",
    "matched_pair_spec",
    "gamma_power_closed_form",
]

# 101 uniform points on [-5, 5]: covers the main lobe of the reference CFs
# while keeping |noise CF| well above zero everywhere on the grid.
DEFAULT_OMEGA_GRID: tuple[float, ...] = tuple(np.linspace(-5.0, 5.0, 101))

# Below this empirical modulus the gamma-th power amplifies sampling noise
# too much for the residual to mean anything.
EMPIRICAL_MODULUS_FLOOR = 1e-3

# The fewest samples per side an empirical check accepts.
MIN_SAMPLES = 10_000


@dataclass(frozen=True)
class MatchSpec:
    """One matching check: source CF, noise CF, gains, and the omega grid."""

    source_cf: Callable
    noise_cf: Callable
    alpha: float
    gamma: float
    omega_grid: tuple[float, ...] = DEFAULT_OMEGA_GRID

    def __post_init__(self) -> None:
        _require_positive("alpha", self.alpha)
        _require_positive("gamma", self.gamma)
        grid = tuple(float(w) for w in self.omega_grid)
        if len(grid) == 0:
            raise ValueError("omega_grid must be non-empty")
        if not all(np.isfinite(grid)):
            raise ValueError("omega_grid must contain only finite values")
        object.__setattr__(self, "omega_grid", grid)


@dataclass(frozen=True, eq=False)
class CfResidualReport:
    """Residuals on the grid sorted by omega, one array entry per point:
    ``lhs`` and ``rhs`` complex, ``residual`` float, ``reliable`` bool.  A
    point is unreliable where the noise CF modulus was zero (analytic check)
    or below the empirical floor; its ``rhs`` and residual are then NaN and
    the residual is excluded from ``max_residual``, which is NaN when no
    point is reliable."""

    omega: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray
    reliable: np.ndarray
    max_residual: float


def _cf_values(fn: Callable, omega: np.ndarray) -> np.ndarray:
    """``fn`` at every grid point; a CF maps an array of omegas to one
    complex value per point."""
    out = np.asarray(fn(omega), dtype=np.complex128)
    if out.shape != omega.shape:
        raise ValueError(f"a CF must return one value per omega point, shape {omega.shape}, "
                         f"got shape {out.shape}")
    return out


def _continuous_power(values: np.ndarray, exponent: float, usable: np.ndarray,
                      anchor: int) -> np.ndarray:
    """gamma-th power of CF values along the grid, on the continuous branch.

    A CF of a mean-shifted variable carries a linear phase that can wind past
    +-pi, where the principal logarithm jumps by 2·pi and exp(g·Log z) lands
    on the wrong branch.  Unwrapping the phase along the (sorted) grid and
    anchoring at the point nearest omega = 0, where the principal argument is
    the continuous one, restores the branch on which CF(0)^g = 1.  Exponent 1
    is returned unchanged so identity checks are exact.
    """
    out = np.full(values.shape, complex(np.nan, np.nan), dtype=np.complex128)
    idx = np.flatnonzero(usable)
    if idx.size == 0:
        return out
    vals = values[idx]
    if exponent == 1.0:
        out[idx] = vals
        return out
    phases = np.unwrap(np.angle(vals))
    pos = int(np.argmin(np.abs(idx - anchor)))
    # unwrap preserves the first entry's principal argument; re-anchor so the
    # entry nearest the grid origin is the principal one instead
    turns = np.round((phases[pos] - np.angle(vals[pos])) / (2.0 * np.pi))
    phases -= 2.0 * np.pi * turns
    out[idx] = np.exp(exponent * (np.log(np.abs(vals)) + 1j * phases))
    return out


def _build_report(omega: np.ndarray, lhs: np.ndarray, noise: np.ndarray, gamma: float,
                  reliable: np.ndarray) -> CfResidualReport:
    """``lhs`` against ``noise``^gamma on the sorted grid ``omega``."""
    rhs = _continuous_power(noise, gamma, reliable, int(np.argmin(np.abs(omega))))
    residual = np.where(reliable, np.abs(lhs - rhs), np.nan)
    top = float(np.max(residual[reliable])) if reliable.any() else float("nan")
    return CfResidualReport(omega, lhs, rhs, residual, reliable, top)


def check_matching(spec: MatchSpec) -> CfResidualReport:
    """Compare source_cf(alpha·w) against noise_cf(w)^gamma on the grid.

    Pure function of the spec; records are sorted by omega, so reordering
    the input grid cannot change the report.  Grid points where the noise CF
    vanishes have no well-defined power and are reported unreliable.
    """
    omega = np.sort(np.asarray(spec.omega_grid, dtype=np.float64), kind="stable")
    lhs = _cf_values(spec.source_cf, spec.alpha * omega)
    noise = _cf_values(spec.noise_cf, omega)
    return _build_report(omega, lhs, noise, spec.gamma, np.abs(noise) > 0.0)


def _mean_cf(chunks, omega: np.ndarray) -> tuple[np.ndarray | None, int]:
    """Empirical CF at ``omega`` over an iterable of 1-D sample chunks, and
    the sample count: one :func:`empirical_char_fn` call per chunk, folded as
    a running mean acc += (phi - acc)·m/n.  The first chunk's CF is taken as
    is, so a single chunk gives exactly the CF of its array."""
    acc, n = None, 0
    for chunk in chunks:
        x = np.asarray(chunk, dtype=np.float64)
        if x.ndim != 1:
            raise TypeError(f"each sample chunk must be a 1-D array, got shape {x.shape}")
        if x.size == 0:
            continue
        n += x.size
        phi = np.atleast_1d(empirical_char_fn(x, omega))
        if acc is None:
            acc = phi
        else:
            acc += (phi - acc) * (x.size / n)
    return acc, n


def check_matching_empirical(
    source_chunks,
    noise_chunks,
    alpha: float,
    gamma: float,
    omega_grid: Sequence[float] | None = None,
) -> CfResidualReport:
    """Sampling-based version of :func:`check_matching`.

    Each side is an iterable of 1-D sample chunks (a list of arrays, or a
    generator that draws them); one array is passed as ``[array]``.  Every
    source chunk is consumed before the first noise chunk, so two
    generators drawing from one random stream draw in that order.

    Both sides use empirical CFs, so the residual floor is set by Monte
    Carlo error (roughly 1/sqrt(N) per point, amplified by the gamma-th
    power where the noise CF modulus is small).  Points with empirical
    modulus below ``EMPIRICAL_MODULUS_FLOOR`` are marked unreliable: their
    power and residual are NaN and they are excluded from the reported
    maximum, which is NaN when no point is reliable.

    Nearly all the time goes to :func:`empirical_char_fn`, once per chunk;
    the chunk CFs are averaged with weights by size, which equals the CF of
    the concatenated samples up to roundoff.  Memory is one chunk at a time
    plus the CF's few hundred KiB of blocks, whatever the sample count.
    """
    _require_positive("alpha", alpha)
    _require_positive("gamma", gamma)
    grid = DEFAULT_OMEGA_GRID if omega_grid is None else omega_grid
    omega = np.sort(np.asarray(grid, dtype=np.float64), kind="stable")
    if omega.size == 0 or not np.all(np.isfinite(omega)):
        raise ValueError("omega_grid must be non-empty and finite")
    if isinstance(source_chunks, np.ndarray) or isinstance(noise_chunks, np.ndarray):
        raise TypeError("each side must be an iterable of 1-D sample chunks; "
                        "pass [array] for one array")

    lhs, n_src = _mean_cf(source_chunks, alpha * omega)
    noise, n_noise = _mean_cf(noise_chunks, omega)
    if n_src < MIN_SAMPLES or n_noise < MIN_SAMPLES:
        raise ValueError(
            f"need at least {MIN_SAMPLES} samples per side, "
            f"got {n_src} source and {n_noise} noise"
        )
    return _build_report(omega, lhs, noise, gamma, np.abs(noise) >= EMPIRICAL_MODULUS_FLOOR)


def centered_cf(dist) -> Callable:
    """CF of X - E[X] where X is drawn from ``dist``."""
    def cf(omega):
        w = np.asarray(omega, dtype=np.float64)
        return char_fn(dist, w) * np.exp(-1j * w * dist.mean)

    return cf


def matched_pair_spec(params: SystemParams,
                      omega_grid: Sequence[float] | None = None) -> MatchSpec:
    """The exactly-matching pair for the system parameters: the mean-centered
    exponential source against the mean-centered gamma noise, with
    alpha = lam·theta and gamma = 1/k.  Its analytic residual is zero up to
    roundoff, which is the machine-checkable half of the matching condition.
    """
    grid = DEFAULT_OMEGA_GRID if omega_grid is None else tuple(omega_grid)
    return MatchSpec(
        source_cf=centered_cf(ExponentialDist(params.lam)),
        noise_cf=centered_cf(GammaDist(params.k, params.theta)),
        alpha=params.alpha,
        gamma=params.gamma,
        omega_grid=grid,
    )


def gamma_power_closed_form(shape: float, scale: float, exponent: float, omega):
    """The gamma-th power of the centered-gamma CF with the exponent applied
    inside the closed form: (1 - j·w·scale)^(-shape·g) · exp(-j·w·shape·scale·g).

    Log(1 - j·w·scale) is principal-safe (real part is 1), so this is immune
    to branch wrapping and serves as the independent cross-check for
    :func:`_continuous_power`.
    """
    w = np.asarray(omega, dtype=np.float64)
    return np.exp(
        -shape * exponent * np.log(1.0 - 1j * w * scale)
        - 1j * w * shape * scale * exponent
    )
