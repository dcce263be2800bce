"""Characteristic-function matching checks.

The affine coder is exactly optimal when the source CF evaluated at
alpha·omega equals the gamma-th power of the noise CF.  :func:`pair` builds
the two pairs of laws the program checks: the matched pair of the system
parameters and a deliberately unmatched one.  This module verifies the
identity on the grid ``np.linspace(start, stop, points)``, given as that
triple, both with the analytic CFs and with empirical CFs of samples it
draws, and reports per-point complex residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import (ExponentialDist, GammaDist, LaplaceDist, RngHandle, char_fn,
                            empirical_char_fn, sample_exponential, sample_gamma, sample_laplace)
from .strategies import SystemParams

__all__ = [
    "EMPIRICAL_MODULUS_FLOOR",
    "MIN_SAMPLES",
    "SAMPLE_CHUNK",
    "Pair",
    "pair",
    "CfResidualReport",
    "check_matching",
    "check_matching_empirical",
]

# Below this empirical modulus the gamma-th power amplifies sampling noise
# too much for the residual to mean anything.
EMPIRICAL_MODULUS_FLOOR = 1e-3

# The fewest samples per side an empirical check accepts.
MIN_SAMPLES = 10_000

# Samples per chunk that check_matching_empirical draws and folds at a time:
# 8 blocks of distributions.CF_BLOCK, 128 KiB.  The CF keeps its blocks
# between calls, so a chunk costs no fresh buffers, only the fixed work of
# one call; half the chunk would save 64 KiB for twice the calls.  numpy
# draws a sequence in chunks bit for bit as it draws it at once, so the
# samples do not depend on it.
SAMPLE_CHUNK = 1 << 14

# The sampler of each law a pair can hold.
_SAMPLERS = {
    ExponentialDist: sample_exponential,
    GammaDist: sample_gamma,
    LaplaceDist: sample_laplace,
}


class Pair(NamedTuple):
    """A source law and a noise law, with the gains of the identity
    source_cf(alpha·w) = noise_cf(w)^gamma.  With ``centered`` both laws
    are taken less their means; a Laplace source, of mean 0, never is."""

    source: ExponentialDist | LaplaceDist
    noise: GammaDist
    alpha: float
    gamma: float
    centered: bool


def pair(params: SystemParams, matched: bool) -> Pair:
    """The matched pair for the system parameters: the mean-centered
    exponential source against the mean-centered gamma noise, with
    alpha = lam·theta and gamma = 1/k.  Its analytic residual is zero up to
    roundoff, which is the machine-checkable half of the matching condition.
    Unmatched: the raw Laplace source against the raw gamma noise with unit
    gains, so the residual must be visibly large."""
    noise = GammaDist(params.k, params.theta)
    if matched:
        return Pair(ExponentialDist(params.lam), noise, params.alpha, params.gamma, True)
    return Pair(LaplaceDist(1.0 / params.lam), noise, 1.0, 1.0, False)


@dataclass(frozen=True, eq=False)
class CfResidualReport:
    """Residuals on the ascending grid ``omega``, one array entry per point:
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


def _cf(dist, omega: np.ndarray, centered: bool) -> np.ndarray:
    """The analytic CF of ``dist`` at ``omega``, of the law less its mean
    when ``centered``.  Centring is a branch, not a shift by a zero mean:
    multiplying by exp(-j·w·0) would flip the sign of zero imaginary parts."""
    out = char_fn(dist, omega)
    return out * np.exp(-1j * omega * dist.mean) if centered else out


def _continuous_power(values: np.ndarray, exponent: float, usable: np.ndarray,
                      anchor: int) -> np.ndarray:
    """gamma-th power of CF values along the grid, on the continuous branch.

    A CF of a mean-shifted variable carries a linear phase that can wind past
    +-pi, where the principal logarithm jumps by 2·pi and exp(g·Log z) lands
    on the wrong branch.  Unwrapping the phase along the grid and anchoring
    at the point nearest omega = 0, where the principal argument is the
    continuous one, restores the branch on which CF(0)^g = 1.  That holds
    when the grid spans 0 and no step turns the phase by pi or more (for the
    matched pair, k·theta·step < pi), which ``cli.load_config`` requires of
    the matched pair's grid.  Exponent 1 is returned unchanged so identity
    checks are exact.
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
    """``lhs`` against ``noise``^gamma on the ascending grid ``omega``."""
    rhs = _continuous_power(noise, gamma, reliable, int(np.argmin(np.abs(omega))))
    residual = np.where(reliable, np.abs(lhs - rhs), np.nan)
    top = float(np.max(residual[reliable])) if reliable.any() else float("nan")
    return CfResidualReport(omega, lhs, rhs, residual, reliable, top)


def _linspace(grid) -> np.ndarray:
    """The points of ``grid`` = (start, stop, points), with start < stop."""
    if not grid[0] < grid[1]:
        raise ValueError(f"the grid needs start < stop, got {grid!r}")
    return np.linspace(*grid)


def check_matching(pair: Pair, grid) -> CfResidualReport:
    """Compare the source CF at alpha·w against the noise CF at w to the
    power gamma, at every point w of ``np.linspace(*grid)``, where ``grid``
    is (start, stop, points) with start < stop.

    Pure function of its arguments.  Grid points where the noise CF
    vanishes have no well-defined power and are reported unreliable.
    """
    omega = _linspace(grid)
    lhs = _cf(pair.source, pair.alpha * omega, pair.centered)
    noise = _cf(pair.noise, omega, pair.centered)
    return _build_report(omega, lhs, noise, pair.gamma, np.abs(noise) > 0.0)


def _mean_cf(chunks, grid) -> np.ndarray:
    """Empirical CF on ``grid`` = (start, stop, points) over an iterable of
    1-D sample chunks: one :func:`empirical_char_fn` call per chunk, folded
    as a running mean
    acc += (phi - acc)·m/n.  The first chunk's CF is taken as is, so a
    single chunk gives exactly the CF of its array, and more chunks the CF
    of their concatenation up to roundoff."""
    acc, n = None, 0
    for x in chunks:
        n += x.size
        phi = empirical_char_fn(x, *grid)
        if acc is None:
            acc = phi
        else:
            acc += (phi - acc) * (x.size / n)
        del x  # else this chunk stays alive while the next one is drawn
    return acc


def _draws(dist, samples: int, rng: RngHandle, centered: bool):
    """``samples`` draws of ``dist``, less its mean when ``centered``, drawn
    lazily at most SAMPLE_CHUNK at a time."""
    sample = _SAMPLERS[type(dist)]
    for lo in range(0, samples, SAMPLE_CHUNK):
        x = sample(dist, rng, size=min(SAMPLE_CHUNK, samples - lo))
        if centered:  # in place: a second array would stay alive while x is folded
            x -= dist.mean
        yield x
        del x  # as in _mean_cf


def check_matching_empirical(pair: Pair, grid, samples: int, rng: RngHandle) -> CfResidualReport:
    """Sampling-based version of :func:`check_matching`, on ``samples``
    draws per side from ``rng``.  The source CF is taken on the grid
    (alpha·start, alpha·stop, points).

    Each side is drawn lazily, SAMPLE_CHUNK samples at a time, and every
    source chunk is drawn before the first noise chunk: the draws are
    exactly those of one-shot arrays of the source and then of the noise.

    Both sides use empirical CFs, so the residual floor is set by Monte
    Carlo error (roughly 1/sqrt(N) per point, amplified by the gamma-th
    power where the noise CF modulus is small).  Points with empirical
    modulus below ``EMPIRICAL_MODULUS_FLOOR`` are marked unreliable: their
    power and residual are NaN and they are excluded from the reported
    maximum, which is NaN when no point is reliable.

    Nearly all the time goes to :func:`empirical_char_fn`, once per chunk;
    the chunk CFs are averaged with weights by size, which equals the CF of
    the concatenated samples up to roundoff.  Memory is one chunk of
    128 KiB at a time plus the CF's 544 KiB of blocks, which it keeps
    between calls, whatever the sample count.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples per side, got {samples}")
    omega = _linspace(grid)
    source_grid = (pair.alpha * grid[0], pair.alpha * grid[1], grid[2])
    lhs = _mean_cf(_draws(pair.source, samples, rng, pair.centered), source_grid)
    noise = _mean_cf(_draws(pair.noise, samples, rng, pair.centered), grid)
    return _build_report(omega, lhs, noise, pair.gamma, np.abs(noise) >= EMPIRICAL_MODULUS_FLOOR)

