"""Stage-by-stage simulation of the sensor -> scheduler -> encoder -> noisy
channel (+ noiseless sign side channel) -> decoder loop, plus Monte Carlo
estimators with standard errors for every statistic the closed-form results
predict.

Every estimator runs on one kernel: the episodes x horizon stages are cut
into blocks of at most ``CHUNK_STAGES`` stages (whole episode rows, or a
column piece of one episode when the horizon is longer than a block), block
i draws its source and noise from ``rng.substream(i)``, the policy is
applied once per block, and each estimator folds the blocks, in block
order, into its own small reducer.  Memory therefore stays bounded by the
block size.  The cost folds into episode totals.  The moment reducers keep
running sums and sums of squares of shifted samples: ``estimate_cost`` can
fold the transmission-conditional statistics in the same pass, four shifted
rows of the transmit set (see ``_fold``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import GammaDist, LaplaceDist, RngHandle, sample_gamma, sample_laplace
from .strategies import SystemParams, ThresholdAffineStrategy, payload_sign

__all__ = [
    "CHUNK_STAGES",
    "MIN_TRANSMISSIONS",
    "MonteCarloEstimate",
    "ConditionalStats",
    "run_episode",
    "estimate_cost",
    "estimate_conditional_stats",
]

# Stages per block: the kernel holds a few arrays of this length at a time.
# Larger blocks buy little speed and raise the peak memory of short runs.
CHUNK_STAGES = 1 << 12
# The fewest transmissions that give transmission-conditional statistics.
MIN_TRANSMISSIONS = 100


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean with its standard error."""

    mean: float
    std_error: float
    n: int

    @classmethod
    def from_samples(cls, samples) -> "MonteCarloEstimate":
        arr = np.asarray(samples, dtype=np.float64)
        if arr.size < 2:
            raise ValueError(f"need at least 2 samples for a standard error, got {arr.size}")
        # np.add.reduce is the pairwise sum behind mean() and sum(), without
        # their wrappers' per-call cost; the values are the same bits
        mean = np.add.reduce(arr, axis=None) / arr.size
        dev = arr - mean
        return _estimate(arr.size, mean, np.add.reduce(np.square(dev, out=dev), axis=None))

    def _finite(self) -> bool:
        return math.isfinite(self.mean) and math.isfinite(self.std_error)

    def z_score(self, target: float) -> float:
        """The gap to ``target`` in standard errors; NaN unless mean and SE are finite."""
        if not self._finite():
            return math.nan
        gap = self.mean - target
        if self.std_error == 0.0:
            return 0.0 if gap == 0.0 else float("inf")
        return gap / self.std_error

    def covers(self, target: float, sigmas: float = 4.0) -> bool:
        """True when ``target`` lies within ``sigmas`` finite SEs of a finite mean."""
        return self._finite() and abs(self.mean - target) <= sigmas * self.std_error


def _estimate(n: int, mean, m2) -> MonteCarloEstimate:
    """The estimate of the mean of ``n`` >= 2 samples from their mean and M2."""
    se = np.sqrt(m2 / (n - 1)) / np.sqrt(n)
    return MonteCarloEstimate(mean=float(mean), std_error=float(se), n=n)


class _Block(NamedTuple):
    """Episodes ``r0:r1``, stages ``c0+1..c1`` of each, after the policy ran:
    the (rows, stages) source ``x``; the flat row-major indices ``on`` of the
    transmitting entries and their source ``x_on``, noise ``v_on``, payload
    ``y_on``, sign ``s_on`` and estimate ``xhat_on``.  Every other entry is
    estimated as 0."""

    r0: int
    r1: int
    c0: int
    c1: int
    x: np.ndarray
    on: np.ndarray
    x_on: np.ndarray
    v_on: np.ndarray
    y_on: np.ndarray
    s_on: np.ndarray
    xhat_on: np.ndarray


def _layout(horizon: int, n_episodes: int):
    """(r0, r1, c0, c1) of each block, in block order."""
    if horizon <= CHUNK_STAGES:
        rows = CHUNK_STAGES // horizon
        for r0 in range(0, n_episodes, rows):
            yield r0, min(r0 + rows, n_episodes), 0, horizon
    else:
        for r in range(n_episodes):
            for c0 in range(0, horizon, CHUNK_STAGES):
                yield r, r + 1, c0, min(c0 + CHUNK_STAGES, horizon)


def _simulate(p: SystemParams, strat: ThresholdAffineStrategy, horizon: int, n_episodes: int,
              rng: RngHandle, reduce):
    """Yield ``reduce(block)`` for every block, in block order.

    Block i draws the source and then the channel noise from
    ``rng.substream(i)``; the noise is drawn whether or not a stage
    transmits, so strategies run under identically keyed handles see the
    same paths (common random numbers).
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    source = LaplaceDist(1.0 / p.lam)
    noise = GammaDist(p.k, p.theta)

    # one call per block, so a block's arrays are freed before the next is drawn
    def block(i, r0, r1, c0, c1):
        sub = rng.substream(i)
        shape = (r1 - r0, c1 - c0)
        x = sample_laplace(source, sub, size=shape[0] * shape[1]).reshape(shape)
        on = np.flatnonzero(np.asarray(strat.transmit(np.arange(c0 + 1, c1 + 1), x), dtype=bool))
        # the policy runs on the transmit set only, gathered once; the
        # transmit rule draws nothing, so the noise still follows the source
        x_on, v_on = x.take(on), sample_gamma(noise, sub, size=x.size).take(on)
        y_on = xhat_on = np.empty(0)
        s_on = np.empty(0, dtype=np.int8)
        if on.size:
            t_on = on % shape[1] + (c0 + 1)
            y_on = np.asarray(strat.encode(t_on, x_on), dtype=np.float64)
            s_on = payload_sign(x_on)
            xhat_on = np.asarray(strat.decode(t_on, y_on + v_on, s_on), dtype=np.float64)
        return reduce(_Block(r0, r1, c0, c1, x, on, x_on, v_on, y_on, s_on, xhat_on))

    for i, bounds in enumerate(_layout(horizon, int(n_episodes))):
        yield block(i, *bounds)


def _stage_cost(p: SystemParams, b: _Block) -> np.ndarray:
    """c·u + (x - x_hat)² of every entry of the block, in a new array."""
    cost = np.square(b.x)
    np.put(cost, b.on, np.square(b.x_on - b.xhat_on) + p.c)
    return cost


def run_episode(p: SystemParams, strat: ThresholdAffineStrategy, horizon: int,
                rng: RngHandle) -> np.ndarray:
    """The ``horizon`` stage costs c·u + (x - x_hat)² of one episode of
    i.i.d. stages under one strategy, 8 bytes a stage.

    The episode runs on the same blocks as the estimators, so it draws
    exactly what ``estimate_conditional_stats`` draws from an identically
    keyed handle.
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    costs = np.empty(horizon)

    def keep(b: _Block) -> None:
        costs[b.c0:b.c1] = _stage_cost(p, b)[0]

    for _ in _simulate(p, strat, horizon, 1, rng, keep):
        pass
    return costs


@dataclass(frozen=True)
class ConditionalStats:
    """Monte Carlo estimates conditioned on transmission.

    A statistic that cannot be estimated is None, and ``problem`` says why.
    """

    mse_tx: MonteCarloEstimate | None
    mse_tx_pos: MonteCarloEstimate | None
    mse_tx_neg: MonteCarloEstimate | None
    power: MonteCarloEstimate | None
    tx_frequency: MonteCarloEstimate | None
    bias_tx: MonteCarloEstimate | None
    n_transmissions: int
    problem: str | None = None


def _shifted_estimate(n: int, shift: float, total: float,
                      squares: float) -> MonteCarloEstimate | None:
    """The estimate of ``n`` samples, or None below 2, from the sum and the
    sum of squares of the samples less ``shift``."""
    if n < 2:
        return None
    # (s/n)·s, not s²/n: s² can overflow where the sum of squares does not;
    # roundoff can take the M2 of near-constant samples below 0
    return _estimate(n, shift + total / n, max(squares - total / n * total, 0.0))


def _fold(p: SystemParams, strat: ThresholdAffineStrategy, horizon: int, n_episodes: int,
          rng: RngHandle, conditional: bool):
    """One pass over the blocks: the episode totals and, with ``conditional``,
    the ConditionalStats of the same stages (else None).

    The conditional reducer writes the rows err, y², err²·1{s < 0} and
    err²·1{s > 0} of a block's transmit set, with err = x_hat - x, into one
    array, less a shift: the means of err, y² and err² over the first
    transmitting block.  It keeps running totals of the row sums and the row
    sums of squares, and the counts of transmissions and of positive ones;
    err² over both branches is the sum of the two branch rows.  Shifted sums
    keep the cancellation in M2 = Σd² - (Σd)²/n as small as the shift is
    close to the mean (Chan, Golub & LeVeque 1979, §2), and each row's sum
    of squares overflows only where its M2 does.
    """
    totals = np.zeros(n_episodes)
    n_tx = n_pos = 0  # transmissions, positive ones
    sums = np.zeros((2, 4))  # the shifted rows' sums and sums of squares
    shift = None

    def reduce(b: _Block):
        nonlocal n_tx, n_pos, shift
        cost = _stage_cost(p, b).sum(axis=1)  # frees the block's stage costs first
        if conditional and b.on.size:
            d = np.empty((4, b.on.size))
            np.subtract(b.xhat_on, b.x_on, out=d[0])
            np.square(b.y_on, out=d[1])
            np.square(d[0], out=d[2])
            if shift is None:
                shift = np.add.reduce(d[:3], axis=1, keepdims=True) / b.on.size
            d[:3] -= shift
            pos = b.s_on > 0
            np.multiply(d[2], pos, out=d[3])
            d[2] -= d[3]  # exact: d - d = 0 and d - 0 = d
            sums[0] += np.add.reduce(d, axis=1)
            sums[1] += np.add.reduce(np.square(d, out=d), axis=1)
            n_tx += b.on.size
            n_pos += int(np.count_nonzero(pos))
        return b.r0, b.r1, cost

    for r0, r1, part in _simulate(p, strat, horizon, n_episodes, rng, reduce):
        totals[r0:r1] += part
    if not conditional:
        return totals, None
    # tx_frequency from the exact count k: mean k/n, M2 = k(n - k)/n
    n = int(horizon) * n_episodes
    freq = _estimate(n, n_tx / n, n_tx * (n - n_tx) / n)
    if n_tx < MIN_TRANSMISSIONS:
        problem = (f"only {n_tx} transmissions in {n} stages; "
                   f"need at least {MIN_TRANSMISSIONS} for conditional statistics")
        return totals, ConditionalStats(None, None, None, None, freq, None, n_tx, problem)
    (s_err, s_y2, s_neg, s_pos), (q_err, q_y2, q_neg, q_pos) = sums
    k_err, k_y2, k_sq = shift[:, 0]
    problem = None
    if n_pos < 2 or n_tx - n_pos < 2:
        problem = "a sign branch has fewer than 2 transmissions"
    return totals, ConditionalStats(
        mse_tx=_shifted_estimate(n_tx, k_sq, s_neg + s_pos, q_neg + q_pos),
        mse_tx_pos=_shifted_estimate(n_pos, k_sq, s_pos, q_pos),
        mse_tx_neg=_shifted_estimate(n_tx - n_pos, k_sq, s_neg, q_neg),
        power=_shifted_estimate(n_tx, k_y2, s_y2, q_y2),
        tx_frequency=freq,
        bias_tx=_shifted_estimate(n_tx, k_err, s_err, q_err),
        n_transmissions=n_tx,
        problem=problem,
    )


def estimate_cost(
    p: SystemParams,
    strat: ThresholdAffineStrategy,
    horizon: int,
    n_episodes: int,
    rng: RngHandle,
    conditional: bool = False,
) -> MonteCarloEstimate | tuple[MonteCarloEstimate, ConditionalStats]:
    """Mean per-stage cost across independent episodes.

    Block i always runs on ``rng.substream(i)`` and episode totals are
    summed in block order, so repeated calls with an identically keyed
    handle and the same shape reuse identical draws (the
    common-random-numbers hook for strategy comparisons).  Memory is
    O(block + episodes).  With ``conditional`` the call returns
    ``(cost, ConditionalStats)``, both from the blocks of one pass, and the
    cost is the one the call without it returns.
    """
    n_episodes = int(n_episodes)
    if n_episodes < 2:
        raise ValueError(f"n_episodes must be >= 2, got {n_episodes}")
    totals, stats = _fold(p, strat, horizon, n_episodes, rng, conditional)
    cost = MonteCarloEstimate.from_samples(totals / int(horizon))
    return (cost, stats) if conditional else cost


def estimate_conditional_stats(
    p: SystemParams,
    strat: ThresholdAffineStrategy,
    horizon: int,
    rng: RngHandle,
) -> ConditionalStats:
    """Transmission-conditional statistics from one long episode.

    Returns estimates of the conditional squared error (overall and per sign
    branch), the conditional payload power E[Y²|U=1], the transmit frequency,
    and the conditional estimator bias E[x_hat - x | U=1], each reduced
    block by block into shifted sums and sums of squares.  With fewer than
    MIN_TRANSMISSIONS transmissions the transmission-conditional
    statistics cannot be estimated, nor can a sign branch with fewer than 2
    transmissions; those statistics are then None and ``problem`` says why.
    """
    return _fold(p, strat, horizon, 1, rng, True)[1]
