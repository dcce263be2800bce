"""Stage-by-stage simulation of the sensor -> scheduler -> encoder -> noisy
channel (+ noiseless sign side channel) -> decoder loop, plus Monte Carlo
estimators with standard errors for every statistic the closed-form results
predict.

Every estimator runs on one kernel: the episodes x horizon stages are cut
into blocks of at most ``CHUNK_STAGES`` stages (whole episode rows, or a
column piece of one episode when the horizon is longer than a block), block
i draws its source and noise from ``rng.substream(i)``, the policy is
applied once per block, and the kernel hands each block's stage costs and
its transmit set's error x_hat - x to one visitor, in block order.  Memory
therefore stays bounded by the block size.  The cost folds into episode
totals.  The moment reducers keep running sums and sums of squares of
shifted samples: ``estimate_cost`` can fold the transmission-conditional
statistics in the same pass, four shifted rows of the transmit set that
``CONDITIONAL_ROWS`` pools into its metrics (see ``_fold``).
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
    "CONDITIONAL_ROWS",
    "run_episode",
    "estimate_cost",
    "estimate_conditional_stats",
]

# Stages per block: the kernel holds a few arrays of this length at a time.
# Larger blocks buy little speed and raise the peak memory of short runs.
CHUNK_STAGES = 1 << 12
# The fewest transmissions that give transmission-conditional statistics.
MIN_TRANSMISSIONS = 100
# metric: (the rows of ``_fold``'s shifted array that it pools, the
# transmissions it counts).  The rows are 0 err, 1 y², 2 err²·1{s < 0} and
# 3 err²·1{s > 0}; ``tx_frequency`` comes from the exact count instead.
CONDITIONAL_ROWS = {
    "mse_tx": ((2, 3), "all"),
    "mse_tx_pos": ((3,), "pos"),
    "mse_tx_neg": ((2,), "neg"),
    "power": ((1,), "all"),
    "bias_tx": ((0,), "all"),
}


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
    the (rows, stages) stage costs c·u + (x - x_hat)² ``cost``; the flat
    row-major indices ``on`` of the transmitting entries and their error
    ``err_on`` = x_hat - x, payload ``y_on`` and sign ``s_on``.  Every other
    entry is estimated as 0, so its cost is x²."""

    r0: int
    r1: int
    c0: int
    c1: int
    cost: np.ndarray
    on: np.ndarray
    err_on: np.ndarray
    y_on: np.ndarray
    s_on: np.ndarray


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
              rng: RngHandle, visit) -> None:
    """Call ``visit(block)`` for every block, in block order.

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
        y_on = err_on = np.empty(0)
        s_on = np.empty(0, dtype=np.int8)
        if on.size:
            t_on = on % shape[1] + (c0 + 1)
            y_on = np.asarray(strat.encode(t_on, x_on), dtype=np.float64)
            s_on = payload_sign(x_on)
            err_on = strat.decode(t_on, y_on + v_on, s_on) - x_on
        cost = np.square(x, out=x)  # in place: x is not read again
        np.put(cost, on, np.square(err_on) + p.c)
        visit(_Block(r0, r1, c0, c1, cost, on, err_on, y_on, s_on))

    for i, bounds in enumerate(_layout(horizon, int(n_episodes))):
        block(i, *bounds)


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
        costs[b.c0:b.c1] = b.cost[0]

    _simulate(p, strat, horizon, 1, rng, keep)
    return costs


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
    the ``{metric: estimate or None}`` of the same stages and the reason a
    metric is None, else None and None.

    The visitor adds each block's stage costs into the episode totals and,
    with ``conditional``, writes the rows err = ``err_on``, y², err²·1{s < 0}
    and err²·1{s > 0} of the block's transmit set into one array, less a
    shift: the means of err, y² and err² over the first transmitting block.
    It keeps running totals of the row sums and the row sums of squares, and
    the counts of transmissions and of positive ones; each metric of
    ``CONDITIONAL_ROWS`` adds the totals of its rows.  Shifted sums keep the
    cancellation in M2 = Σd² - (Σd)²/n as small as the shift is close to the
    mean (Chan, Golub & LeVeque 1979, §2), and each row's sum of squares
    overflows only where its M2 does.
    """
    totals = np.zeros(n_episodes)
    n_tx = n_pos = 0  # transmissions, positive ones
    sums = np.zeros((2, 4))  # the shifted rows' sums and sums of squares
    shift = None

    def visit(b: _Block) -> None:
        nonlocal n_tx, n_pos, shift
        totals[b.r0:b.r1] += b.cost.sum(axis=1)
        if conditional and b.on.size:
            d = np.empty((4, b.on.size))
            d[0] = b.err_on
            np.square(b.y_on, out=d[1])
            np.square(b.err_on, out=d[2])
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

    _simulate(p, strat, horizon, n_episodes, rng, visit)
    if not conditional:
        return totals, None, None
    # tx_frequency from the exact count k: mean k/n, M2 = k(n - k)/n
    n = int(horizon) * n_episodes
    rows = dict.fromkeys(CONDITIONAL_ROWS)
    rows["tx_frequency"] = _estimate(n, n_tx / n, n_tx * (n - n_tx) / n)
    if n_tx < MIN_TRANSMISSIONS:
        return totals, rows, (f"only {n_tx} transmissions in {n} stages; "
                              f"need at least {MIN_TRANSMISSIONS} for conditional statistics")
    counts = {"all": n_tx, "pos": n_pos, "neg": n_tx - n_pos}
    shifts = (*shift[:, 0], shift[2, 0])  # the two err² rows share a shift
    for metric, (pooled, counted) in CONDITIONAL_ROWS.items():
        total, squares = np.add.reduce(sums[:, pooled], axis=1)
        rows[metric] = _shifted_estimate(counts[counted], shifts[pooled[0]], total, squares)
    problem = None
    if n_pos < 2 or n_tx - n_pos < 2:
        problem = "a sign branch has fewer than 2 transmissions"
    return totals, rows, problem


def estimate_cost(
    p: SystemParams,
    strat: ThresholdAffineStrategy,
    horizon: int,
    n_episodes: int,
    rng: RngHandle,
    conditional: bool = False,
) -> MonteCarloEstimate | tuple[MonteCarloEstimate, dict, str | None]:
    """Mean per-stage cost across independent episodes.

    Block i always runs on ``rng.substream(i)`` and episode totals are
    summed in block order, so repeated calls with an identically keyed
    handle and the same shape reuse identical draws (the
    common-random-numbers hook for strategy comparisons).  Memory is
    O(block + episodes).  With ``conditional`` the call returns
    ``(cost, rows, problem)``, the conditional rows and reason of
    ``estimate_conditional_stats`` from the blocks of the same pass, and the
    cost is the one the call without it returns.
    """
    n_episodes = int(n_episodes)
    if n_episodes < 2:
        raise ValueError(f"n_episodes must be >= 2, got {n_episodes}")
    totals, rows, problem = _fold(p, strat, horizon, n_episodes, rng, conditional)
    cost = MonteCarloEstimate.from_samples(totals / int(horizon))
    return (cost, rows, problem) if conditional else cost


def estimate_conditional_stats(
    p: SystemParams,
    strat: ThresholdAffineStrategy,
    horizon: int,
    rng: RngHandle,
) -> tuple[dict[str, MonteCarloEstimate | None], str | None]:
    """The transmission-conditional rows of one long episode and the reason
    a row is None (else None): ``tx_frequency`` and each metric of
    ``CONDITIONAL_ROWS``, the conditional squared error overall and per sign
    branch, the payload power E[Y²|U=1] and the bias E[x_hat - x | U=1].
    With fewer than MIN_TRANSMISSIONS transmissions every metric but
    ``tx_frequency`` is None, and so is a sign branch with fewer than 2.
    """
    return _fold(p, strat, horizon, 1, rng, True)[1:]
