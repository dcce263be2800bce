"""Stage-by-stage simulation of the sensor -> scheduler -> encoder -> noisy
channel (+ noiseless sign side channel) -> decoder loop, plus Monte Carlo
estimators with standard errors for every statistic the closed-form results
predict.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import GammaDist, LaplaceDist, RngHandle, sample_gamma, sample_laplace
from .strategies import Strategy, SystemParams, payload_sign

__all__ = [
    "EpisodeTrace",
    "MonteCarloEstimate",
    "ConditionalStats",
    "StationarityReport",
    "run_episode",
    "estimate_cost",
    "estimate_conditional_stats",
    "stationarity_check",
]


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean with its standard error."""

    mean: float
    std_error: float
    n: int

    @classmethod
    def from_samples(cls, samples) -> "MonteCarloEstimate":
        arr = np.asarray(samples, dtype=np.float64).ravel()
        if arr.size < 2:
            raise ValueError(f"need at least 2 samples for a standard error, got {arr.size}")
        return cls(
            mean=float(arr.mean()),
            std_error=float(arr.std(ddof=1) / np.sqrt(arr.size)),
            n=int(arr.size),
        )

    def z_score(self, target: float) -> float:
        gap = self.mean - target
        if self.std_error == 0.0:
            return 0.0 if gap == 0.0 else float("inf")
        return gap / self.std_error

    def covers(self, target: float, sigmas: float = 4.0) -> bool:
        """True when ``target`` lies within ``sigmas`` standard errors."""
        return abs(self.mean - target) <= sigmas * self.std_error

    def to_json_dict(self) -> dict:
        return {"mean": self.mean, "std_error": self.std_error, "n": self.n}


@dataclass(frozen=True, eq=False)
class EpisodeTrace:
    """Columnar record of one episode.

    Payload columns (``y``, ``y_tilde``) hold NaN and the sign column holds 0
    on silent stages.  ``total_cost`` is exactly
    c·(#transmissions) + sum of squared errors.
    """

    params: SystemParams
    horizon: int
    x: np.ndarray
    u: np.ndarray
    y: np.ndarray
    v: np.ndarray
    y_tilde: np.ndarray
    s: np.ndarray
    x_hat: np.ndarray
    stage_cost: np.ndarray
    total_cost: float

    @property
    def n_transmissions(self) -> int:
        return int(np.count_nonzero(self.u))

    def write_jsonl(self, file) -> None:
        """One JSON object per stage; silent stages carry null ``y``, ``y_tilde`` and ``s``."""
        def _write(fh):
            for i in range(self.horizon):
                on = bool(self.u[i])
                fh.write(json.dumps({
                    "t": i + 1,
                    "x": float(self.x[i]),
                    "u": int(self.u[i]),
                    "y": float(self.y[i]) if on else None,
                    "v": float(self.v[i]),
                    "y_tilde": float(self.y_tilde[i]) if on else None,
                    "s": int(self.s[i]) if on else None,
                    "x_hat": float(self.x_hat[i]),
                    "stage_cost": float(self.stage_cost[i]),
                }, sort_keys=True))
                fh.write("\n")

        if hasattr(file, "write"):
            _write(file)
        else:
            with open(file, "w") as fh:
                _write(fh)


def _simulate_block(p: SystemParams, strat: Strategy, t, x, v):
    """Apply the strategy elementwise to pre-drawn source and noise arrays."""
    u = np.asarray(strat.transmit(t, x), dtype=bool)
    y = np.full(x.shape, np.nan)
    y_tilde = np.full(x.shape, np.nan)
    s = np.zeros(x.shape, dtype=np.int8)
    x_hat = np.full(x.shape, float(strat.silent_estimate()))
    if u.any():
        t_on = np.broadcast_to(t, x.shape)[u]
        x_on = x[u]
        y_on = np.asarray(strat.encode(t_on, x_on), dtype=np.float64)
        s_on = payload_sign(x_on).astype(np.int8)
        noisy = y_on + v[u]
        y[u] = y_on
        y_tilde[u] = noisy
        s[u] = s_on
        x_hat[u] = strat.decode(t_on, noisy, s_on)
    stage_cost = p.c * u + (x - x_hat) ** 2
    return u, y, y_tilde, s, x_hat, stage_cost


def run_episode(p: SystemParams, strat: Strategy, horizon: int, rng: RngHandle) -> EpisodeTrace:
    """Simulate ``horizon`` i.i.d. stages under one strategy.

    Per stage: draw the source value, draw the channel noise, apply the
    transmit rule, and on transmission send the encoded payload through the
    additive channel alongside the sign on the side channel.  The noise draw
    happens whether or not the stage transmits, so two strategies evaluated
    under handles with the same key see identical source and noise paths
    (common random numbers).
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    source = LaplaceDist(0.0, 1.0 / p.lam)
    noise = GammaDist(p.k, p.theta)
    x = sample_laplace(source, rng, size=horizon)
    v = sample_gamma(noise, rng, size=horizon)
    t = np.arange(1, horizon + 1)
    u, y, y_tilde, s, x_hat, stage_cost = _simulate_block(p, strat, t, x, v)
    return EpisodeTrace(
        params=p,
        horizon=horizon,
        x=x,
        u=u,
        y=y,
        v=v,
        y_tilde=y_tilde,
        s=s,
        x_hat=x_hat,
        stage_cost=stage_cost,
        total_cost=float(stage_cost.sum()),
    )


def estimate_cost(
    p: SystemParams,
    strat: Strategy,
    horizon: int,
    n_episodes: int,
    rng: RngHandle,
    jobs: int = 1,
) -> MonteCarloEstimate:
    """Mean per-stage cost across independent episodes.

    Episode i always runs on ``rng.substream(i)`` and results are merged by
    episode index, so serial and parallel execution produce identical
    estimates, and repeated calls with an identically-keyed handle reuse
    identical draws (the common-random-numbers hook for strategy
    comparisons).
    """
    n_episodes = int(n_episodes)
    if n_episodes < 2:
        raise ValueError(f"n_episodes must be >= 2, got {n_episodes}")

    def one(i: int) -> float:
        trace = run_episode(p, strat, horizon, rng.substream(i))
        return trace.total_cost / horizon

    if jobs == 1:
        averages = [one(i) for i in range(n_episodes)]
    else:
        with ThreadPoolExecutor(max_workers=int(jobs)) as pool:
            averages = list(pool.map(one, range(n_episodes)))
    return MonteCarloEstimate.from_samples(averages)


@dataclass(frozen=True)
class ConditionalStats:
    """Monte Carlo estimates conditioned on transmission."""

    mse_tx: MonteCarloEstimate
    mse_tx_pos: MonteCarloEstimate
    mse_tx_neg: MonteCarloEstimate
    power: MonteCarloEstimate
    tx_frequency: MonteCarloEstimate
    bias_tx: MonteCarloEstimate
    n_transmissions: int

    def to_json_dict(self) -> dict:
        return {
            "mse_tx": self.mse_tx.to_json_dict(),
            "mse_tx_pos": self.mse_tx_pos.to_json_dict(),
            "mse_tx_neg": self.mse_tx_neg.to_json_dict(),
            "power": self.power.to_json_dict(),
            "tx_frequency": self.tx_frequency.to_json_dict(),
            "bias_tx": self.bias_tx.to_json_dict(),
            "n_transmissions": self.n_transmissions,
        }


def estimate_conditional_stats(
    p: SystemParams,
    strat: Strategy,
    horizon: int,
    rng: RngHandle,
    min_transmissions: int = 100,
) -> ConditionalStats:
    """Transmission-conditional statistics from one long episode.

    Returns estimates of the conditional squared error (overall and per sign
    branch), the conditional payload power E[Y²|U=1], the transmit frequency,
    and the conditional estimator bias E[x_hat - x | U=1].  Raises when the
    episode produced fewer than ``min_transmissions`` transmissions (or a
    sign branch too thin to carry a standard error).
    """
    trace = run_episode(p, strat, horizon, rng)
    on = trace.u
    n_tx = int(np.count_nonzero(on))
    if n_tx < min_transmissions:
        raise ValueError(
            f"only {n_tx} transmissions in {horizon} stages; "
            f"need at least {min_transmissions} for conditional statistics"
        )
    err = trace.x_hat[on] - trace.x[on]
    sq = err**2
    pos = trace.s[on] == 1
    neg = trace.s[on] == -1
    if np.count_nonzero(pos) < 2 or np.count_nonzero(neg) < 2:
        raise ValueError("a sign branch has fewer than 2 transmissions")
    return ConditionalStats(
        mse_tx=MonteCarloEstimate.from_samples(sq),
        mse_tx_pos=MonteCarloEstimate.from_samples(sq[pos]),
        mse_tx_neg=MonteCarloEstimate.from_samples(sq[neg]),
        power=MonteCarloEstimate.from_samples(trace.y[on] ** 2),
        tx_frequency=MonteCarloEstimate.from_samples(on.astype(np.float64)),
        bias_tx=MonteCarloEstimate.from_samples(err),
        n_transmissions=n_tx,
    )


@dataclass(frozen=True)
class StationarityReport:
    """Per-stage mean costs and the largest pairwise discrepancy in joint
    standard-error units."""

    stage_means: tuple[MonteCarloEstimate, ...]
    max_pairwise_z: float
    threshold: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "stage_means": [e.to_json_dict() for e in self.stage_means],
            "max_pairwise_z": self.max_pairwise_z,
            "threshold": self.threshold,
            "passed": self.passed,
        }


def stationarity_check(
    p: SystemParams,
    strat: Strategy,
    horizon: int,
    n_episodes: int,
    rng: RngHandle,
    threshold: float = 4.0,
) -> StationarityReport:
    """Are per-stage mean costs statistically indistinguishable across stages?

    Under a stationary strategy the stage costs are i.i.d. across time, so
    all per-stage means must agree within joint standard errors; a policy
    that changes mid-episode shows up as a large pairwise z.  Episodes are
    drawn as one (n_episodes, horizon) block from the handle, which is
    statistically identical to independent episodes and much faster.
    """
    horizon = int(horizon)
    n_episodes = int(n_episodes)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if n_episodes < 2:
        raise ValueError(f"n_episodes must be >= 2, got {n_episodes}")
    source = LaplaceDist(0.0, 1.0 / p.lam)
    noise = GammaDist(p.k, p.theta)
    x = sample_laplace(source, rng, size=n_episodes * horizon).reshape(n_episodes, horizon)
    v = sample_gamma(noise, rng, size=n_episodes * horizon).reshape(n_episodes, horizon)
    t = np.arange(1, horizon + 1)[None, :]
    _, _, _, _, _, stage_cost = _simulate_block(p, strat, t, x, v)

    means = stage_cost.mean(axis=0)
    ses = stage_cost.std(axis=0, ddof=1) / np.sqrt(n_episodes)
    if horizon == 1:
        max_z = 0.0
    else:
        gap = np.abs(means[:, None] - means[None, :])
        joint = np.sqrt(ses[:, None] ** 2 + ses[None, :] ** 2)
        iu = np.triu_indices(horizon, k=1)
        max_z = float(np.max(gap[iu] / joint[iu]))
    estimates = tuple(
        MonteCarloEstimate(mean=float(means[i]), std_error=float(ses[i]), n=n_episodes)
        for i in range(horizon)
    )
    return StationarityReport(
        stage_means=estimates,
        max_pairwise_z=max_z,
        threshold=threshold,
        passed=bool(max_z < threshold),
    )
