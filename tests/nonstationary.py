"""The per-stage cost homogeneity (stationarity) check, test side: the stage
costs of the simulator's kernel, which a one-way ANOVA F test across the
stages grades, and a deliberately nonstationary policy, the check's
counterexample."""

import math
from dataclasses import dataclass

import numpy as np

from remest import simulator
from remest.strategies import ThresholdAffineStrategy

# The F test passes at a p-value of at least this: the two-sided normal
# tail at 4 SE, the rate of every other check's rule.
STATIONARITY_LEVEL = math.erfc(4 / math.sqrt(2))


def stage_costs(p, strat, horizon, n_episodes, rng) -> np.ndarray:
    """The (episodes, horizon) stage costs, from the kernel's own blocks."""
    costs = np.empty((n_episodes, horizon))

    def keep(b):
        costs[b.r0:b.r1, b.c0:b.c1] = b.cost

    simulator._simulate(p, strat, horizon, n_episodes, rng, keep)
    return costs


@dataclass(frozen=True)
class SwitchedThreshold(ThresholdAffineStrategy):
    """The threshold-affine policy with beta(t) = beta through stage
    ``switch_stage`` and 2·beta after it, in the scheduler and both coder
    maps."""

    switch_stage: int = 0

    def _beta_at(self, t):
        return np.where(np.asarray(t) <= self.switch_stage, self.beta, 2.0 * self.beta)

    def transmit(self, t, x):
        return np.abs(x) > self._beta_at(t)

    def encode(self, t, x):
        p = self.params
        return p.alpha * (np.abs(x) - self._beta_at(t) - 1.0 / p.lam)

    def decode(self, t, y_tilde, s):
        p = self.params
        shrink = p.gamma / (p.gamma + 1.0) if self.matched else 1.0
        return s * (shrink * y_tilde / p.alpha + shrink / p.lam + self._beta_at(t))
