"""A deliberately nonstationary policy, the counterexample of the per-stage
cost homogeneity (stationarity) check."""

from dataclasses import dataclass

import numpy as np

from remest.strategies import ThresholdAffineStrategy


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
