"""Decision policies for the sensor-to-estimator pipeline: one vectorized
threshold-affine policy (symmetric threshold transmit rule, affine encoder,
sign-aware decoder) and the distinguished never-transmit policy, behind one
pluggable interface.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .distributions import _require_positive

__all__ = [
    "SystemParams",
    "payload_sign",
    "Strategy",
    "ThresholdAffineStrategy",
    "NeverTransmitStrategy",
]


@dataclass(frozen=True)
class SystemParams:
    """Model constants and their derived quantities.

    ``lam`` is the source rate (Laplace scale 1/lam), ``k`` the channel noise
    shape, ``p_t`` the conditional transmit power budget, and ``c`` the cost
    charged per transmission.  The noise scale is pinned to theta = sqrt(p_t),
    which makes the encoder gain alpha = lam·theta and the channel
    signal-to-noise ratio gamma = p_t/(k·theta²) = 1/k.  ``m`` is the minimal
    mean squared estimation error attainable given a transmission.
    """

    lam: float
    k: float
    p_t: float
    c: float

    def __post_init__(self) -> None:
        for name in ("lam", "k", "p_t", "c"):
            _require_positive(name, getattr(self, name))
        # an extreme lam leaves m, or beta* = sqrt(c + m), at 0 or infinite
        try:
            m = self.m
        except ArithmeticError:  # lam**2 beyond the float range, or rounded to 0
            m = 0.0 if self.lam > 1.0 else math.inf
        _require_positive("m", m)
        _require_positive("beta*", math.sqrt(self.c + m))

    @property
    def theta(self) -> float:
        return float(np.sqrt(self.p_t))

    @property
    def alpha(self) -> float:
        return self.lam * self.theta

    @property
    def gamma(self) -> float:
        # p_t/(k·theta²) collapses to 1/k exactly because theta² = p_t
        return 1.0 / self.k

    @property
    def m(self) -> float:
        return 1.0 / ((self.gamma + 1.0) * self.lam**2)


def payload_sign(x):
    """Sign convention used on the side channel: sgn(0) := +1."""
    return np.where(np.asarray(x) >= 0.0, 1, -1)


class Strategy(abc.ABC):
    """Per-stage decision triple: transmit test, payload encoder, payload decoder.

    Methods are elementwise over numpy arrays.  ``t`` carries 1-based stage
    indices so time-varying policies are expressible; stationary policies
    ignore it.  ``encode``/``decode`` are only ever called on transmitting
    entries.
    """

    @abc.abstractmethod
    def transmit(self, t, x):
        """Boolean transmit decision per entry."""

    @abc.abstractmethod
    def encode(self, t, x):
        """Channel payload for entries that transmit."""

    @abc.abstractmethod
    def decode(self, t, y_tilde, s):
        """Source estimate for entries that transmit."""

    def silent_estimate(self) -> float:
        """Estimate emitted on silent stages."""
        return 0.0


@dataclass(frozen=True)
class ThresholdAffineStrategy(Strategy):
    """Transmit exactly when |x| strictly exceeds beta; encode
    alpha·(|x| - beta - 1/lam); decode
    sign·(shrink·y_tilde/alpha + shrink/lam + beta).

    The boundary |x| = beta stays silent, so beta = 0 transmits everything
    except x = 0 (a zero-probability event for the sources here).
    Conditioned on a transmission, |x| - beta is exponential with rate lam,
    so the encoder output has conditional second moment exactly p_t.

    With ``matched`` the decoder applies the MSE-optimal shrink
    gamma/(gamma+1); ``matched=False`` is the noise-blind baseline, whose
    shrink of 1 inverts the encoder exactly and shows that the shrinkage is
    load-bearing.  ``switch_stage`` doubles beta (in the scheduler and both
    coder maps) after that stage: a deliberately nonstationary policy used to
    exercise the per-stage cost homogeneity check.
    """

    params: SystemParams
    beta: float
    matched: bool = True
    switch_stage: int | None = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.beta) or self.beta < 0.0:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")

    def _beta_at(self, t):
        if self.switch_stage is None:
            return self.beta
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


@dataclass(frozen=True)
class NeverTransmitStrategy(Strategy):
    """Distinguished always-silent policy (not a beta = inf float)."""

    params: SystemParams

    def transmit(self, t, x):
        return np.zeros(np.shape(x), dtype=bool)

    def encode(self, t, x):
        raise ValueError("never-transmit strategy cannot encode")

    def decode(self, t, y_tilde, s):
        raise ValueError("never-transmit strategy cannot decode")
