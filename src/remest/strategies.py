"""The model constants and the one decision policy of the sensor-to-estimator
pipeline: a vectorized threshold-affine policy (symmetric threshold transmit
rule, affine encoder, sign-aware decoder).  Always transmitting is its
beta = 0 member and never transmitting its beta = inf member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _require_positive

__all__ = [
    "SystemParams",
    "payload_sign",
    "ThresholdAffineStrategy",
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
        return math.sqrt(self.p_t)

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
    """Sign convention used on the side channel: sgn(0) := +1, as int8."""
    return (np.asarray(x) >= 0.0).view(np.int8) * 2 - 1


@dataclass(frozen=True)
class ThresholdAffineStrategy:
    """Transmit exactly when |x| strictly exceeds beta; encode
    alpha·(|x| - beta - 1/lam); decode
    sign·(shrink·y_tilde/alpha + shrink/lam + beta).

    The boundary |x| = beta stays silent, so beta = 0 transmits everything
    except x = 0 (a zero-probability event for the sources here), and
    beta = inf transmits nothing.  Conditioned on a transmission, |x| - beta
    is exponential with rate lam, so the encoder output has conditional
    second moment exactly p_t.  The maps are elementwise over arrays, with
    ``t`` the 1-based stage indices; the coder maps are only called on
    transmitting entries, and a silent stage estimates 0.

    With ``matched`` the decoder applies the MSE-optimal shrink
    gamma/(gamma+1); ``matched=False`` is the noise-blind baseline, whose
    shrink of 1 inverts the encoder exactly and shows that the shrinkage is
    load-bearing.
    """

    params: SystemParams
    beta: float
    matched: bool = True

    def __post_init__(self) -> None:
        if not self.beta >= 0.0:  # also NaN
            raise ValueError(f"beta must be >= 0 (inf never transmits), got {self.beta!r}")

    def transmit(self, t, x):
        return np.abs(x) > self.beta

    def encode(self, t, x):
        p = self.params
        return p.alpha * (np.abs(x) - self.beta - 1.0 / p.lam)

    def decode(self, t, y_tilde, s):
        p = self.params
        shrink = p.gamma / (p.gamma + 1.0) if self.matched else 1.0
        return s * (shrink * y_tilde / p.alpha + shrink / p.lam + self.beta)
