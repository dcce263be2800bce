"""Every closed form of the model: the expected stage cost of a threshold
policy with the matched or the noise-blind affine coder and its error given
a transmission, the optimal threshold sqrt(c + m), and a golden-section
minimizer in z = lam·beta used as an independent numerical cross-check.
Each command takes its targets from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .strategies import SystemParams

__all__ = [
    "ARGMIN_START",
    "ARGMIN_TOL",
    "CostBreakdown",
    "cost_closed_form",
    "optimal_threshold",
    "numeric_argmin",
]


@dataclass(frozen=True)
class CostBreakdown:
    """Expected per-stage cost split into its three terms.

    total = comm + est_no_tx + est_tx, where comm = c·tx_prob, est_no_tx is
    the truncated second moment inside the silence band, and est_tx is the
    estimation error mse_tx = E[err² | tx] carried by each transmission.
    """

    total: float
    comm: float
    est_no_tx: float
    est_tx: float
    tx_prob: float
    mse_tx: float


def cost_closed_form(p: SystemParams, beta: float, matched: bool = True) -> CostBreakdown:
    """Expected stage cost of threshold ``beta`` (inf never transmits) with
    the matched coder, or with the noise-blind one when not ``matched``.

    For the two-sided exponential source the silence-band term has
    antiderivative

        2·int_0^beta x²·(lam/2)·e^(-lam·x) dx
            = 2/lam² - e^(-lam·beta)·(beta² + 2·beta/lam + 2/lam²),

    and a transmission occurs with probability e^(-lam·beta), costing
    c + mse_tx.  Given a transmission the matched decoder errs by m; the
    noise-blind one inverts the encoder, so it errs by s·G with
    G ~ Gamma(k, 1/lam), whose second moment is k(k+1)/lam².  The
    antiderivative is verified against adaptive quadrature in the tests.
    The tail is computed in z = lam·beta, so beta² and 2·beta/lam never leave
    the float range, and it is 0 once e^(-z) underflows: the cost is 2/lam².
    """
    if not beta >= 0.0:  # also NaN
        raise ValueError(f"beta must be >= 0, got {beta!r}")
    lam = p.lam
    z = lam * beta
    tx_prob = math.exp(-z)
    tail = tx_prob and tx_prob * (z * z + 2.0 * z + 2.0) / lam**2
    mse_tx = p.m if matched else p.k * (p.k + 1.0) / lam**2
    comm = p.c * tx_prob
    est_tx = mse_tx * tx_prob
    est_no_tx = 2.0 / lam**2 - tail
    return CostBreakdown(est_no_tx + comm + est_tx, comm, est_no_tx, est_tx, tx_prob, mse_tx)


def optimal_threshold(p: SystemParams) -> float:
    """The unique cost-minimizing threshold sqrt(c + m)."""
    return math.sqrt(p.c + p.m)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0
# The golden-section search in z = lam·beta starts from a bracket [0, hi] with
# hi >= ARGMIN_START and stops when it is narrower than ARGMIN_TOL, or than
# 2 ulps of hi where those are wider.
ARGMIN_START = 10.0
ARGMIN_TOL = 1e-8


def numeric_argmin(p: SystemParams) -> float:
    """Golden-section minimizer of the closed-form cost, searched in
    z = lam·beta and returned as z/lam.

    Its objective is lam²·J less its constant 2, f(z) = e^(-z)·P(z) with
    P(z) = lam²·(c + m) - z² - 2·z - 2: beside 2 the dip of the cost would
    be lost to rounding.  Two values of f are compared by the signs of P and
    log(f(z1)/f(z2)) = log1p((P(z1) - P(z2))/P(z2)) + z2 - z1, which neither
    underflows with e^(-z) nor cancels with P near a large minimizer.
    Deliberately independent of the sqrt(c+m) formula and of the cost's
    derivative, so it can serve as an oracle for both.  ``hi`` starts
    at ARGMIN_START, or at 2^(e-2) below z* >= 2^(e-1.5) where that is
    larger, and doubles while f(hi) < f(hi/2); f is unimodal on (0, inf),
    so the minimizer then lies below ``hi``.  Where lam²·(c + m) passes
    2^1000, z runs in units of ``scale``, the power of two that keeps z² in
    the float range, and P in units of scale².  Elsewhere ``scale`` is 1.
    """
    lam, c_m = p.lam, p.c + p.m
    e = (2 * math.frexp(lam)[1] + math.frexp(c_m)[1]) // 2  # z* lies in [2^(e-1.5), 2^(e+0.5))
    scale = math.ldexp(1.0, max(0, e - 500))
    tx_cost = float((lam / scale) ** 2 * c_m)  # a transmission's cost in units of (scale/lam)²
    two = 2.0 / scale  # 2·z and 2 in these units are two·z and two/scale

    def below(z1: float, z2: float) -> bool:  # f(z1) < f(z2), both in units of scale
        p1 = tx_cost - z1 * z1 - two * z1 - two / scale
        p2 = tx_cost - z2 * z2 - two * z2 - two / scale
        if p1 * p2 <= 0.0:  # the signs differ, or a P is 0
            return p1 < p2
        step = (z2 - z1) * (z1 + z2 + two) / p2  # P(z1)/P(z2) - 1, free of P's cancellation
        ratio = math.log1p(step) if abs(step) < 0.5 else math.log(abs(p1)) - math.log(abs(p2))
        dz = scale * (z2 - z1)
        return (ratio + dz) * p1 < 0.0

    hi = max(ARGMIN_START, math.ldexp(1.0, min(e, 500) - 2))  # 2^(e-2) in units of scale
    while below(hi, hi / 2.0):
        hi *= 2.0
    tol = max(ARGMIN_TOL, 2.0 * math.ulp(hi))  # ARGMIN_TOL lies below the ulps of a large z*
    n_iter = int(math.ceil(math.log(tol / hi) / math.log(_INV_PHI)))
    a, b, dist = 0.0, hi, hi
    c_pt, d_pt = _INV_PHI_SQ * dist, _INV_PHI * dist
    for _ in range(n_iter - 1):
        dist *= _INV_PHI
        if below(c_pt, d_pt):
            b, d_pt = d_pt, c_pt
            c_pt = a + _INV_PHI_SQ * dist
        else:
            a, c_pt = c_pt, d_pt
            d_pt = a + _INV_PHI * dist
    return (0.5 * (a + d_pt) if below(c_pt, d_pt) else 0.5 * (c_pt + b)) / (lam / scale)
