"""Closed-form expected stage cost of a threshold policy with the matched
affine coder, its derivative in the threshold, the optimal threshold
sqrt(c + m), and a golden-section minimizer used as an independent numerical
cross-check.  The ``sweep`` command evaluates them over a parameter grid.
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
    "cost_derivative",
    "optimal_threshold",
    "numeric_argmin",
]


@dataclass(frozen=True)
class CostBreakdown:
    """Expected per-stage cost split into its three terms.

    total = comm + est_no_tx + est_tx, where comm = c·tx_prob, est_no_tx is
    the truncated second moment inside the silence band, and est_tx is the
    residual estimation error m carried by each transmission.
    """

    total: float
    comm: float
    est_no_tx: float
    est_tx: float
    tx_prob: float


def cost_closed_form(p: SystemParams, beta: float) -> CostBreakdown:
    """Expected stage cost of threshold ``beta`` with the matched coder.

    For the two-sided exponential source the silence-band term has
    antiderivative

        2·int_0^beta x²·(lam/2)·e^(-lam·x) dx
            = 2/lam² - e^(-lam·beta)·(beta² + 2·beta/lam + 2/lam²),

    and a transmission occurs with probability e^(-lam·beta), costing c + m.
    The antiderivative is verified against adaptive quadrature in the tests.
    Where beta² or 2·beta/lam is beyond the float range, the tail is computed
    in z = lam·beta, and it is 0 once e^(-z) underflows: the cost is 2/lam².
    """
    if not math.isfinite(beta) or beta < 0.0:
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    return CostBreakdown(*_cost_terms(p.lam, p.c, p.m, beta))


def _cost_terms(lam: float, c: float, m: float, beta: float):
    """(total, comm, est_no_tx, est_tx, tx_prob) of :func:`cost_closed_form`
    at a valid ``beta``; ``numeric_argmin`` reads the total of each probe
    from here without building a CostBreakdown."""
    tx_prob = math.exp(-lam * beta)
    try:
        tail = tx_prob * (beta**2 + 2.0 * beta / lam + 2.0 / lam**2)
    except OverflowError:
        tail = math.inf
    if not math.isfinite(tail):  # beta² or 2·beta/lam beyond the float range
        z = lam * beta
        tail = tx_prob and tx_prob * (z * z + 2.0 * z + 2.0) / lam**2
    est_no_tx = 2.0 / lam**2 - tail
    comm = c * tx_prob
    est_tx = m * tx_prob
    return est_no_tx + comm + est_tx, comm, est_no_tx, est_tx, tx_prob


def cost_derivative(p: SystemParams, beta: float) -> float:
    """d(total)/d(beta) = lam·e^(-lam·beta)·(beta² - (c + m)).

    Negative below sqrt(c + m), zero there, positive above: the expected
    cost is strictly unimodal in the threshold.
    """
    if not math.isfinite(beta) or beta <= 0.0:
        raise ValueError(f"beta must be finite and > 0, got {beta!r}")
    rate = p.lam * math.exp(-p.lam * beta)
    # rate·beta = z·e^(-z) <= 1/e, so this is finite where beta² is not
    return rate * beta * beta - rate * (p.c + p.m)


def optimal_threshold(p: SystemParams) -> float:
    """The unique cost-minimizing threshold sqrt(c + m)."""
    return math.sqrt(p.c + p.m)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0
# The golden-section search starts from the bracket [0, ARGMIN_START] and
# stops when the bracket is narrower than ARGMIN_TOL.
ARGMIN_START = 10.0
ARGMIN_TOL = 1e-8


def numeric_argmin(p: SystemParams) -> float:
    """Golden-section minimizer of the closed-form cost over [0, hi].

    Deliberately independent of :func:`cost_derivative` and of the sqrt(c+m)
    formula, so it can serve as an oracle for both.  The bracket is found
    from the cost alone: ``hi`` starts at ARGMIN_START and doubles while
    J(hi) < J(hi/2).  The cost is unimodal on (0, inf), so the minimizer then
    lies below ``hi``; a cost flat in float64 stops the doubling too.
    """
    lam, c, m = p.lam, p.c, p.m

    def objective(b: float) -> float:
        return _cost_terms(lam, c, m, b)[0]

    hi = ARGMIN_START
    while objective(hi) < objective(hi / 2.0):
        hi *= 2.0
    n_iter = int(math.ceil(math.log(ARGMIN_TOL / hi) / math.log(_INV_PHI)))
    a, b, dist = 0.0, hi, hi
    c_pt, d_pt = _INV_PHI_SQ * dist, _INV_PHI * dist
    yc, yd = objective(c_pt), objective(d_pt)
    for _ in range(n_iter - 1):
        if yc < yd:
            b, d_pt, yd = d_pt, c_pt, yc
            dist *= _INV_PHI
            c_pt = a + _INV_PHI_SQ * dist
            yc = objective(c_pt)
        else:
            a, c_pt, yc = c_pt, d_pt, yd
            dist *= _INV_PHI
            d_pt = a + _INV_PHI * dist
            yd = objective(d_pt)
    return 0.5 * (a + d_pt) if yc < yd else 0.5 * (c_pt + b)

