"""The cost's derivative in the threshold, test side: the oracle of the
unique-minimizer criterion and of the sign pattern around sqrt(c + m)."""

import math

from remest.strategies import SystemParams


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
