import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from remest.analytics import (
    cost_closed_form,
    cost_derivative,
    numeric_argmin,
    optimal_threshold,
)
from remest.strategies import SystemParams

REF = SystemParams(lam=1.0, k=2.0, p_t=1.0, c=1.0)
BETA_STAR_REF = 1.2909944487358056  # sqrt(5/3)
J_AT_BETA_STAR_REF = 0.7399659905604149  # frozen from the quadrature oracle


def quadrature_cost(p: SystemParams, beta: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integrals."""
    density = stats.laplace(scale=1.0 / p.lam).pdf
    inside, _ = quad(lambda x: 2.0 * x * x * density(x), 0.0, beta, limit=200)
    tail, _ = quad(lambda x: 2.0 * density(x), beta, np.inf, limit=200)
    return inside + (p.c + p.m) * tail


class TestClosedFormCost:
    def test_zero_threshold_is_always_transmit(self):
        b = cost_closed_form(REF, 0.0)
        assert b.total == REF.c + REF.m
        assert b.est_no_tx == 0.0
        assert b.tx_prob == 1.0

    def test_large_threshold_is_never_transmit(self):
        for beta in (50.0, 1e308):  # beta**2 is beyond the float range at 1e308
            b = cost_closed_form(REF, beta)
            assert abs(b.total - 2.0 / REF.lam**2) < 1e-15

    def test_tail_where_beta_squared_is_beyond_the_float_range(self):
        # at lambda = 1e-153, e^(-lam·beta) is still far from 0 where beta**2
        # overflows (beta > 1.34e154) or beta² + 2·beta/lam does (1.3e154);
        # the cost in z = lam·beta, with each tail term taken in logs, is
        # (2 - e^(-z)·(z² + 2z + 2))/lam² + (c + m)·e^(-z)
        p = SystemParams(lam=1e-153, k=1e-20, p_t=1.0, c=1.0)
        for beta in (1.3e154, 1.4e154, 1e155, 1e156, 1e308):
            z = p.lam * beta
            tail = (math.exp(2.0 * math.log(z) - z) + 2.0 * math.exp(math.log(z) - z)
                    + 2.0 * math.exp(-z))
            expected = (2.0 - tail) / p.lam**2 + (p.c + p.m) * math.exp(-z)
            assert cost_closed_form(p, beta).total == pytest.approx(expected, rel=1e-12)

    def test_breakdown_is_consistent(self):
        for beta in (0.0, 0.3, 1.0, 2.5):
            b = cost_closed_form(REF, beta)
            assert b.total == pytest.approx(b.comm + b.est_no_tx + b.est_tx, rel=1e-15)
            assert b.comm == pytest.approx(REF.c * b.tx_prob, rel=1e-15)
            assert b.tx_prob == pytest.approx(math.exp(-REF.lam * beta), rel=1e-15)

    def test_value_at_optimum_frozen(self):
        assert cost_closed_form(REF, BETA_STAR_REF).total == pytest.approx(
            J_AT_BETA_STAR_REF, abs=1e-14
        )

    def test_agrees_with_quadrature_reference_params(self):
        for beta in np.linspace(0.0, 5.0, 20):
            closed = cost_closed_form(REF, float(beta)).total
            assert abs(closed - quadrature_cost(REF, float(beta))) < 1e-10

    def test_agrees_with_quadrature_other_params(self):
        p = SystemParams(lam=2.0, k=0.5, p_t=4.0, c=0.1)
        for beta in np.linspace(0.0, 3.0, 20):
            closed = cost_closed_form(p, float(beta)).total
            assert abs(closed - quadrature_cost(p, float(beta))) < 1e-10

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            cost_closed_form(REF, -0.1)
        with pytest.raises(ValueError):
            cost_closed_form(REF, float("inf"))
        with pytest.raises(ValueError):
            cost_closed_form(REF, float("nan"))


class TestCostDerivative:
    def test_zero_at_optimum(self):
        scale = REF.lam * (REF.c + REF.m)
        assert abs(cost_derivative(REF, BETA_STAR_REF)) < 1e-13 * scale

    def test_sign_pattern(self):
        assert cost_derivative(REF, 0.5 * BETA_STAR_REF) < 0.0
        assert cost_derivative(REF, BETA_STAR_REF - 0.1) < 0.0
        assert cost_derivative(REF, BETA_STAR_REF + 0.1) > 0.0
        assert cost_derivative(REF, 2.0 * BETA_STAR_REF) > 0.0

    def test_frozen_value(self):
        # exp(-2)*(4 - 5/3)
        assert cost_derivative(REF, 2.0) == pytest.approx(0.31578232755209634, abs=1e-15)

    def test_matches_central_finite_difference(self):
        h = 1e-6
        for beta in (0.4, 1.0, BETA_STAR_REF, 2.0, 3.7):
            fd = (
                cost_closed_form(REF, beta + h).total
                - cost_closed_form(REF, beta - h).total
            ) / (2.0 * h)
            assert cost_derivative(REF, beta) == pytest.approx(fd, abs=1e-6)

    def test_rejects_nonpositive_beta(self):
        for beta in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                cost_derivative(REF, beta)

    def test_where_beta_squared_is_beyond_the_float_range(self):
        assert cost_derivative(REF, 1.4e154) == 0.0
        assert cost_derivative(REF, 1e308) == 0.0
        # lam·e^(-z)·beta² = z·e^(-z)·beta stays finite where beta**2 does not
        p = SystemParams(lam=1e-153, k=1e-20, p_t=1.0, c=1.0)
        beta = 2e155
        z = p.lam * beta
        expected = z * math.exp(-z) * beta - p.lam * math.exp(-z) * (p.c + p.m)
        assert cost_derivative(p, beta) == pytest.approx(expected, rel=1e-12)


class TestOptimalThreshold:
    def test_reference_value(self):
        assert optimal_threshold(REF) == pytest.approx(BETA_STAR_REF, abs=1e-15)

    def test_second_parameterization(self):
        p = SystemParams(lam=2.0, k=1.0, p_t=4.0, c=0.5)
        assert optimal_threshold(p) == pytest.approx(math.sqrt(0.625), abs=1e-15)

    def test_vanishes_in_the_cheap_clean_limit(self):
        p = SystemParams(lam=1.0, k=1e-9, p_t=1.0, c=1e-12)
        assert optimal_threshold(p) < 1e-4

    def test_increasing_in_cost(self):
        cheap = SystemParams(lam=1.0, k=2.0, p_t=1.0, c=1.0)
        pricey = SystemParams(lam=1.0, k=2.0, p_t=1.0, c=10.0)
        assert optimal_threshold(pricey) > optimal_threshold(cheap)


class TestNumericArgmin:
    def test_agrees_with_formula(self):
        got = numeric_argmin(REF)
        assert abs(got - BETA_STAR_REF) < 1e-6

    def test_agreement_other_params(self):
        p = SystemParams(lam=2.0, k=1.0, p_t=4.0, c=0.5)
        assert abs(numeric_argmin(p) - optimal_threshold(p)) < 1e-6

    def test_argmin_increases_with_cost(self):
        lo = numeric_argmin(SystemParams(1.0, 2.0, 1.0, 1.0))
        hi = numeric_argmin(SystemParams(1.0, 2.0, 1.0, 10.0))
        assert hi > lo

    def test_finds_a_minimizer_beyond_the_first_bracket(self):
        p = SystemParams(lam=0.05, k=2.0, p_t=1.0, c=1.0)  # beta* = 16.36
        assert abs(numeric_argmin(p) - optimal_threshold(p)) < 1e-6

    @pytest.mark.parametrize("params", [
        (1.1e-154, 1.0, 1.0, 1.0),
        (8e-155, 1e20, 1.0, 1.0),
        (1.0, 2.0, 1.0, 1e300),  # the cost flattens in float64 at a bracket of 2,560
    ], ids=("tiny_lambda", "tiny_lambda_huge_k", "huge_c"))
    def test_finite_on_extreme_models(self, params):
        assert math.isfinite(numeric_argmin(SystemParams(*params)))

    def test_threshold_beats_both_baselines(self):
        # J(beta*) <= J(0) and <= lim J(beta), and <= sampled betas
        j_star = cost_closed_form(REF, BETA_STAR_REF).total
        assert j_star <= cost_closed_form(REF, 0.0).total
        assert j_star <= 2.0 / REF.lam**2
        for beta in np.linspace(0.05, 6.0, 40):
            assert j_star <= cost_closed_form(REF, float(beta)).total + 1e-15

