import itertools
import math
import sys

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import roots_genlaguerre, roots_laguerre

from remest.analytics import (
    ARGMIN_START,
    cost_closed_form,
    numeric_argmin,
    optimal_threshold,
)
from remest.strategies import SystemParams, ThresholdAffineStrategy

from oracles import cost_derivative

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
            cost_closed_form(REF, float("nan"))

    def test_infinite_threshold_never_transmits(self):
        for matched in (True, False):
            b = cost_closed_form(REF, math.inf, matched)
            assert (b.total, b.est_no_tx, b.tx_prob, b.comm, b.est_tx) == (2.0, 2.0, 0.0, 0.0, 0.0)

    def test_noise_blind_pays_its_error_on_each_transmission(self):
        for beta in (0.0, BETA_STAR_REF, 3.0):
            matched, blind = cost_closed_form(REF, beta), cost_closed_form(REF, beta, False)
            assert (matched.mse_tx, blind.mse_tx) == (REF.m, 6.0)  # k(k+1)/lam²
            assert blind.est_no_tx == matched.est_no_tx
            assert blind.total - matched.total == pytest.approx(
                (6.0 - REF.m) * math.exp(-beta), rel=1e-12)


class TestTransmissionErrorOracle:
    """The coder maps themselves, by Gauss quadrature, against the closed
    form of the error given a transmission; nothing is sampled.

    Given a transmission x = s·(beta + E) with E ~ Exp(lam), and the noise is
    v = theta·V with V ~ Gamma(k, 1).  The error x_hat - x is
    s·(h·G - (1 - h)·E) with G = v/alpha ~ Gamma(k, 1/lam) and h the
    decoder's shrink, a polynomial of degree 2 in E and V, which Laguerre
    nodes (weight e^(-t)) and generalized Laguerre nodes (weight
    t^(k-1)·e^(-t)) integrate exactly.
    """

    NODES = 6

    @staticmethod
    def error_moments(p, beta, matched, s):
        """E[err² | tx, s] and E[err | tx, s], with err = x_hat - x."""
        e_nodes, e_weights = roots_laguerre(TestTransmissionErrorOracle.NODES)
        v_nodes, v_weights = roots_genlaguerre(TestTransmissionErrorOracle.NODES, p.k - 1.0)
        x = np.multiply.outer(s * (beta + e_nodes / p.lam), np.ones_like(v_nodes))
        v = np.multiply.outer(np.ones_like(e_nodes), p.theta * v_nodes)
        weights = np.multiply.outer(e_weights / e_weights.sum(), v_weights / v_weights.sum())
        strat = ThresholdAffineStrategy(p, beta, matched)
        t = np.ones(x.shape, dtype=np.int64)
        x_hat = strat.decode(t, strat.encode(t, x) + v, np.full(x.shape, s))
        err = x_hat - x
        return float(np.sum(weights * err * err)), float(np.sum(weights * err))

    @pytest.mark.parametrize("lam", [2.0**-3, 1.0, 2.0**3])
    @pytest.mark.parametrize("k", [0.5, 2.0, 5.0])
    @pytest.mark.parametrize("matched", [True, False], ids=("matched", "noise_blind"))
    def test_maps_meet_the_closed_form(self, lam, k, matched):
        p = SystemParams(lam=lam, k=k, p_t=2.0, c=1.0)
        beta = optimal_threshold(p)
        shrink = p.gamma / (p.gamma + 1.0) if matched else 1.0
        mse_tx = cost_closed_form(p, beta, matched).mse_tx
        for s in (1, -1):
            mse, bias = self.error_moments(p, beta, matched, s)
            assert mse == pytest.approx(mse_tx, rel=1e-12)
            assert bias == pytest.approx(s * (k * shrink - (1.0 - shrink)) / lam,
                                         rel=1e-12, abs=1e-12 / lam)


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
        # the search runs in z = lam·beta from [0, ARGMIN_START]
        for p in (SystemParams(lam=1.0, k=2.0, p_t=1.0, c=200.0),  # z* = 14.17
                  SystemParams(lam=0.05, k=2.0, p_t=1.0, c=1.0e5)):  # z* = 15.83
            assert p.lam * optimal_threshold(p) > ARGMIN_START
            assert abs(numeric_argmin(p) - optimal_threshold(p)) < 1e-6

    def test_agrees_where_the_cost_dips_little_below_its_plateau(self):
        # J = 2/lam² less a dip of order e^(-lam·beta*), lost to rounding
        # beside 2/lam² at large lam or c; 82 of these 196 models failed, by
        # up to 21.6, when the search read J itself
        for lam, k, c in itertools.product((0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 12.0),
                                           (0.5, 1.0, 2.0, 5.0),
                                           (2.0**-8, 0.1, 1.0, 10.0, 100.0, 200.0, 1000.0)):
            p = SystemParams(lam=lam, k=k, p_t=1.0, c=c)
            assert abs(numeric_argmin(p) - optimal_threshold(p)) < 1e-6, (lam, k, c)

    @pytest.mark.parametrize("lam, c", [(16.0, 1000.0), (1.0, 1e6), (2.0**20, 1000.0),
                                        (2.0**40, 1.0)])
    def test_places_z_where_e_to_the_minus_z_underflows(self, lam, c):
        # e^(-z) is 0 in float64 from z of about 745, and near a large z*
        # P(z) = lam²(c + m) - z² - 2z - 2 cancels: z* = 506, 1000, 3.3e7, 2^40
        p = SystemParams(lam=lam, k=2.0, p_t=1.0, c=c)
        z_star = p.lam * optimal_threshold(p)
        gap = p.lam * abs(numeric_argmin(p) - optimal_threshold(p))
        assert gap < max(1e-6, 8 * math.ulp(z_star)), gap

    @pytest.mark.parametrize("params", [
        (1.1e-154, 1.0, 1.0, 1.0),
        (8e-155, 1e20, 1.0, 1.0),
        (1.0, 2.0, 1.0, 1e300),  # z* = 1e150
        # z* = 1e154, whose square is inf in the bracket's upper part: the
        # search in z returned 2.07
        (1e154, 2.0, 1.0, 1.0),
        (1e150, 2.0, 1.0, 1e10),  # lam²·(c + m) = 1e310 itself: 16,760 in z
    ], ids=("tiny_lambda", "tiny_lambda_huge_k", "huge_c", "huge_lambda", "huge_tx_cost"))
    def test_finite_on_extreme_models(self, params):
        p = SystemParams(*params)
        numeric, formula = numeric_argmin(p), optimal_threshold(p)
        assert math.isfinite(numeric)
        z_star = p.lam * formula
        assert p.lam * abs(numeric - formula) < max(1e-6, 8 * math.ulp(z_star)), numeric

    @pytest.mark.parametrize("params", [(1.3e154, 1e10, 1.0, 1.7e308), (1e150, 2.0, 1.0, 1e10),
                                        (1.0, 2.0, 1.0, 1e300)],
                             ids=("largest_z", "huge_tx_cost", "huge_c"))
    def test_bounded_work_on_extreme_models(self, params):
        # the doubling starts just below z* and the search stops at a few
        # ulps of it, not at ARGMIN_TOL far below them: from ARGMIN_START it
        # compared f 2,015, 1,281 and 1,255 times
        p = SystemParams(*params)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call" and frame.f_code.co_name == "below"

        sys.setprofile(count)
        try:
            numeric = numeric_argmin(p)
        finally:
            sys.setprofile(None)
        assert calls <= 150
        z_star = p.lam * optimal_threshold(p)
        assert p.lam * abs(numeric - optimal_threshold(p)) < max(1e-6, 8 * math.ulp(z_star))

    def test_threshold_beats_both_baselines(self):
        # J(beta*) <= J(0) and <= lim J(beta), and <= sampled betas
        j_star = cost_closed_form(REF, BETA_STAR_REF).total
        assert j_star <= cost_closed_form(REF, 0.0).total
        assert j_star <= 2.0 / REF.lam**2
        for beta in np.linspace(0.05, 6.0, 40):
            assert j_star <= cost_closed_form(REF, float(beta)).total + 1e-15

