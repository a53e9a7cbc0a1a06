import math

import numpy as np
import pytest
from scipy.optimize import brentq

from bpre.bounds import (BoundQuery, H, H_upper, Theorem1Params, dH_dx, log_H,
                         sn_tail_bound, theorem1_bound)
from bpre.env import compute_moments, parse_env_config
from bpre.oracle import exact_sn_tail

# frozen high-precision evaluations of the closed forms
LOG_H_4_2_1 = -1.5276340039075507
H_4_2_1 = 0.2170485964135942
H_4_4_1 = 0.0016
H_UPPER_2_1 = 0.2736687444048389
DH_DX_4_2_1 = -0.31111910232537265
SIGMA = 0.16823611831060648
M_PAPER = 0.3017675109351291
SNB_16_16_PAPER = 9.983111115008003e-11
SNB_16_4_PAPER = 0.2449973592640648
T1_64_1 = 0.3728035521497346
T1_64_64 = 0.0004883802990091069


def q(n, x, v):
    return BoundQuery(n=n, x=x, v=v)


class TestFrozenValues:
    def test_log_h(self):
        assert log_H(q(4, 2.0, 1.0)) == pytest.approx(LOG_H_4_2_1, rel=1e-13)

    def test_h(self):
        assert H(q(4, 2.0, 1.0)) == pytest.approx(H_4_2_1, rel=1e-13)

    def test_h_at_x_equal_n(self):
        # continuous limit: the (n-x)log(n/(n-x)) term vanishes
        assert H(q(4, 4.0, 1.0)) == pytest.approx(H_4_4_1, rel=1e-13)
        # closed form at x=n, v=1: (1/(n+1))^n
        assert H(q(4, 4.0, 1.0)) == pytest.approx(5.0 ** -4, rel=1e-13)

    def test_h_upper(self):
        assert H_upper(2.0, 1.0) == pytest.approx(H_UPPER_2_1, rel=1e-13)

    def test_dh_dx(self):
        assert dH_dx(q(4, 2.0, 1.0)) == pytest.approx(DH_DX_4_2_1, rel=1e-13)

    def test_sn_tail_bound(self):
        assert sn_tail_bound(16, 16.0, SIGMA, M_PAPER) == pytest.approx(
            SNB_16_16_PAPER, rel=1e-12)
        assert sn_tail_bound(16, 4.0, SIGMA, M_PAPER) == pytest.approx(
            SNB_16_4_PAPER, rel=1e-13)

    def test_theorem1_bound(self):
        p1 = Theorem1Params(n=64, m=1, M=M_PAPER, C=1.0, delta=0.9)
        p64 = Theorem1Params(n=64, m=64, M=M_PAPER, C=1.0, delta=0.9)
        assert theorem1_bound(p1) == pytest.approx(T1_64_1, rel=1e-13)
        assert theorem1_bound(p64) == pytest.approx(T1_64_64, rel=1e-13)

    def test_theorem1_bound_formula(self):
        p = Theorem1Params(n=25, m=7, M=0.3, C=2.5, delta=0.8)
        assert theorem1_bound(p) == pytest.approx(
            2.5 * 0.8 ** 7 / (0.3 * 5.0), rel=1e-15)


class TestExactIdentities:
    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    @pytest.mark.parametrize("v", [0.1, 1.0, 10.0])
    def test_h_at_zero_is_exactly_one(self, n, v):
        assert log_H(q(n, 0.0, v)) == 0.0
        assert H(q(n, 0.0, v)) == 1.0

    @pytest.mark.parametrize("n", [1, 4, 16])
    @pytest.mark.parametrize("v", [0.5, 2.0])
    def test_h_vanishes_beyond_n(self, n, v):
        for x in (n + 1e-9, n + 0.5, n + 100.0):
            assert log_H(q(n, x, v)) == -math.inf
            assert H(q(n, x, v)) == 0.0

    @pytest.mark.parametrize("v", [0.1, 1.0, 10.0])
    def test_dh_dx_zero_at_origin(self, v):
        assert dH_dx(q(8, 0.0, v)) == 0.0


class TestGridProperties:
    # same grids the acceptance suite uses, checked property-style
    NS = (1, 4, 16, 64)
    VS = (0.1, 1.0, 10.0)
    POINTS = 256  # acceptance runs the full 1024

    def grid(self, n):
        return [n * i / (self.POINTS - 1) for i in range(self.POINTS)]

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("v", VS)
    def test_h_is_non_increasing(self, n, v):
        values = [H(q(n, x, v)) for x in self.grid(n)]
        violations = [i for i in range(1, len(values))
                      if values[i] > values[i - 1]]
        assert violations == []

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("v", VS)
    def test_h_below_h_upper(self, n, v):
        for x in self.grid(n):
            assert H(q(n, x, v)) <= H_upper(x, v)

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("v", VS)
    def test_dh_dx_matches_central_differences(self, n, v):
        for x in self.grid(n)[1:-1]:
            h = min(1e-5 * (1.0 + x), (n - x) / 3, x / 3)
            fd = (H(q(n, x + h, v)) - H(q(n, x - h, v))) / (2 * h)
            exact = dH_dx(q(n, x, v))
            assert fd == pytest.approx(exact, rel=1e-5), (n, x, v)

    @pytest.mark.parametrize("n", NS)
    @pytest.mark.parametrize("v", VS)
    def test_log_h_consistent_with_h(self, n, v):
        for x in self.grid(n):
            lh = log_H(q(n, x, v))
            assert H(q(n, x, v)) == pytest.approx(math.exp(lh), rel=1e-15)


class TestValidation:
    def test_n_must_be_positive_integer(self):
        for n in (0, -1, 2.0, True):
            with pytest.raises(ValueError):
                BoundQuery(n=n, x=0.0, v=1.0)

    def test_x_must_be_finite_nonnegative(self):
        for x in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                BoundQuery(n=4, x=x, v=1.0)

    def test_v_must_be_positive(self):
        for v in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                BoundQuery(n=4, x=0.0, v=v)

    def test_dh_dx_rejects_x_at_or_beyond_n(self):
        with pytest.raises(ValueError):
            dH_dx(q(4, 4.0, 1.0))

    def test_sn_tail_bound_forms_v_from_sigma_over_m(self):
        n, x, sigma, M = 9, 1.5, 0.4, 0.8
        v = math.sqrt(n) * sigma / M
        assert sn_tail_bound(n, x, sigma, M) == pytest.approx(
            H(q(n, x, v)), rel=1e-15)

    def test_theorem1_params_validation(self):
        with pytest.raises(ValueError):
            Theorem1Params(n=4, m=5, M=0.3, C=1.0, delta=0.5)  # m > n
        with pytest.raises(ValueError):
            Theorem1Params(n=4, m=0, M=0.3, C=1.0, delta=0.5)
        with pytest.raises(ValueError):
            Theorem1Params(n=4, m=2, M=0.3, C=1.0, delta=1.0)  # delta not < 1
        with pytest.raises(ValueError):
            Theorem1Params(n=4, m=2, M=-0.3, C=1.0, delta=0.5)
        with pytest.raises(ValueError):
            Theorem1Params(n=4, m=2, M=0.3, C=0.0, delta=0.5)


# the README model and the bench's {1, 2, 3} model, whose log means are
# symmetric two-point laws like the extremal law of H, and a three-state mix
# whose law is not
CHERNOFF_MODELS = {
    "binary": {"model": "binary", "support": [{"p": 0.25, "mass": 0.5},
                                              {"p": 0.75, "mass": 0.5}]},
    "generic": {"model": "generic", "states": [
        {"label": "low", "mass": 0.5, "offspring": {"1": 0.5, "2": 0.3, "3": 0.2}},
        {"label": "high", "mass": 0.5, "offspring": {"1": 0.2, "2": 0.3, "3": 0.5}}]},
    "three-state": {"model": "generic", "states": [
        {"label": "bin", "mass": 0.4, "offspring": {"1": 0.6, "2": 0.4}},
        {"label": "double", "mass": 0.3, "offspring": {"2": 1.0}},
        {"label": "chain", "mass": 0.3,
         "offspring": {"1": 0.3, "2": 0.5, "3": 0.2}}]},
}


def chernoff_sn(env, n, x, M):
    """inf over theta >= 0 of exp(-theta*x*M + n*Lambda(theta)), with
    Lambda(theta) = log sum_s w_s exp(theta*(X_s - mu)) the log-mgf of one
    step of the walk: the Chernoff bound on P(S_n - n*mu >= x*M)."""
    mom = compute_moments(env)
    w = np.array([mass for _, mass in env.states])
    d = np.array([X for _, _, X in mom.per_state]) - mom.mu
    t, top = x * M / n, d.max()

    def excess(theta):
        # Lambda(theta) - theta*t, shifted by the top deviation so no
        # exponential overflows
        return theta * (top - t) + math.log(w @ np.exp(theta * (d - top)))

    def slope(theta):
        # Lambda'(theta) - t: the tilted mean deviation past t
        e = w * np.exp(theta * (d - top))
        return float(e @ d) / float(e.sum()) - t

    if t > top:
        return 0.0
    if t == top:
        # the infimum is the limit theta -> inf: the top state every step
        return float(w[d == top].sum()) ** n
    if slope(0.0) >= 0.0:
        return math.exp(n * excess(0.0))
    hi = 1.0
    while slope(hi) < 0.0:
        hi *= 2.0
    theta = brentq(slope, 0.0, hi, xtol=1e-15, rtol=1e-15)
    return math.exp(n * excess(theta))


class TestChernoffChain:
    """exact <= Chernoff <= H at every x in [0, n]: H is the Chernoff bound
    of the extremal law with the model's variance and upper bound M, so
    the middle term tests the derivation of H, deterministically."""

    POINTS = 65

    @pytest.mark.parametrize("model", sorted(CHERNOFF_MODELS))
    @pytest.mark.parametrize("m_kind", ["tight", "paper"])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_exact_below_chernoff_below_h(self, model, m_kind, n):
        env = parse_env_config(CHERNOFF_MODELS[model])
        mom = compute_moments(env)
        M = mom.M_tight if m_kind == "tight" else mom.M_paper
        sigma = math.sqrt(mom.sigma2)
        for i in range(self.POINTS):
            x = n * i / (self.POINTS - 1)
            # the walk event (S_n - n*mu)/M >= x, in the normalized form
            # the oracle takes
            exact = exact_sn_tail(env, n, x / n, M, mom.mu)
            chernoff = chernoff_sn(env, n, x, M)
            bound = sn_tail_bound(n, x, sigma, M)
            # at x = n under M_tight exact and Chernoff are both the top
            # state's mass to the n, each rounded its own way
            assert exact <= chernoff * (1 + 1e-12), (x, exact, chernoff)
            assert chernoff <= bound * (1 + 1e-9), (x, chernoff, bound)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_equality_under_m_tight_on_the_extremal_law(self, n):
        # the README model's X - mu is +-M_tight with mass 1/2 each, the
        # extremal two-point law itself, so Chernoff and H agree; at x = n
        # both are the all-high sequence's 2^-n
        env = parse_env_config(CHERNOFF_MODELS["binary"])
        mom = compute_moments(env)
        sigma = math.sqrt(mom.sigma2)
        for i in range(self.POINTS):
            x = n * i / (self.POINTS - 1)
            assert chernoff_sn(env, n, x, mom.M_tight) == pytest.approx(
                sn_tail_bound(n, x, sigma, mom.M_tight), rel=1e-9), x
        assert exact_sn_tail(env, n, 1.0, mom.M_tight, mom.mu) == 2.0 ** -n
        assert chernoff_sn(env, n, n, mom.M_tight) == 2.0 ** -n

    def test_strict_gap_under_m_paper(self):
        # M_paper = log 2 - mu exceeds the law's top deviation
        env = parse_env_config(CHERNOFF_MODELS["binary"])
        mom = compute_moments(env)
        chernoff = chernoff_sn(env, 16, 8.0, mom.M_paper)
        bound = sn_tail_bound(16, 8.0, math.sqrt(mom.sigma2), mom.M_paper)
        assert chernoff == pytest.approx(3.9e-4, rel=0.02)
        assert bound == pytest.approx(5.2e-3, rel=0.02)
