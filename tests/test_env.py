import json
import math

import pytest

from bpre.env import (ConfigError, EnvDistribution, EnvState, OffspringPmf,
                      check_assumptions, compute_moments, parse_env_config,
                      state_mean)

BINARY = {"model": "binary",
          "support": [{"p": 0.25, "mass": 0.5}, {"p": 0.75, "mass": 0.5}]}

DOUBLING = {"model": "generic",
            "states": [{"label": "double", "mass": 1.0, "offspring": {"2": 1.0}}]}

# Two deterministic states with one common mean; a mass-weighted sum of the
# log-means lands one ulp off log 3 at these masses.
EQUAL_MEANS = {"model": "generic",
               "states": [{"label": "a", "mass": 0.7058823529411765,
                           "offspring": {"3": 1.0}},
                          {"label": "b", "mass": 0.29411764705882354,
                           "offspring": {"3": 1.0}}]}

# independent high-precision evaluations (frozen)
MU = 0.39137966962481624
SIGMA2 = 0.028303391504220374
M_TIGHT = 0.16823611831060648
M_PAPER = 0.3017675109351291
A3_WITNESS = 0.43569251349482274
H2_P_WITNESS = 1.0906122448979592
H2_Q_WITNESS = 0.09318288900581956


def binary_env():
    return parse_env_config(BINARY)


class TestParsing:
    def test_binary_shorthand_expands_to_two_point_pmfs(self):
        env = binary_env()
        assert len(env.states) == 2
        state, mass = env.states[0]
        assert mass == 0.5
        assert state.pmf.entries == {1: 0.25, 2: 0.75}
        assert state.label == "p=0.25"

    def test_binary_labels_keep_every_digit_of_p(self):
        # p = 0.1234567 and 0.1234568 agree to 6 significant digits
        env = parse_env_config({"model": "binary", "support": [
            {"p": 0.1234567, "mass": 0.5}, {"p": 0.1234568, "mass": 0.5}]})
        assert [s.label for s, _ in env.states] == ["p=0.1234567",
                                                    "p=0.1234568"]

    def test_accepts_json_text_bytes_and_dict(self):
        text = json.dumps(BINARY)
        for doc in (text, text.encode(), BINARY):
            assert len(parse_env_config(doc).states) == 2

    def test_generic_form(self):
        env = parse_env_config(DOUBLING)
        state, mass = env.states[0]
        assert mass == 1.0
        assert state.pmf.entries == {2: 1.0}
        assert state_mean(state) == 2.0

    def test_invalid_json_is_config_error(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_env_config("{nope")

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown model"):
            parse_env_config({"model": "other"})

    def test_binary_p_bounds_are_strict(self):
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                parse_env_config({"model": "binary",
                                  "support": [{"p": p, "mass": 1.0}]})

    def test_masses_must_sum_to_one(self):
        bad = {"model": "binary",
               "support": [{"p": 0.25, "mass": 0.5}, {"p": 0.75, "mass": 0.6}]}
        with pytest.raises((ConfigError, ValueError)):
            parse_env_config(bad)

    def test_pmf_must_sum_to_one(self):
        bad = {"model": "generic",
               "states": [{"label": "s", "mass": 1.0,
                           "offspring": {"1": 0.5, "2": 0.4}}]}
        with pytest.raises((ConfigError, ValueError)):
            parse_env_config(bad)

    def test_duplicate_labels_rejected(self):
        with pytest.raises((ConfigError, ValueError)):
            EnvDistribution((
                (EnvState("s", OffspringPmf({1: 1.0})), 0.5),
                (EnvState("s", OffspringPmf({2: 1.0})), 0.5)))

    def test_negative_offspring_probability_rejected(self):
        with pytest.raises((ConfigError, ValueError)):
            OffspringPmf({1: 1.2, 2: -0.2})

    def test_k_max(self):
        assert binary_env().k_max == 2
        assert parse_env_config(DOUBLING).k_max == 2


class TestMoments:
    def test_closed_forms_match_high_precision_values(self):
        mom = compute_moments(binary_env())
        assert mom.mu == pytest.approx(MU, abs=1e-12)
        assert mom.sigma2 == pytest.approx(SIGMA2, abs=1e-12)
        assert mom.M_tight == pytest.approx(M_TIGHT, abs=1e-12)
        assert mom.M_paper == pytest.approx(M_PAPER, abs=1e-12)

    def test_closed_forms_recomputed_independently(self):
        # direct formulas rather than the fsum loop
        mom = compute_moments(binary_env())
        mu = 0.5 * math.log(1.75) + 0.5 * math.log(1.25)
        assert mom.mu == pytest.approx(mu, rel=1e-15)
        assert mom.M_paper == pytest.approx(math.log(2) - mu, rel=1e-15)
        assert mom.M_tight == pytest.approx(math.log(1.75) - mu, rel=1e-15)
        var = 0.5 * (math.log(1.75) - mu) ** 2 + 0.5 * (math.log(1.25) - mu) ** 2
        assert mom.sigma2 == pytest.approx(var, rel=1e-14)

    def test_symmetric_binary_env_has_sigma_equal_M_tight(self):
        mom = compute_moments(binary_env())
        assert math.sqrt(mom.sigma2) == pytest.approx(mom.M_tight, rel=1e-14)

    def test_deterministic_env_has_zero_variance(self):
        mom = compute_moments(parse_env_config(DOUBLING))
        assert mom.mu == pytest.approx(math.log(2), rel=1e-15)
        assert mom.sigma2 == 0.0
        assert mom.M_tight == 0.0

    def test_per_state_log_means(self):
        mom = compute_moments(binary_env())
        by_label = {label: (m, x) for label, m, x in mom.per_state}
        assert by_label["p=0.25"][0] == pytest.approx(1.75)
        assert by_label["p=0.25"][1] == pytest.approx(math.log(1.75))
        assert by_label["p=0.75"][0] == pytest.approx(1.25)


class TestAssumptions:
    def test_binary_env_passes_all_six(self):
        report = check_assumptions(binary_env())
        assert [c.check for c in report.checks] == [
            "A1", "A2", "A3", "P0_ZERO", "H1", "H2"]
        assert report.all_pass
        assert all(c.passed for c in report.checks)

    def test_witness_values(self):
        report = check_assumptions(binary_env(), p=2.0, q=3.0)
        by_id = {c.check: c for c in report.checks}
        assert by_id["A1"].value == pytest.approx(MU, abs=1e-12)
        assert by_id["A2"].value == pytest.approx(SIGMA2, abs=1e-12)
        assert by_id["A3"].value == pytest.approx(A3_WITNESS, abs=1e-12)
        assert by_id["H1"].value == pytest.approx(M_TIGHT, abs=1e-12)
        assert by_id["H2"].value == pytest.approx(H2_P_WITNESS, abs=1e-12)

    def test_h2_q_witness_in_message(self):
        report = check_assumptions(binary_env(), p=2.0, q=3.0)
        h2 = next(c for c in report.checks if c.check == "H2")
        found = [float(tok) for tok in
                 h2.message.replace("=", " ").replace(",", " ").replace("(", " ").split()
                 if _is_float(tok)]
        assert any(abs(v - H2_Q_WITNESS) < 1e-9 for v in found)

    def test_p0_positive_fails_p0_zero(self):
        env = parse_env_config({
            "model": "generic",
            "states": [{"label": "risky", "mass": 1.0,
                        "offspring": {"0": 0.1, "2": 0.9}}]})
        report = check_assumptions(env)
        by_id = {c.check: c for c in report.checks}
        assert not by_id["P0_ZERO"].passed
        assert not report.all_pass

    def test_deterministic_env_fails_a2_and_h1(self):
        report = check_assumptions(parse_env_config(DOUBLING))
        by_id = {c.check: c for c in report.checks}
        assert by_id["A1"].passed
        assert not by_id["A2"].passed
        assert not by_id["H1"].passed

    def test_equal_means_fail_a2_and_h1_without_raising(self):
        env = parse_env_config(EQUAL_MEANS)
        mom = compute_moments(env)
        assert mom.mu == math.log(3)
        assert mom.sigma2 == 0.0
        assert mom.M_tight == 0.0
        report = check_assumptions(env)
        failed = [c.check for c in report.checks if not c.passed]
        assert failed == ["A2", "H1"]

    def test_critical_env_fails_a1(self):
        # every individual has exactly one child: mu = log 1 = 0
        env = parse_env_config({
            "model": "generic",
            "states": [{"label": "unit", "mass": 1.0, "offspring": {"1": 1.0}}]})
        report = check_assumptions(env)
        assert not next(c for c in report.checks if c.check == "A1").passed
        assert not report.all_pass

    @pytest.mark.parametrize("order", [{"p": math.inf}, {"p": math.nan},
                                       {"q": math.inf}, {"q": math.nan}])
    def test_nonfinite_order_raises(self, order):
        with pytest.raises(ValueError, match="must be finite"):
            check_assumptions(binary_env(), **order)

    def test_overflowing_witness_names_its_order(self):
        with pytest.raises(ValueError, match="p=5000"):
            check_assumptions(binary_env(), p=5000.0)
        wide = parse_env_config({"model": "generic", "states": [
            {"label": "big", "mass": 0.5, "offspring": {"15": 0.5, "16": 0.5}},
            {"label": "small", "mass": 0.5, "offspring": {"1": 0.5, "2": 0.5}}]})
        with pytest.raises(ValueError, match="q=1000"):
            check_assumptions(wide, q=1000.0)

    def test_report_json_shape(self):
        report = check_assumptions(binary_env())
        doc = report.to_json()
        assert len(doc) == 6
        assert set(doc[0]) == {"check", "pass", "value", "message"}


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False
