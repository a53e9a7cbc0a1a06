import hashlib
import json
import math
import platform
import runpy
import shlex
import tracemalloc
from pathlib import Path

import numpy as np

import pytest

from bpre import cli, estimate, oracle
from bpre.bounds import BoundQuery, H, H_upper, log_H, sn_tail_bound
from bpre.env import (ResourceCapError, compute_moments, parse_env_config,
                      state_log_mean)
from bpre.estimate import IncrementStat, IncrementStats, _head_depth
from bpre.oracle import exact_logZn_tail, exact_sn_tail
import bpre.simulate
from bpre.simulate import DOMAIN_SIMULATE, EnvTables, simulate_block, stream
from models import BINARY, DOUBLING

BINARY_TEXT = json.dumps(BINARY)
DOUBLING_TEXT = json.dumps(DOUBLING)
# Z doubles in about half the generations: at --n 1024 it passes the 2^512
# cap, and at --n 64 it cannot reach it.
STAY_OR_DOUBLE_TEXT = json.dumps({
    "model": "generic",
    "states": [{"label": "stay", "mass": 0.5, "offspring": {"1": 1.0}},
               {"label": "double", "mass": 0.5, "offspring": {"2": 1.0}}]})
# four {1, 2} states: C(n + 3, 3) state-count compositions, 23,426 at
# n = 50 and, past oracle.MAX_COMPOSITIONS, 1,373,701 at n = 200
FOUR_TEXT = json.dumps({
    "model": "binary",
    "support": [{"p": p, "mass": 0.25} for p in (0.2, 0.4, 0.6, 0.8)]})
# two point-mass states: every log W increment is 0, yet M > 0
TWO_OR_THREE_TEXT = json.dumps({
    "model": "generic",
    "states": [{"label": "two", "mass": 0.5, "offspring": {"2": 1.0}},
               {"label": "three", "mass": 0.5, "offspring": {"3": 1.0}}]})
RISKY_TEXT = json.dumps({
    "model": "generic",
    "states": [{"label": "risky", "mass": 1.0,
                "offspring": {"0": 0.1, "3": 0.9}}]})


def doubling_means(env, n, trials, seed, workers=1):
    """Increment means that double per generation, an mc_logw_increments
    stand-in: they fit delta_hat = 2, outside (0, 1)."""
    return IncrementStats([IncrementStat(k=k, mean=0.01 * 2.0 ** k, stderr=0.0)
                           for k in range(n)], False)


@pytest.fixture
def binary_cfg(tmp_path):
    path = tmp_path / "binary.json"
    path.write_text(BINARY_TEXT)
    return str(path)


@pytest.fixture
def doubling_cfg(tmp_path):
    path = tmp_path / "doubling.json"
    path.write_text(DOUBLING_TEXT)
    return str(path)


@pytest.fixture
def stay_or_double_cfg(tmp_path):
    path = tmp_path / "stay_or_double.json"
    path.write_text(STAY_OR_DOUBLE_TEXT)
    return str(path)


@pytest.fixture
def risky_cfg(tmp_path):
    path = tmp_path / "risky.json"
    path.write_text(RISKY_TEXT)
    return str(path)


def run_json(capsys, argv):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


class TestBound:
    def test_values_match_library(self, capsys):
        code, out = run_json(capsys, ["bound", "--n", "4", "--x", "2",
                                      "--v", "1"])
        assert code == 0
        q = BoundQuery(n=4, x=2.0, v=1.0)
        assert out["log_H"] == pytest.approx(log_H(q), rel=1e-15)
        assert out["H"] == pytest.approx(H(q), rel=1e-15)
        assert out["H_upper"] == pytest.approx(H_upper(2.0, 1.0), rel=1e-15)
        assert set(out) == {"n", "x", "v", "log_H", "H", "H_upper"}

    def test_nonfinite_serialized_as_string(self, capsys):
        code, out = run_json(capsys, ["bound", "--n", "4", "--x", "5",
                                      "--v", "1"])
        assert code == 0
        assert out["log_H"] == "-inf"
        assert out["H"] == 0

    def test_sigma_m_route(self, capsys):
        _, direct = run_json(capsys, ["bound", "--n", "16", "--x", "2",
                                      "--v", str(math.sqrt(16) * 0.3 / 0.5)])
        _, formed = run_json(capsys, ["bound", "--n", "16", "--x", "2",
                                      "--sigma", "0.3", "--M", "0.5"])
        assert formed == direct

    def test_v_and_sigma_conflict(self):
        assert cli.main(["bound", "--n", "4", "--x", "1", "--v", "1",
                         "--sigma", "0.3"]) == 2

    def test_neither_route_given(self):
        assert cli.main(["bound", "--n", "4", "--x", "1"]) == 2

    def test_nonpositive_m_rejected(self):
        assert cli.main(["bound", "--n", "4", "--x", "1", "--sigma", "0.3",
                         "--M", "0"]) == 2


class TestEnvCheck:
    def test_passing_env(self, capsys, binary_cfg):
        code, out = run_json(capsys, ["env-check", binary_cfg])
        assert code == 0
        assert out["all_pass"] is True
        assert [c["check"] for c in out["checks"]] == [
            "A1", "A2", "A3", "P0_ZERO", "H1", "H2"]

    def test_failing_env(self, capsys, risky_cfg):
        code, out = run_json(capsys, ["env-check", risky_cfg])
        assert code == 1
        failed = {c["check"] for c in out["checks"] if not c["pass"]}
        assert "P0_ZERO" in failed

    def test_equal_means_env_fails_checks_not_config(self, capsys, tmp_path):
        cfg = tmp_path / "equal.json"
        cfg.write_text(json.dumps({"model": "generic", "states": [
            {"label": "a", "mass": 0.7058823529411765, "offspring": {"3": 1.0}},
            {"label": "b", "mass": 0.29411764705882354, "offspring": {"3": 1.0}}]}))
        code, out = run_json(capsys, ["env-check", str(cfg)])
        assert code == 1
        assert [c["check"] for c in out["checks"] if not c["pass"]] == ["A2", "H1"]

    def test_missing_file(self, tmp_path):
        assert cli.main(["env-check", str(tmp_path / "nope.json")]) == 2

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["env-check", str(bad)]) == 2

    @pytest.mark.parametrize("offspring, message", [
        ('{"1": 0.5, "01": 0.5, "2": 0.5}', "family size 1 twice"),
        ('{"1": 0.5, "1": 0.5, "2": 0.5}', "repeats the key '1'")])
    def test_repeated_family_size_exits_2(self, capsys, tmp_path, offspring,
                                          message):
        # the last mass of a repeated size would win and hide 0.5 of mass
        cfg = tmp_path / "repeated.json"
        cfg.write_text('{"model": "generic", "states": [{"label": "s", '
                       f'"mass": 1.0, "offspring": {offspring}}}]}}')
        assert cli.main(["env-check", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("config, message", [
        ('{"model": "binary", "support": [{"p": null, "mass": 1.0}]}',
         "binary p is None"),
        ('{"model": "binary", "support": [{"p": 0.5, "mass": true}]}',
         "mass of p=0.5 is True"),
        ('{"model": "generic", "states": [{"label": "s", "mass": "0.5", '
         '"offspring": {"1": 1.0}}, {"label": "t", "mass": 0.5, '
         '"offspring": {"2": 1.0}}]}', "mass of state 's' is '0.5'"),
        ('{"model": "generic", "states": [{"label": "s", "mass": 1.0, '
         '"offspring": {"1": null}}]}', "mass for k=1 of state 's' is None"),
        ('{"model": "generic", "states": [{"label": "s", "mass": 1.0, '
         '"offspring": {"1": "1"}}]}', "mass for k=1 of state 's' is '1'"),
        ('{"model": "generic", "states": [{"label": "s", "mass": 1.0, '
         '"offspring": {"1": 1%s}}]}' % ("0" * 400), "past a double")])
    def test_non_numeric_value_exits_2(self, capsys, tmp_path, config, message):
        # only JSON numbers are masses and probabilities: null, a bool or a
        # string is bad input, not a traceback or a number
        cfg = tmp_path / "typed.json"
        cfg.write_text(config)
        assert cli.main(["env-check", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--p", "--q"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-inf", "1e400"])
    def test_nonfinite_order_exits_2(self, capsys, binary_cfg, flag, value):
        # not an assumption verdict: the order itself is bad input
        with pytest.raises(SystemExit) as exc:
            cli.main(["env-check", binary_cfg, f"{flag}={value}"])
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err

    def test_overflowing_witness_exits_2(self, capsys, tmp_path, binary_cfg):
        assert cli.main(["env-check", binary_cfg, "--p", "5000"]) == 2
        assert "p=5000" in capsys.readouterr().err
        # a state of mean 15.5: |log m|^1000 is past a double
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"model": "generic", "states": [
            {"label": "big", "mass": 0.5, "offspring": {"15": 0.5, "16": 0.5}},
            {"label": "small", "mass": 0.5, "offspring": {"1": 0.5, "2": 0.5}}]}))
        assert cli.main(["env-check", str(cfg), "--q", "1000"]) == 2
        assert "q=1000" in capsys.readouterr().err

    def test_out_dir(self, tmp_path, capsys, binary_cfg):
        out = tmp_path / "report"
        assert cli.main(["env-check", binary_cfg, "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["all_pass"] is True
        assert result["manifest"] == "manifest.json"
        assert (out / "manifest.json").exists()


class TestOracle:
    def test_json_shape_and_domination(self, capsys, binary_cfg):
        code, out = run_json(capsys, ["oracle", binary_cfg, "--n", "6",
                                      "--x", "0.5"])
        assert code == 0
        assert set(out) == {"n", "x", "M", "exact_tail", "bound", "dominated"}
        assert out["dominated"] is True
        env = parse_env_config(BINARY_TEXT)
        mom = compute_moments(env)
        assert out["exact_tail"] == pytest.approx(
            exact_sn_tail(env, 6, 0.5, mom.M_tight, mom.mu), rel=1e-15)
        assert out["bound"] == pytest.approx(
            sn_tail_bound(6, 0.5, math.sqrt(mom.sigma2), mom.M_tight),
            rel=1e-15)

    def test_paper_constant_selected(self, capsys, binary_cfg):
        code, out = run_json(capsys, ["oracle", binary_cfg, "--n", "6",
                                      "--x", "0.5", "--M-kind", "paper"])
        assert code == 0
        assert out["M"] == "paper"

    def test_answers_past_the_enumeration_cap(self, capsys, binary_cfg):
        # 2^24 sequences; the composition route needs 25 terms
        code, out = run_json(capsys, ["oracle", binary_cfg, "--n", "24",
                                      "--x", "0.5"])
        assert code == 0
        assert 0.0 < out["exact_tail"] <= out["bound"]


class TestWithinEpsH:
    """At x = n under M_tight the README model's walk tail equals H in
    exact arithmetic, and the computed H may round below it. A tail within
    H's rounding bound eps_H counts as dominated, and result.json names
    each such point. Today's tail events are empty at x = n, so these tests
    put stand-in tails there: one ulp above H, and far above its rounding."""

    N = 8

    @pytest.fixture
    def rounding(self):
        env = parse_env_config(BINARY_TEXT)
        [(_, _, bound, eps, _, _)] = cli._sn_rows(
            env, compute_moments(env), self.N, "tight", [float(self.N)], [None])
        # the tail H bounds there, 2^-n, is within eps_H of the computed H
        assert 2.0 ** -self.N <= bound * (1.0 + eps)
        return bound, eps

    def stand_in(self, monkeypatch, tail):
        def tails(env, n, xs, M, mu):
            return [tail if x == n else 0.0 for x in xs]
        monkeypatch.setattr(cli, "exact_sn_tails", tails)
        monkeypatch.setattr(cli, "exact_sn_tail",
                            lambda env, n, x, M, mu: tails(env, n, [x], M, mu)[0])

    def test_oracle_labels_the_point(self, monkeypatch, capsys, binary_cfg,
                                     rounding):
        bound, eps = rounding
        tail = math.nextafter(bound, 1.0)
        self.stand_in(monkeypatch, tail)
        code, out = run_json(capsys, ["oracle", binary_cfg, "--n", "8",
                                      "--x", "8"])
        assert code == 0 and out["dominated"] is True
        assert out["dominated_within_eps_H"] == [
            {"x": 8.0, "exact_tail": tail, "bound_H": bound, "eps_H": eps}]

    def test_verify_oracle_labels_only_that_point(self, monkeypatch, tmp_path,
                                                  binary_cfg, rounding):
        bound, eps = rounding
        self.stand_in(monkeypatch, math.nextafter(bound, 1.0))
        out = tmp_path / "og"
        assert cli.main(["verify", "oracle", binary_cfg, "--n", "8",
                         "--grid-points", "9", "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["violations"] == 0
        assert [p["x"] for p in result["dominated_within_eps_H"]] == [8.0]
        assert (out / "result.csv").read_text().count(",true") == 9

    def test_verify_sn_labels_the_point(self, monkeypatch, tmp_path,
                                        binary_cfg, rounding):
        bound, eps = rounding
        self.stand_in(monkeypatch, math.nextafter(bound, 1.0))
        out = tmp_path / "sn"
        assert cli.main(["verify", "sn", binary_cfg, "--n", "8", "--x", "8",
                         "--trials", "1000", "--seed", "1",
                         "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["pass"] is True
        assert [p["eps_H"] for p in result["dominated_within_eps_H"]] == [eps]

    def test_verify_sn_dominated_is_the_exact_tails_own(self, monkeypatch,
                                                        tmp_path, binary_cfg,
                                                        rounding):
        # a tail past H's rounding with ci_low (0 hits) below H: the exact
        # tail is not dominated, and the run fails on it
        bound, eps = rounding
        self.stand_in(monkeypatch, bound * (1.0 + 4.0 * eps))
        out = tmp_path / "sn"
        assert cli.main(["verify", "sn", binary_cfg, "--n", "8", "--x", "8",
                         "--trials", "1000", "--seed", "1",
                         "--out", str(out)]) == 1
        result = json.loads((out / "result.json").read_text())
        assert result["ci_low"] <= bound
        assert result["dominated"] is False and result["pass"] is False

    def test_verify_sn_without_exact_tail_dominates_nothing(self, monkeypatch,
                                                            tmp_path,
                                                            binary_cfg):
        def capped(env, n, x, M, mu):
            raise ResourceCapError("composition cap")
        monkeypatch.setattr(cli, "exact_sn_tail", capped)
        out = tmp_path / "sn"
        assert cli.main(["verify", "sn", binary_cfg, "--n", "8", "--x", "0.5",
                         "--trials", "1000", "--seed", "1",
                         "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["exact_tail"] is None and result["dominated"] is None
        assert result["pass"] is True

    def test_a_tail_past_the_rounding_is_a_violation(self, monkeypatch,
                                                     tmp_path, capsys,
                                                     binary_cfg, rounding):
        bound, eps = rounding
        self.stand_in(monkeypatch, bound * (1.0 + 4.0 * eps))
        out = tmp_path / "og"
        assert cli.main(["verify", "oracle", binary_cfg, "--n", "8",
                         "--grid-points", "9", "--out", str(out)]) == 1
        result = json.loads((out / "result.json").read_text())
        assert result["violations"] == 1
        assert "dominated_within_eps_H" not in result
        capsys.readouterr()
        code, single = run_json(capsys, ["oracle", binary_cfg, "--n", "8",
                                         "--x", "8"])
        assert code == 1 and single["dominated"] is False

    # the README model with its second mass 0.5 - 9e-13, inside MASS_TOL
    OFF_BY_9E_13 = {"model": "binary", "support": [
        {"p": 0.25, "mass": 0.5}, {"p": 0.75, "mass": 0.5 - 9e-13}]}

    def test_masses_are_stored_normalised(self):
        env = parse_env_config(self.OFF_BY_9E_13)
        laws = [[mass for _, mass in env.states]] + [
            list(state.pmf.entries.values()) for state, _ in env.states]
        for masses in laws:
            assert abs(math.fsum(masses) - 1.0) <= 2.0 ** -53

    def test_equality_case_of_masses_off_by_rounding(self):
        # the walk tail of the event H bounds at x = n is (top mass)^n, H
        # itself in exact arithmetic; the missing 9e-13 would put it 1.6e-11
        # relative above H, far past eps_H
        n = 10
        env = parse_env_config(self.OFF_BY_9E_13)
        [(_, _, bound, eps, _, _)] = cli._sn_rows(
            env, compute_moments(env), n, "tight", [float(n)], [None])
        _, top = max(env.states, key=lambda sm: state_log_mean(sm[0]))
        assert top ** n <= bound * (1.0 + eps)

    def test_an_infinite_eps_h_certifies_nothing(self, monkeypatch, capsys,
                                                 binary_cfg):
        # at n = 1030 H is 8.7e-311, below the normal range, so eps_H is
        # inf: a tail is dominated only at or below H itself
        env = parse_env_config(BINARY_TEXT)
        [(_, _, bound, eps, _, _)] = cli._sn_rows(
            env, compute_moments(env), 1030, "tight", [1030.0], [None])
        assert 0.0 < bound < 2.0 ** -1022 and eps == math.inf
        self.stand_in(monkeypatch, 0.5)
        code, out = run_json(capsys, ["oracle", binary_cfg, "--n", "1030",
                                      "--x", "1030"])
        assert code == 1 and out["dominated"] is False
        assert "dominated_within_eps_H" not in out


class TestSimulate:
    def test_doubling_trajectory(self, tmp_path, capsys, doubling_cfg):
        out = tmp_path / "run"
        code = cli.main(["simulate", doubling_cfg, "--n", "10", "--seed", "0",
                         "--out", str(out)])
        assert code == 0
        lines = (out / "result.csv").read_text().splitlines()
        assert lines[0] == "gen,Z,log2_Z,S,logW"
        assert len(lines) == 12  # header + generations 0..10
        last = lines[-1].split(",")
        assert last[0] == "10"
        assert last[1] == "1024"
        assert last[2] == "10"
        assert last[4] == "0"  # W identically 1 for a deterministic env
        result = json.loads((out / "result.json").read_text())
        assert result["approx_sampling_used"] is False
        assert result["files"] == ["result.csv"]

    def test_byte_determinism(self, tmp_path, binary_cfg):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["simulate", binary_cfg, "--n", "12",
                             "--seed", "5", "--out", str(out)]) == 0
            outs.append((out / "result.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_changes_output(self, tmp_path, binary_cfg):
        outs = []
        for seed in ("5", "6"):
            out = tmp_path / seed
            cli.main(["simulate", binary_cfg, "--n", "12", "--seed", seed,
                      "--out", str(out)])
            outs.append((out / "result.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_multi_trajectory_naming(self, tmp_path, binary_cfg):
        out = tmp_path / "multi"
        code = cli.main(["simulate", binary_cfg, "--n", "6", "--trials", "3",
                         "--seed", "0", "--out", str(out)])
        assert code == 0
        names = ["result_0000.csv", "result_0001.csv", "result_0002.csv"]
        for name in names:
            assert (out / name).exists()
        result = json.loads((out / "result.json").read_text())
        assert result["files"] == names
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["result.json"] + names
        # a complete run's manifest lists exactly the files it wrote
        assert sorted(p.name for p in out.iterdir()) == sorted(
            manifest["outputs"] + ["manifest.json"])

    def test_extinction_env_rejected(self, tmp_path, risky_cfg):
        assert cli.main(["simulate", risky_cfg, "--n", "5",
                         "--out", str(tmp_path / "x")]) == 1

    def test_trials_cap(self, tmp_path, binary_cfg):
        assert cli.main(["simulate", binary_cfg, "--n", "3",
                         "--trials", "1025",
                         "--out", str(tmp_path / "x")]) == 2

    def test_population_cap_exits_3(self, tmp_path, capsys, doubling_cfg):
        # Z_513 = 2^513 passes the 2^512 cap
        assert cli.main(["simulate", doubling_cfg, "--n", "513",
                         "--out", str(tmp_path / "cap")]) == 3
        assert "cap is 512 bits" in capsys.readouterr().err

    def test_env_tables_built_once(self, tmp_path, monkeypatch, binary_cfg):
        built = []
        init = EnvTables.__init__

        def counted(self, env):
            built.append(env)
            init(self, env)

        monkeypatch.setattr(EnvTables, "__init__", counted)
        assert cli.main(["simulate", binary_cfg, "--n", "6", "--trials", "3",
                         "--out", str(tmp_path / "once")]) == 0
        assert len(built) == 1

    def test_rows_match_the_shared_formatter(self, tmp_path, binary_cfg):
        out = tmp_path / "rows"
        # at n = 200 Z passes 2^62 and takes Gaussian draws
        assert cli.main(["simulate", binary_cfg, "--n", "200", "--trials", "3",
                         "--seed", "11", "--out", str(out)]) == 0
        tables = EnvTables(parse_env_config(BINARY_TEXT))
        z, states, approx = simulate_block(tables, 200, 3,
                                           stream(11, DOMAIN_SIMULATE, 0))
        assert approx
        for t in range(3):
            s = np.cumsum(np.concatenate(([0.0], tables.X[states[:, t]])))
            rows = [[str(gen), str(int(zk)), cli.fmt(math.log2(zk)),
                     cli.fmt(sk), cli.fmt(math.log(zk) - sk)]
                    for gen, (zk, sk) in enumerate(zip(z[:, t].tolist(),
                                                       s.tolist()))]
            expected = cli._csv(cli.TRAJECTORY_CSV_HEADER, rows)
            assert (out / f"result_{t:04d}.csv").read_text() == expected

    def test_block_of_one_keeps_its_bytes(self, tmp_path, binary_cfg):
        # Z stays below 2^53 and every draw is exact, so a block of one
        # writes what stepping a Python int on the run's stream writes: the
        # n environment uniforms, then z + Bin(z, p_2) per generation, which
        # reads the uniforms of the chain's 2z - Bin(z, p_1)
        out = tmp_path / "one"
        assert cli.main(["simulate", binary_cfg, "--n", "60", "--seed", "3",
                         "--out", str(out)]) == 0
        assert not json.loads((out / "result.json").read_text())[
            "approx_sampling_used"]
        tables = EnvTables(parse_env_config(BINARY_TEXT))
        rng = stream(3, DOMAIN_SIMULATE, 0)
        z, s, rows = 1, 0.0, [["0", "1", "0", "0", "0"]]
        for gen, i in enumerate(tables.pick_states(rng.random(60)).tolist(), 1):
            z += int(rng.binomial(z, tables.states[i].pmf.entries[2]))
            s += tables.X[i]
            rows.append([str(gen), str(z), cli.fmt(math.log2(z)), cli.fmt(s),
                         cli.fmt(math.log(z) - s)])
        assert z < 2 ** 53
        text = (out / "result.csv").read_text()
        assert text == cli._csv(cli.TRAJECTORY_CSV_HEADER, rows)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "4acf7ae71579bf23f63722b421ac429ae3e0cb60128b25a486fec7f88d1338af")

    def test_one_stream_per_run(self, tmp_path, monkeypatch, binary_cfg):
        # at most 1024 trajectories are one block on stream (seed, 4, 0)
        opened = []

        def recorded(*key):
            opened.append(key)
            return stream(*key)

        monkeypatch.setattr(cli, "stream", recorded)
        monkeypatch.setattr(bpre.simulate, "stream", recorded)
        for trials in ("1", "1024"):
            opened.clear()
            assert cli.main(["simulate", binary_cfg, "--n", "3",
                             "--trials", trials, "--seed", "9",
                             "--out", str(tmp_path / trials)]) == 0
            assert opened == [(9, DOMAIN_SIMULATE, 0)]

    def test_holds_one_trajectory_at_a_time(self, tmp_path, binary_cfg):
        # holding all 64 CSV texts until the end peaked at 1.07 MB traced
        # (0.13 MB when each is written as it is drawn); 512 trials peaked
        # at 8.0 MB, so the held texts, not a fixed cost, set the figure.
        # The stepped block adds 9 bytes per trajectory-generation (116 KB
        # here); the run peaks at about 0.23 MB.
        whole_run_peak = 1.07 * 2 ** 20
        assert cli.main(["simulate", binary_cfg, "--n", "5",
                         "--out", str(tmp_path / "warm")]) == 0
        tracemalloc.start()
        try:
            code = cli.main(["simulate", binary_cfg, "--n", "200",
                             "--trials", "64", "--seed", "0",
                             "--out", str(tmp_path / "big")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < whole_run_peak / 4, f"peak {peak / 2**20:.2f} MB"

    @pytest.mark.parametrize("earlier_run", [False, True])
    def test_run_stopped_at_the_cap_leaves_no_manifest(
            self, tmp_path, capsys, stay_or_double_cfg, earlier_run):
        out = tmp_path / "cap"
        earlier = {}
        if earlier_run:
            assert cli.main(["simulate", stay_or_double_cfg, "--n", "64",
                             "--trials", "4", "--seed", "3",
                             "--out", str(out)]) == 0
            assert (out / "manifest.json").exists()
            earlier = {p.name: p.read_bytes() for p in out.glob("result_*")}
            assert len(earlier) == 4
        assert cli.main(["simulate", stay_or_double_cfg, "--n", "1024",
                         "--trials", "4", "--seed", "3",
                         "--out", str(out)]) == 3
        assert "cap is 512 bits" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert not (out / "result.json").exists()
        # the block is stepped whole before any file is written: no result*
        # file of this run, only the earlier run's CSVs as they were
        assert {p.name: p.read_bytes() for p in out.glob("result*")} == earlier


class TestVerify:
    def test_sn_passes(self, tmp_path, capsys, binary_cfg):
        out = tmp_path / "sn"
        code = cli.main(["verify", "sn", binary_cfg, "--n", "6", "--x", "0.5",
                         "--trials", "20000", "--seed", "0", "--workers", "2",
                         "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "verify sn: PASS"
        result = json.loads((out / "result.json").read_text())
        assert result["pass"] is True
        assert result["exact_tail"] is not None  # 7 compositions
        lines = (out / "result.csv").read_text().splitlines()
        assert lines[0] == ("n,x,M_kind,hits,trials,point,ci_low,ci_high,"
                            "bound_H,bound_thm1")
        assert len(lines) == 2

    @pytest.mark.parametrize("text, n, x", [
        (BINARY_TEXT, 24, 0.5),  # 2^24 sequences, 25 compositions
        (FOUR_TEXT, 50, 0.2),
    ], ids=["binary-n24", "four-n50"])
    def test_sn_reports_exact_tail(self, tmp_path, text, n, x):
        path = tmp_path / "model.json"
        path.write_text(text)
        out = tmp_path / "sn"
        code = cli.main(["verify", "sn", str(path), "--n", str(n),
                         "--x", str(x), "--trials", "2000", "--seed", "0",
                         "--out", str(out)])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        env = parse_env_config(text)
        moments = compute_moments(env)
        assert result["exact_tail"] == exact_sn_tail(env, n, x,
                                                     moments.M_tight,
                                                     moments.mu)
        assert 0.0 < result["exact_tail"] <= result["bound_H"]

    def test_sn_reports_no_exact_tail_past_the_cap(self, tmp_path):
        # past the composition cap the run goes on without an exact value,
        # and the Monte Carlo verdict sets the exit code
        path = tmp_path / "four.json"
        path.write_text(FOUR_TEXT)
        out = tmp_path / "sncap"
        code = cli.main(["verify", "sn", str(path), "--n", "200", "--x", "0.1",
                         "--trials", "2000", "--seed", "0", "--out", str(out)])
        result = json.loads((out / "result.json").read_text())
        assert result["exact_tail"] is None
        assert result["hits"] > 0
        assert result["pass"] is (result["ci_low"] <= result["bound_H"])
        assert code == (0 if result["pass"] else 1)

    def test_sn_requires_x(self, binary_cfg):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "sn", binary_cfg, "--n", "6",
                      "--trials", "2000"])
        assert exc.value.code == 2

    def test_theorem1_passes(self, tmp_path, capsys, binary_cfg):
        out = tmp_path / "t1"
        code = cli.main(["verify", "theorem1", binary_cfg, "--n", "8",
                         "--trials", "2000", "--seed", "0", "--workers", "2",
                         "--out", str(out)])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["pass"] is True
        assert result["hits"] == 0  # x=3 is far outside the support
        assert 0.0 < result["delta_hat"] < 1.0
        assert result["C_hat"] > 0.0
        assert result["bound_thm1"] > 0.0
        assert result["M_kind"] == "paper"

    def test_theorem1_fails_without_decay(self, tmp_path, capsys,
                                          monkeypatch, binary_cfg):
        # no geometric-decay candidate, so there is no bound to pass
        monkeypatch.setattr(cli, "mc_logw_increments", doubling_means)
        out = tmp_path / "t1fail"
        code = cli.main(["verify", "theorem1", binary_cfg, "--n", "8",
                         "--trials", "2000", "--seed", "0", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().out.strip() == "verify theorem1: FAIL"
        result = json.loads((out / "result.json").read_text())
        assert result["pass"] is False
        assert result["bound_thm1"] is None
        assert result["C_hat"] is None
        assert result["delta_hat"] == pytest.approx(2.0)
        assert "delta_hat" in result["failure"]

    def test_theorem1_runs_past_int64(self, tmp_path, binary_cfg):
        # 2^200 > 2^62: the tail estimate and the increment fit both step
        # float64 populations, so the horizon runs instead of exiting 3
        out = tmp_path / "t1big"
        code = cli.main(["verify", "theorem1", binary_cfg, "--n", "200",
                         "--trials", "2000", "--seed", "0", "--out", str(out)])
        assert code in (0, 1)
        result = json.loads((out / "result.json").read_text())
        assert result["n"] == 200
        assert result["hits"] == 0  # x=3 is far outside the support
        # so is the exact tail, decided with no propagation of 2^200 atoms
        assert result["exact_tail"] == 0.0
        assert "delta_hat" in result
        assert "bound_thm1" in result
        # the fit's populations pass 2^62 and take Gaussian draws
        assert result["approx_sampling_used"] is True
        # the fit's means below the head depth are exact, the rest sampled
        assert 0 < result["increment_head_depth"] < 200

    def test_theorem1_exact_tail_with_more_states_than_k_max(self, tmp_path):
        # five states: the kernel works on the population support 2^7, not
        # on the 5^7 state sequences, and computes the exact tail
        text = json.dumps({"model": "binary", "support": [
            {"p": p, "mass": 0.2} for p in (0.1, 0.3, 0.5, 0.7, 0.9)]})
        path = tmp_path / "five.json"
        path.write_text(text)
        out = tmp_path / "t1five"
        code = cli.main(["verify", "theorem1", str(path), "--n", "7",
                         "--x", "0.2", "--M-kind", "tight", "--trials", "2000",
                         "--seed", "0", "--out", str(out)])
        assert code in (0, 1)
        result = json.loads((out / "result.json").read_text())
        env = parse_env_config(text)
        moments = compute_moments(env)
        assert result["exact_tail"] is not None
        assert result["exact_tail"] == exact_logZn_tail(env, 7, 0.2, moments,
                                                        moments.M_tight)

    def test_theorem1_reports_no_exact_tail_past_the_cap(self, tmp_path,
                                                         binary_cfg):
        # the x = 0.5 tail at n = 21 needs 6.7e9 multiply-adds, above
        # oracle.MAX_KERNEL_WORK: the run goes on without an exact value
        out = tmp_path / "t1cap"
        code = cli.main(["verify", "theorem1", binary_cfg, "--n", "21",
                         "--x", "0.5", "--M-kind", "tight", "--trials", "2000",
                         "--seed", "0", "--out", str(out)])
        assert code in (0, 1)
        result = json.loads((out / "result.json").read_text())
        assert result["exact_tail"] is None
        assert result["hits"] > 0

    def test_increments_passes(self, tmp_path, capsys, binary_cfg):
        out = tmp_path / "inc"
        code = cli.main(["verify", "increments", binary_cfg, "--n", "8",
                         "--trials", "2000", "--seed", "0", "--workers", "2",
                         "--out", str(out)])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert 0.0 < result["delta_hat"] < 1.0
        assert result["fit_k_lo"] == 2 and result["fit_k_hi"] == 7
        assert result["approx_sampling_used"] is False  # Z_8 <= 2^8
        # every mean comes from the annealed law: stderr 0
        assert result["increment_head_depth"] == 8
        lines = (out / "result.csv").read_text().splitlines()
        assert lines[0] == "k,mean_abs_increment,stderr"
        assert len(lines) == 9  # header + k = 0..7
        assert all(line.endswith(",0") for line in lines[1:])

    def test_increments_fails_without_decay(self, tmp_path, capsys,
                                            monkeypatch, binary_cfg):
        # the same fit as theorem1's: no candidate, so C_hat is null
        monkeypatch.setattr(cli, "mc_logw_increments", doubling_means)
        out = tmp_path / "incfail"
        code = cli.main(["verify", "increments", binary_cfg, "--n", "8",
                         "--trials", "2000", "--seed", "0", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().out.strip() == "verify increments: FAIL"
        result = json.loads((out / "result.json").read_text())
        assert result["pass"] is False
        assert result["C_hat"] is None
        assert result["delta_hat"] == pytest.approx(2.0)

    def test_increments_bad_window(self, binary_cfg):
        assert cli.main(["verify", "increments", binary_cfg, "--n", "8",
                         "--trials", "2000", "--fit-lo", "5",
                         "--fit-hi", "3"]) == 2

    def test_oracle_grid_passes(self, tmp_path, capsys, binary_cfg):
        out = tmp_path / "og"
        code = cli.main(["verify", "oracle", binary_cfg, "--n", "4",
                         "--grid-points", "21", "--out", str(out)])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["violations"] == 0
        lines = (out / "result.csv").read_text().splitlines()
        assert lines[0] == "n,x,M_kind,exact_tail,bound_H,dominated"
        assert len(lines) == 22
        assert all(line.endswith(",true") for line in lines[1:])

    @pytest.mark.parametrize("grid_points", [2, 11, 101])
    def test_oracle_enumerates_once(self, monkeypatch, tmp_path, binary_cfg,
                                    grid_points):
        # the grid's tails are reads of one pass over the compositions
        calls = []
        compositions = oracle._compositions

        def counted(*args):
            calls.append(args)
            return compositions(*args)
        monkeypatch.setattr(oracle, "_compositions", counted)
        assert cli.main(["verify", "oracle", binary_cfg, "--n", "8",
                         "--grid-points", str(grid_points),
                         "--out", str(tmp_path / "og")]) == 0
        assert calls == [(8, 2)]

    def test_oracle_grid_rows_match_single_points(self, tmp_path, capsys,
                                                  binary_cfg):
        # each grid row carries the bytes `bpre oracle` writes at its x,
        # including the x = 1 tie of the all-high sequence under M_tight
        out = tmp_path / "og"
        assert cli.main(["verify", "oracle", binary_cfg, "--n", "8",
                         "--grid-points", "9", "--out", str(out)]) == 0
        lines = (out / "result.csv").read_text().splitlines()[1:]
        capsys.readouterr()
        tails = []
        for i, line in enumerate(lines):
            code, single = run_json(capsys, ["oracle", binary_cfg, "--n", "8",
                                             "--x", str(i)])
            assert code == 0
            assert line == ",".join(["8", cli.fmt(float(i)), "tight",
                                     cli.fmt(single["exact_tail"]),
                                     cli.fmt(single["bound"]), "true"])
            tails.append(single["exact_tail"])
        assert tails[1] == 2.0 ** -8
        assert tails[2:] == [0.0] * 7


class TestConverge:
    def test_grid_csv(self, tmp_path, binary_cfg):
        out = tmp_path / "cv"
        code = cli.main(["converge", binary_cfg, "--n-values", "4,8",
                         "--y-values", "0.1,0.3", "--trials", "2000",
                         "--seed", "0", "--workers", "2", "--out", str(out)])
        assert code == 0
        lines = (out / "result.csv").read_text().splitlines()
        assert lines[0] == "n,y,hits,trials,point,ci_low,ci_high"
        assert len(lines) == 5
        firsts = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert firsts == [("4", "0.10000000000000001"),
                          ("4", "0.29999999999999999"),
                          ("8", "0.10000000000000001"),
                          ("8", "0.29999999999999999")]

    def test_approx_sampling_recorded(self, capsys, binary_cfg):
        # on the README model Z_200 is about 2^113, past the exact
        # sampler's 2^62, and Z_70 about 2^39
        for n, approx in (("200", True), ("70", False), ("8,16", False)):
            code, out = run_json(capsys, ["converge", binary_cfg,
                                          "--n-values", n, "--y-values", "0.1",
                                          "--trials", "1000", "--seed", "1"])
            assert code == 0
            assert out["approx_sampling_used"] is approx

    def test_stdout_json(self, capsys, binary_cfg):
        code, out = run_json(capsys, ["converge", binary_cfg,
                                      "--n-values", "4", "--y-values", "0.2",
                                      "--trials", "1500", "--seed", "1"])
        assert code == 0
        assert len(out["rows"]) == 1
        row = out["rows"][0]
        assert row["n"] == 4 and row["y"] == 0.2
        assert 0.0 <= row["ci_low"] <= row["point"] <= row["ci_high"] <= 1.0


ESTIMATORS = ("mc_tail_sn", "mc_tail_logzn", "mc_logw_increments",
              "convergence_report", "exact_sn_tail", "exact_sn_tails",
              "exact_logZn_tail")


@pytest.fixture
def no_estimator(monkeypatch):
    """Every estimator and exact oracle the CLI calls fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("estimator called")
    for name in ESTIMATORS:
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.usefixtures("no_estimator")
class TestInputCheckedBeforeSampling:
    """Bad verify/converge/oracle input exits 2 before any estimator or
    exact oracle runs."""

    @pytest.mark.parametrize("mode, flags, message", [
        ("theorem1", ["--n", "16", "--m", "20"], "--m 20 must be in [1, n=16]"),
        # k = 2..4 at n = 5: three points, one short of the decay fit's four
        ("theorem1", ["--n", "5"], "fit window [2, 4] has fewer than the 4"),
        ("increments", ["--n", "20", "--fit-lo", "25"], "outside [0, 19]"),
        ("increments", ["--n", "40", "--fit-hi", "45"], "outside [0, 39]"),
        ("increments", ["--n", "20", "--fit-lo", "2", "--fit-hi", "4"],
         "fit window [2, 4] has fewer than the 4"),
    ])
    def test_range_rejected(self, capsys, binary_cfg, mode, flags, message):
        assert cli.main(["verify", mode, binary_cfg, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv", [
        ["verify", "sn", "{cfg}", "--n", "10", "--x", "0.5"],
        ["verify", "theorem1", "{cfg}", "--n", "16"],
        ["converge", "{cfg}", "--n-values", "8", "--y-values", "0.1"],
    ])
    @pytest.mark.parametrize("level", ["1.5", "0", "1", "nan", "high"])
    def test_level_rejected(self, capsys, binary_cfg, argv, level):
        argv = [binary_cfg if a == "{cfg}" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--level", level])
        assert exc.value.code == 2
        assert "--level" in capsys.readouterr().err

    @staticmethod
    def rejected_by_parser(capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "sn", "{cfg}", "--n", "10"],
        ["verify", "theorem1", "{cfg}", "--n", "16"],
        ["oracle", "{cfg}", "--n", "10"],
        ["bound", "--n", "10", "--v", "1"],
    ])
    @pytest.mark.parametrize("x", ["-1", "nan", "inf"])
    def test_bad_x_rejected(self, capsys, binary_cfg, argv, x):
        # no statistic reaches a NaN or infinite threshold: such a run
        # would pass by vacuity
        argv = [binary_cfg if a == "{cfg}" else a for a in argv]
        self.rejected_by_parser(capsys, [*argv, "--x", x], "--x")

    @pytest.mark.parametrize("flags, flag", [
        (["--n-values", ",", "--y-values", "0.1"], "--n-values"),
        (["--n-values", "8", "--y-values", ","], "--y-values"),
        (["--n-values", "8", "--y-values", "0.1,nan"], "--y-values"),
        (["--n-values", "8", "--y-values", "-0.1"], "--y-values"),
        (["--n-values", "8", "--y-values", "inf"], "--y-values"),
    ])
    def test_bad_converge_grid_rejected(self, capsys, binary_cfg, flags, flag):
        self.rejected_by_parser(capsys, ["converge", binary_cfg, *flags], flag)

    @pytest.mark.parametrize("points", ["1", "0", "-3"])
    def test_small_oracle_grid_rejected(self, capsys, binary_cfg, points):
        self.rejected_by_parser(capsys, ["verify", "oracle", binary_cfg,
                                         "--n", "8", "--grid-points", points],
                                "--grid-points")

    @pytest.mark.parametrize("argv", [
        ["verify", "sn", "{cfg}", "--n", "10", "--x", "0.5"],
        ["verify", "theorem1", "{cfg}", "--n", "16"],
        ["verify", "increments", "{cfg}", "--n", "16"],
        ["converge", "{cfg}", "--n-values", "8", "--y-values", "0.1"],
    ])
    @pytest.mark.parametrize("seed", ["-1", "abc", str(2 ** 64)])
    def test_bad_seed_rejected(self, capsys, monkeypatch, binary_cfg, argv,
                               seed):
        argv = [binary_cfg if a == "{cfg}" else a for a in argv]
        self.rejected_by_parser(capsys, [*argv, "--seed", seed], "--seed")
        monkeypatch.setenv("BPRE_SEED", seed)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: $BPRE_SEED {seed!r} ")

    # Each mode's flags that the mode does not read.
    UNREAD_FLAGS = [
        ("sn", "--m", "5"), ("sn", "--grid-points", "11"),
        ("sn", "--fit-lo", "2"), ("sn", "--fit-hi", "7"),
        ("theorem1", "--grid-points", "11"), ("theorem1", "--fit-lo", "2"),
        ("theorem1", "--fit-hi", "7"),
        ("increments", "--x", "9"), ("increments", "--m", "5"),
        ("increments", "--level", "0.5"), ("increments", "--M-kind", "paper"),
        ("increments", "--grid-points", "11"),
        ("oracle", "--x", "0.5"), ("oracle", "--m", "5"),
        ("oracle", "--trials", "7"), ("oracle", "--seed", "5"),
        ("oracle", "--level", "0.5"), ("oracle", "--fit-lo", "2"),
        ("oracle", "--fit-hi", "7"), ("oracle", "--workers", "3"),
    ]

    @pytest.mark.parametrize("mode, flag, value", UNREAD_FLAGS)
    def test_unread_flag_rejected(self, capsys, binary_cfg, mode, flag, value):
        argv = ["verify", mode, binary_cfg, "--n", "8"]
        if mode == "sn":
            argv += ["--x", "0.5"]
        self.rejected_by_parser(capsys, [*argv, flag, value], flag)

    @pytest.mark.parametrize("argv", [
        ["verify", "sn", "{cfg}", "--n", "10", "--x", "0.5", "--level", "0.9"],
        ["verify", "sn", "{cfg}", "--n", "10", "--x", "0"],
        ["verify", "theorem1", "{cfg}", "--n", "6", "--m", "6"],
        ["verify", "increments", "{cfg}", "--n", "20", "--fit-lo", "16"],
        ["verify", "oracle", "{cfg}", "--n", "8", "--grid-points", "2"],
        ["oracle", "{cfg}", "--n", "8", "--x", "0"],
        ["converge", "{cfg}", "--n-values", "8", "--y-values", "0,0.1"],
    ])
    def test_valid_input_reaches_the_estimator(self, monkeypatch, binary_cfg,
                                               argv):
        # the edge of each accepted range gets past the checks
        monkeypatch.setenv("BPRE_SEED", str(2 ** 64 - 1))
        argv = [binary_cfg if a == "{cfg}" else a for a in argv]
        with pytest.raises(AssertionError, match="estimator called"):
            cli.main(argv)


@pytest.mark.usefixtures("no_estimator")
class TestDeterministicModelRefused:
    """A model outside a command's assumptions exits 1 with the reason
    before any estimator or exact oracle runs, and writes no file."""

    H1 = "env-check failed: H1\n"
    POINT_MASSES = ("every state's offspring law is a point mass: the log W "
                    "increments vanish, so there is no decay to fit\n")

    @pytest.mark.parametrize("model, argv, reason", [
        # {2: 1.0}: M_tight = M_paper = 0
        (DOUBLING_TEXT, ["oracle", "--n", "8", "--x", "0.5"], H1),
        (DOUBLING_TEXT, ["verify", "oracle", "--n", "8"], H1),
        (DOUBLING_TEXT, ["verify", "sn", "--n", "8", "--x", "0.5"], H1),
        (DOUBLING_TEXT, ["verify", "theorem1", "--n", "16"], H1),
        (DOUBLING_TEXT, ["verify", "increments", "--n", "16"], POINT_MASSES),
        # {2: 1} / {3: 1}: H1 holds, the increments still vanish
        (TWO_OR_THREE_TEXT, ["verify", "increments", "--n", "16"],
         POINT_MASSES),
        (TWO_OR_THREE_TEXT, ["verify", "theorem1", "--n", "16"],
         POINT_MASSES),
    ], ids=["oracle-doubling", "verify-oracle-doubling", "verify-sn-doubling",
            "verify-theorem1-doubling", "verify-increments-doubling",
            "verify-increments-two-or-three",
            "verify-theorem1-two-or-three"])
    def test_exits_1_with_the_reason(self, capsys, tmp_path, model, argv,
                                     reason):
        cfg = tmp_path / "model.json"
        cfg.write_text(model)
        out = tmp_path / "out"
        assert cli.main([*argv[:argv.index("--n")], str(cfg),
                         *argv[argv.index("--n"):], "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == reason and captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "sn", "{cfg}", "--n", "10", "--x", "0.5"],
    ["verify", "theorem1", "{cfg}", "--n", "16"],
    ["verify", "increments", "{cfg}", "--n", "8"],
    ["converge", "{cfg}", "--n-values", "8", "--y-values", "0.1"],
])
def test_trials_cap_exits_2_before_any_block(monkeypatch, capsys, binary_cfg,
                                             argv):
    def refuse(trials):
        raise AssertionError("blocks listed")
    monkeypatch.setattr(estimate, "_blocks", refuse)
    argv = [binary_cfg if a == "{cfg}" else a for a in argv]
    assert cli.main([*argv, "--trials", "1e30", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: too many trials")
    assert "Traceback" not in err


class TestDefaults:
    """Each command's own defaults, as its result.json reports them."""

    @pytest.mark.parametrize("argv, expected", [
        (["verify", "sn", "{cfg}", "--n", "6", "--x", "0.5"],
         {"M_kind": "tight", "trials": 10 ** 5, "level": 0.99}),
        (["verify", "theorem1", "{cfg}", "--n", "6"],
         {"M_kind": "paper", "x": 3.0, "m": 6, "trials": 10 ** 5,
          "level": 0.99}),
        (["verify", "increments", "{cfg}", "--n", "6"],
         {"trials": 10 ** 5, "fit_k_lo": 2, "fit_k_hi": 5}),
        (["verify", "oracle", "{cfg}", "--n", "4"],
         {"M_kind": "tight", "grid_points": 101}),
        (["converge", "{cfg}", "--n-values", "4", "--y-values", "0.1"],
         {"trials": 10 ** 4, "level": 0.95}),
    ])
    def test_result_reports_defaults(self, capsys, monkeypatch, binary_cfg,
                                     argv, expected):
        monkeypatch.delenv("BPRE_SEED", raising=False)
        argv = [binary_cfg if a == "{cfg}" else a for a in argv]
        code, out = run_json(capsys, argv)
        assert code == 0
        assert {key: out[key] for key in expected} == expected


class TestSeedResolution:
    def test_env_var_fallback(self, tmp_path, monkeypatch, binary_cfg,
                              capsys):
        monkeypatch.setenv("BPRE_SEED", "7")
        out_env = tmp_path / "env"
        cli.main(["verify", "sn", binary_cfg, "--n", "6", "--x", "0.5",
                  "--trials", "2000", "--out", str(out_env)])
        monkeypatch.delenv("BPRE_SEED")
        out_flag = tmp_path / "flag"
        cli.main(["verify", "sn", binary_cfg, "--n", "6", "--x", "0.5",
                  "--trials", "2000", "--seed", "7", "--out", str(out_flag)])
        capsys.readouterr()
        assert ((out_env / "result.csv").read_bytes()
                == (out_flag / "result.csv").read_bytes())
        assert json.loads((out_env / "result.json").read_text())["seed"] == 7

    def test_default_zero(self, capsys, binary_cfg, monkeypatch):
        monkeypatch.delenv("BPRE_SEED", raising=False)
        _, out = run_json(capsys, ["converge", binary_cfg, "--n-values", "4",
                                   "--y-values", "0.2", "--trials", "1500"])
        assert out["seed"] == 0


class TestWorkerInvariance:
    def test_result_csv_bytes_identical(self, tmp_path, capsys, binary_cfg):
        blobs = []
        for w in ("1", "8"):
            out = tmp_path / f"w{w}"
            cli.main(["verify", "sn", binary_cfg, "--n", "8", "--x", "0.3",
                      "--trials", "50000", "--seed", "3", "--workers", w,
                      "--out", str(out)])
            blobs.append((out / "result.csv").read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]

    def test_kernel_head_bytes_identical(self, tmp_path, capsys, binary_cfg):
        # at n = 13 the estimates draw Z_g from the kernel law and step the
        # rest; n = 4 is drawn whole
        tables = EnvTables(parse_env_config(BINARY_TEXT))
        assert 0 < _head_depth(tables, 13, 40000) < 13
        assert _head_depth(tables, 4, 40000) == 4
        blobs = []
        for w in ("1", "2"):
            out = tmp_path / f"w{w}"
            cli.main(["converge", binary_cfg, "--n-values", "4,13",
                      "--y-values", "0.05,0.1", "--trials", "40000",
                      "--seed", "3", "--workers", w, "--out", str(out)])
            blobs.append((out / "result.csv").read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]


class TestManifest:
    # (argv with CFG for the config, exit code, stdout, seed in the manifest)
    RUNS = [
        (["env-check", "CFG"], 0, "", None),
        (["bound", "--n", "4", "--x", "0.5", "--v", "1"], 0, "", None),
        (["simulate", "CFG", "--n", "4", "--seed", "1"], 0, "", 1),
        (["oracle", "CFG", "--n", "4", "--x", "0.5"], 0, "", None),
        (["verify", "sn", "CFG", "--n", "4", "--x", "0.5", "--trials", "2000",
          "--seed", "2"], 0, "verify sn: PASS\n", 2),
        (["verify", "theorem1", "CFG", "--n", "6", "--trials", "2000",
          "--seed", "3"], 0, "verify theorem1: PASS\n", 3),
        (["verify", "increments", "CFG", "--n", "8", "--trials", "2000",
          "--seed", "4"], 0, "verify increments: PASS\n", 4),
        (["verify", "oracle", "CFG", "--n", "4", "--grid-points", "5"], 0,
         "verify oracle: PASS\n", None),
        (["converge", "CFG", "--n-values", "4,8", "--y-values", "0.1",
          "--trials", "2000", "--seed", "5"], 0, "", 5),
    ]

    @pytest.mark.parametrize("argv, code, stdout, seed", RUNS, ids=[
        "-".join(argv[:2]) if argv[0] == "verify" else argv[0]
        for argv, *_ in RUNS])
    def test_contents(self, tmp_path, capsys, monkeypatch, binary_cfg, argv,
                      code, stdout, seed):
        loads, load = [], cli.load_env

        def counted(path):
            loads.append(path)
            return load(path)
        monkeypatch.setattr(cli, "load_env", counted)
        out = tmp_path / "m"
        argv = [binary_cfg if arg == "CFG" else arg for arg in argv]
        assert cli.main([*argv, "--out", str(out)]) == code
        assert capsys.readouterr().out == stdout
        configs = [binary_cfg] if binary_cfg in argv else []
        assert loads == configs
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "bpre " + shlex.join([*argv, "--out",
                                                            str(out)])
        expected_sha = hashlib.sha256(
            (tmp_path / "binary.json").read_bytes()).hexdigest()
        assert manifest["env_config_sha256"] == (expected_sha if configs
                                                 else None)
        assert manifest["seed"] == seed
        assert manifest["rng_id"].startswith("philox4x64:")
        assert manifest["outputs"] == ["result.json", *sorted(
            path.name for path in out.glob("result*.csv"))]
        assert sorted(path.name for path in out.iterdir()) == sorted(
            ["manifest.json", *manifest["outputs"]])

    def test_records_the_python_and_numpy_versions(self, tmp_path, capsys,
                                                   binary_cfg):
        # numpy's binomial and normal streams may change across releases
        out = tmp_path / "v"
        assert cli.main(["simulate", binary_cfg, "--n", "4", "--seed", "1",
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__


class TestParserBuiltOnce:
    # (command, plain flags, flags that override defaults), each run alone
    # with a fresh parser and in alternating order with the cached one
    RUNS = [(["verify", "oracle"], ["--n", "8"],
             ["--grid-points", "7", "--M-kind", "paper"]),
            (["oracle"], ["--n", "8", "--x", "0.5"], ["--M-kind", "paper"]),
            (["verify", "sn"], ["--n", "8", "--x", "0.5", "--trials", "2000",
                                "--seed", "1"],
             ["--level", "0.9", "--M-kind", "paper", "--workers", "1"])]

    def test_no_default_leaks_between_calls(self, tmp_path, capsys, binary_cfg):
        def run(argv, out):
            assert cli.main([*argv, "--out", str(out)]) in (0, 1)
            return {p.name: p.read_bytes() for p in sorted(out.glob("result*"))}
        argvs = [cmd + [binary_cfg] + plain + extra
                 for cmd, plain, flags in self.RUNS for extra in ([], flags)]
        order = [0, 3, 4, 1, 2, 5, 1, 4, 3, 0, 5, 2]  # plain and flagged alternate
        assert cli.build_parser() is cli.build_parser()
        cached = [(i, run(argvs[i], tmp_path / f"cached{k}"))
                  for k, i in enumerate(order)]
        fresh = []
        for i, argv in enumerate(argvs):
            cli.build_parser.cache_clear()
            fresh.append(run(argv, tmp_path / f"fresh{i}"))
            assert fresh[i] and all(files == fresh[i] for j, files in cached
                                    if j == i), argv
        assert all(fresh[i] != fresh[i + 1] for i in range(0, len(fresh), 2))


class TestArgsAndFormat:
    def test_trials_scientific(self):
        assert cli._trials("1e6") == 10 ** 6
        assert cli._trials("250") == 250
        for bad in ("0", "-3", "2.5", "abc"):
            with pytest.raises(Exception):
                cli._trials(bad)

    def test_fmt_shortest_roundtrip(self):
        assert cli.fmt(0.1) == "0.10000000000000001"
        assert cli.fmt(1.0) == "1"
        assert cli.fmt(float("inf")) == "inf"
        assert cli.fmt(float("-inf")) == "-inf"
        assert cli.fmt(float("nan")) == "nan"
        assert float(cli.fmt(math.pi)) == math.pi

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_no_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_bad_seed_rejected(self, binary_cfg):
        with pytest.raises(SystemExit):
            cli.main(["simulate", binary_cfg, "--n", "3", "--seed", "-1",
                      "--out", "x"])


def _digest_key(line: str) -> str:
    """The run (or kernel entry) a tools/output_digest.py line belongs to."""
    parts = line.split("  ")
    if parts[0].startswith("exit ") or parts[0] in ("stdout", "stderr"):
        return parts[1]
    if parts[0].startswith("exact_"):
        return f"{parts[0]} {parts[1]}"
    return parts[1] if parts[1].startswith("kernel/") else parts[1].split("/")[0]


def _by_run(lines: list[str]) -> dict[str, list[str]]:
    runs: dict[str, list[str]] = {}
    for line in lines:
        runs.setdefault(_digest_key(line), []).append(line)
    return runs


def test_output_digest_matches_digest_txt(tmp_path):
    # tools/digest.txt is the committed output of tools/output_digest.py. A
    # change that moves output bytes regenerates it in the same commit, so
    # its diff names the runs that moved. The tool itself checks the
    # manifest of every run that exits 0; an exit 2 or 3 means its run list
    # no longer matches the CLI.
    tools = Path(__file__).resolve().parents[1] / "tools"
    tool = runpy.run_path(str(tools / "output_digest.py"),
                          run_name="output_digest")
    want = (tools / "digest.txt").read_text(encoding="utf-8").splitlines()
    head = tool["header"]()
    if want[0] != head:
        pytest.fail(f"tools/digest.txt was made under {want[0][2:]!r}, this is "
                    f"{head[2:]!r}: the manifests and numpy's streams follow "
                    "the versions, and the dot products' rounding the "
                    "OpenBLAS core, so regenerate the file under these")
    got = tool["all_lines"](tmp_path)
    exits = [line.split() for line in got if line.startswith("exit ")]
    assert [run for *_, run in exits] == [run for run, *_ in tool["RUNS"]]
    assert {code for _, code, _ in exits} <= {"0", "1"}
    want_runs, got_runs = _by_run(want[1:]), _by_run(got[1:])
    moved = [run for run in {**want_runs, **got_runs}
             if want_runs.get(run) != got_runs.get(run)]
    assert not moved, (f"runs whose output differs from tools/digest.txt: "
                       f"{', '.join(moved)}")
    assert got == want
