import hashlib
import json
import math
import platform
import tracemalloc

import numpy as np

import pytest

from bpre import cli, estimate, oracle
from bpre.bounds import BoundQuery, H, H_upper, log_H, sn_tail_bound
from bpre.env import compute_moments, parse_env_config
from bpre.estimate import IncrementStat, IncrementStats, _head_depth
from bpre.oracle import exact_logZn_tail, exact_sn_tail
import bpre.simulate
from bpre.simulate import (DOMAIN_SIMULATE, EnvTables, SimConfig,
                           simulate_block, stream)

BINARY_TEXT = json.dumps({
    "model": "binary",
    "support": [{"p": 0.25, "mass": 0.5}, {"p": 0.75, "mass": 0.5}]})
DOUBLING_TEXT = json.dumps({
    "model": "generic",
    "states": [{"label": "double", "mass": 1.0, "offspring": {"2": 1.0}}]})
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
RISKY_TEXT = json.dumps({
    "model": "generic",
    "states": [{"label": "risky", "mass": 1.0,
                "offspring": {"0": 0.1, "3": 0.9}}]})


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
        assert cli.main(["simulate", binary_cfg, "--n", "80", "--trials", "3",
                         "--exact-threshold", "1000", "--seed", "11",
                         "--out", str(out)]) == 0
        tables = EnvTables(parse_env_config(BINARY_TEXT))
        cfg = SimConfig(n=80, seed=11, exact_sampling_threshold=1000)
        z, states, approx = simulate_block(tables, cfg, 3,
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
        # the sha256 of this CSV when each trajectory stepped Python ints on
        # its own stream: a block of one draws the same values, Gaussian
        # draws past 2^32 included, while Z stays below 2^53
        out = tmp_path / "one"
        assert cli.main(["simulate", binary_cfg, "--n", "60", "--seed", "3",
                         "--out", str(out)]) == 0
        assert json.loads((out / "result.json").read_text())[
            "approx_sampling_used"]
        assert hashlib.sha256((out / "result.csv").read_bytes()).hexdigest() == (
            "13071ef271f9523cf12ffab21380a6c56b91f81869de1a462ca64505e311f4fc")

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
        # increment means that double per generation fit delta_hat = 2: no
        # geometric-decay candidate, so there is no bound to pass
        def growing(env, n, trials, seed, workers=1):
            return IncrementStats([IncrementStat(k=k, mean=0.01 * 2.0 ** k,
                                                 stderr=0.0)
                                   for k in range(n)], False)

        monkeypatch.setattr(cli, "mc_logw_increments", growing)
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
        # 2^70 > 2^62: the tail estimate and the increment fit both step
        # float64 populations, so the horizon runs instead of exiting 3
        out = tmp_path / "t1big"
        code = cli.main(["verify", "theorem1", binary_cfg, "--n", "70",
                         "--trials", "2000", "--seed", "0", "--out", str(out)])
        assert code in (0, 1)
        result = json.loads((out / "result.json").read_text())
        assert result["n"] == 70
        assert result["hits"] == 0  # x=3 is far outside the support
        # so is the exact tail, decided with no propagation of 2^70 atoms
        assert result["exact_tail"] == 0.0
        assert "delta_hat" in result
        assert "bound_thm1" in result
        # the fit's populations pass 2^32 and take Gaussian draws
        assert result["approx_sampling_used"] is True
        # the fit's means below the head depth are exact, the rest sampled
        assert 0 < result["increment_head_depth"] < 70

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
        # Z_70 is about 2^39 on the README model; Z_16 stays below 2^32
        for n, approx in (("70", True), ("8,16", False)):
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


class TestInputCheckedBeforeSampling:
    """Bad verify/converge/oracle input exits 2 before any estimator or
    exact oracle runs."""

    ESTIMATORS = ("mc_tail_sn", "mc_tail_logzn", "mc_logw_increments",
                  "convergence_report", "exact_sn_tail", "exact_sn_tails",
                  "exact_logZn_tail")

    @pytest.fixture(autouse=True)
    def no_estimator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("estimator called")
        for name in self.ESTIMATORS:
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("mode, flags", [
        ("theorem1", ["--n", "16", "--m", "20"]),
        ("theorem1", ["--n", "5"]),
        ("increments", ["--n", "20", "--fit-lo", "25"]),
        ("increments", ["--n", "40", "--fit-hi", "45"]),
        ("increments", ["--n", "20", "--fit-lo", "2", "--fit-hi", "4"]),
    ])
    def test_range_rejected(self, capsys, binary_cfg, mode, flags):
        assert cli.main(["verify", mode, binary_cfg, *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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
    def test_contents(self, tmp_path, capsys, binary_cfg):
        out = tmp_path / "m"
        argv = ["verify", "oracle", binary_cfg, "--n", "4",
                "--grid-points", "5", "--out", str(out)]
        cli.main(argv)
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"].startswith("bpre verify oracle")
        expected_sha = hashlib.sha256(
            (tmp_path / "binary.json").read_bytes()).hexdigest()
        assert manifest["env_config_sha256"] == expected_sha
        assert manifest["rng_id"].startswith("philox4x64:")
        assert manifest["outputs"] == ["result.json", "result.csv"]
        for name in manifest["outputs"]:
            assert (out / name).exists()

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
