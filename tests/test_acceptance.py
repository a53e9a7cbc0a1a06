"""Acceptance gate: one test per shipped claim, each at its stated tolerance.

Every test prints a single ACCEPTANCE line (visible under pytest -s; under
plain pytest the per-test PASS/FAIL verdict carries the same information)
and enforces its runtime budget. Tolerances and budgets are part of the
claims and must not be loosened.
"""

import json
import math
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bpre import cli
from bpre.bounds import (BoundQuery, H, H_upper, Theorem1Params, dH_dx,
                         sn_tail_bound, theorem1_bound)
from bpre.env import check_assumptions, compute_moments, parse_env_config
from bpre.estimate import (fit_geometric_decay, mc_logw_increments,
                           mc_tail_logzn, mc_tail_sn, theorem1_candidates)
from bpre.oracle import exact_EWn, exact_logZn_tail, exact_sn_tail
from bpre.simulate import (DOMAIN_QUENCHED, DOMAIN_SIMULATE, EnvTables,
                           simulate_block, stream)
from brute import quenched_martingale_check
from models import BINARY

WORKERS = min(8, os.cpu_count() or 1)


@pytest.fixture(scope="module")
def env():
    return parse_env_config(BINARY)


@pytest.fixture(scope="module")
def moments(env):
    return compute_moments(env)


@contextmanager
def criterion(num, label, budget):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {label}: FAIL "
              f"({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if budget is None or elapsed < budget else "FAIL"
    extra = "" if budget is None else f", budget {budget:g}s"
    print(f"ACCEPTANCE {num} {label}: {verdict} ({elapsed:.2f}s{extra})")
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {num} exceeded its {budget:g}s budget: {elapsed:.2f}s")


def test_criterion_1_closed_forms(env, moments):
    with criterion(1, "closed-form moments and assumptions", 1.0):
        mu_ref = 0.5 * math.log(1.75) + 0.5 * math.log(1.25)
        assert abs(moments.mu - mu_ref) <= 1e-12
        assert abs(moments.mu - 0.3913797) <= 1e-6
        m_paper_ref = math.log(2.0) - mu_ref
        assert abs(moments.M_paper - m_paper_ref) <= 1e-12
        assert abs(moments.M_paper - 0.3017675) <= 1e-6
        report = check_assumptions(env)
        assert report.all_pass
        assert len(report.checks) == 6


def test_criterion_2_h_function_suite():
    with criterion(2, "H-function identities and derivative", 5.0):
        worst_rel = 0.0
        for n in (1, 4, 16, 64):
            for v in (0.1, 1.0, 10.0):
                assert H(BoundQuery(n=n, x=0.0, v=v)) == 1.0
                for x_out in (n * 1.0000001, n + 1.0, 10.0 * n):
                    assert H(BoundQuery(n=n, x=x_out, v=v)) == 0.0
                xs = np.linspace(0.0, n, 1024)
                hs = [H(BoundQuery(n=n, x=float(x), v=v)) for x in xs]
                assert all(b <= a for a, b in zip(hs, hs[1:])), \
                    f"monotonicity violated at n={n} v={v}"
                assert all(h <= H_upper(float(x), v)
                           for x, h in zip(xs, hs))
                for x in xs[1:-1]:
                    x = float(x)
                    h = min(5e-6 * (1.0 + x), (n - x) / 3.0, x / 3.0)
                    num = (H(BoundQuery(n=n, x=x + h, v=v))
                           - H(BoundQuery(n=n, x=x - h, v=v))) / (2.0 * h)
                    an = dH_dx(BoundQuery(n=n, x=x, v=v))
                    if an != 0.0:
                        worst_rel = max(worst_rel, abs(num - an) / abs(an))
        assert worst_rel <= 1e-5, f"worst derivative mismatch {worst_rel:.3e}"


def test_criterion_3_exact_domination(env, moments):
    with criterion(3, "exact walk tail below the H bound", 30.0):
        sigma = math.sqrt(moments.sigma2)
        violations = 0
        for M in (moments.M_tight, moments.M_paper):
            for n in range(2, 11):
                for i in range(101):
                    x = n * i / 100
                    exact = exact_sn_tail(env, n, x, M, moments.mu)
                    bound = sn_tail_bound(n, x, sigma, M)
                    if exact > bound:
                        violations += 1
        assert violations == 0


def test_criterion_4_mc_brackets_oracle(env, moments):
    with criterion(4, "MC confidence intervals bracket the oracles", 300.0):
        n = 6
        M = moments.M_tight
        for x in (0.25, 0.5, 1.0):
            exact = exact_sn_tail(env, n, x, M, moments.mu)
            wins = sum(1 for seed in range(20)
                       if (lambda e: e.ci_low <= exact <= e.ci_high)(
                           mc_tail_sn(env, n, x, M, 10 ** 6, seed,
                                      workers=WORKERS)))
            assert wins >= 19, f"mc_tail_sn x={x}: {wins}/20"
        for x in (0.25, 0.5, 1.0):
            exact = exact_logZn_tail(env, n, x, moments, M)
            wins = sum(1 for seed in range(20)
                       if (lambda e: e.ci_low <= exact <= e.ci_high)(
                           mc_tail_logzn(env, n, x, M, 10 ** 5, seed,
                                         workers=WORKERS)))
            assert wins >= 19, f"mc_tail_logzn x={x}: {wins}/20"


def test_criterion_5_martingale_mean_one(env):
    with criterion(5, "normalized population is a mean-one martingale", 60.0):
        for n in range(1, 7):
            assert abs(exact_EWn(env, n) - 1.0) <= 1e-9
        # 10^4 trajectories as one block, on the stream `simulate --seed 0`
        # opens; W_20 = Z_20 / Pi_20 = exp(log Z_20 - S_20)
        tables = EnvTables(env)
        z, states, _ = simulate_block(tables, 20, 10 ** 4,
                                      stream(0, DOMAIN_SIMULATE, 0))
        ws = np.exp(np.log(z[-1]) - tables.X[states].sum(axis=0)).tolist()
        mean = statistics.fmean(ws)
        stderr = statistics.stdev(ws) / math.sqrt(len(ws))
        assert abs(mean - 1.0) <= 4.0 * stderr
        states = tables.pick_states(stream(0, DOMAIN_QUENCHED, 0).random(10))
        rep = quenched_martingale_check(env, states, k=5, replicas=10 ** 4,
                                        rng=stream(0, DOMAIN_QUENCHED, 1))
        assert abs(rep.mean_ratio - 1.0) <= 4.0 * rep.stderr


def test_criterion_6_far_tail_regime(env, moments):
    with criterion(6, "x=3 tail is empty and below the fitted bound", 600.0):
        x = 3.0
        M = moments.M_paper
        for n in range(1, 7):
            assert exact_logZn_tail(env, n, x, moments, M) == 0.0
        points = {}
        for n in (16, 32):
            est = mc_tail_logzn(env, n, x, M, 10 ** 6, seed=0,
                                workers=WORKERS)
            assert est.hits == 0, f"n={n}: {est.hits} hits"
            points[n] = est.point
        incs = mc_logw_increments(env, 20, 10 ** 5, seed=0, workers=WORKERS)
        fit = fit_geometric_decay([(s.k, s.mean) for s in incs
                                   if 2 <= s.k <= 15])
        C_hat, delta_hat = theorem1_candidates(fit)
        for n in (16, 32):
            bound = theorem1_bound(Theorem1Params(n=n, m=n, M=M, C=C_hat,
                                                  delta=delta_hat))
            assert bound >= 0.0
            assert points[n] <= bound


def test_criterion_7_geometric_increment_decay(env):
    with criterion(7, "martingale log-increments decay geometrically",
                   120.0):
        incs = mc_logw_increments(env, 20, 10 ** 5, seed=0, workers=WORKERS)
        by_k = {s.k: s.mean for s in incs}
        fit = fit_geometric_decay([(k, by_k[k]) for k in range(2, 16)])
        assert 0.0 < fit.delta_hat < 1.0
        assert fit.r2 >= 0.9
        assert by_k[15] <= by_k[2] / 5.0


def test_criterion_8_reproducibility(tmp_path, capsys):
    with criterion(8, "byte-identical CSVs across worker counts", None):
        cfg_path = tmp_path / "binary.json"
        cfg_path.write_text(json.dumps(BINARY))
        blobs, codes = {}, {}
        for w in ("1", "8"):
            for mode, argv in {
                "sn": ["verify", "sn", str(cfg_path), "--n", "8",
                       "--x", "0.3", "--trials", "50000", "--seed", "3"],
                "inc": ["verify", "increments", str(cfg_path), "--n", "10",
                        "--trials", "20000", "--seed", "3"],
                # head depth 9: rows k >= 9 are sampled over two blocks
                "inc-sampled": ["verify", "increments", str(cfg_path), "--n",
                                "16", "--trials", "20000", "--seed", "3"],
                "cvg": ["converge", str(cfg_path), "--n-values", "4,8",
                        "--y-values", "0.1,0.3", "--trials", "20000",
                        "--seed", "3"],
                # a reachable tail: head depth 10, six generations stepped
                # over the trials each block leaves undecided
                "thm1": ["verify", "theorem1", str(cfg_path), "--n", "16",
                         "--x", "0.2", "--M-kind", "tight", "--trials",
                         "50000", "--seed", "3"],
            }.items():
                out = tmp_path / f"{mode}-w{w}"
                code = cli.main(argv + ["--workers", w, "--out", str(out)])
                # the fitted bound fails at this reachable x (exit 1), so
                # theorem1 is held to the same code at both worker counts
                if mode != "thm1":
                    assert code == 0
                codes[(mode, w)] = code
                blobs[(mode, w)] = (out / "result.csv").read_bytes()
        capsys.readouterr()
        for mode in ("sn", "inc", "inc-sampled", "cvg", "thm1"):
            assert codes[(mode, "1")] == codes[(mode, "8")], mode
            assert blobs[(mode, "1")] == blobs[(mode, "8")], mode
