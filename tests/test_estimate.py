import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import types

import mpmath
import numpy as np
import pytest

import bpre
from bpre import oracle
from bpre.env import ConfigError, ResourceCapError, parse_env_config
from bpre.env import compute_moments
import bpre.estimate
from bpre.estimate import (BLOCK_TRIALS, HEAD_WORK_PER_DRAW, MAX_TRIALS,
                           DecayFit,
                           TailEstimate, _deepest, _head_depth,
                           _increment_depth, _KernelHead, _block_tasks,
                           _run, _tail_estimate, _tail_hits, binomial_ci,
                           convergence_report, fit_geometric_decay,
                           mc_logw_increments, mc_tail_logzn, mc_tail_sn,
                           theorem1_candidates)
from bpre.oracle import (MAX_KERNEL_WORK, TIE_EPS, TailEvent, _annealed_laws,
                         _table_work, exact_EWn, exact_logw_increments,
                         exact_logZn_tail, exact_sn_tail, kernel_work)
from bpre.simulate import (DOMAIN_INCREMENTS, DOMAIN_SN, DOMAIN_TRAJ,
                           INT64_SAFE, STATE_CHUNK, EnvTables,
                           _generation, _state_rows, offspring,
                           simulate_block, stream)
from models import BINARY, DOUBLING, GENERIC, MIXED, binary_env

# only odd populations have mass
GAPPED = {"model": "generic",
          "states": [{"label": "odd", "mass": 1.0,
                      "offspring": {"1": 0.5, "3": 0.5}}]}
TRIPLE = {"model": "generic",
          "states": [{"label": "triple", "mass": 1.0, "offspring": {"3": 1.0}}]}

# frozen closed-form CI endpoints
CI_0_100_95_HIGH = 0.03621669264517642
CI_100_100_95_LOW = 0.9637833073548235
CI_0_1E6_99_HIGH = 5.298303330489367e-06


# --- independent route: bisection on the exact binomial CDF -----------------

def _binom_cdf(j, n, p):
    return math.fsum(math.comb(n, i) * p ** i * (1 - p) ** (n - i)
                     for i in range(j + 1))


def ci_bisect(hits, trials, level):
    """Clopper-Pearson endpoints found by bisecting the defining equations."""
    alpha = 1 - level

    def solve(fn, target):
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if fn(mid) > target:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2

    low = 0.0 if hits == 0 else solve(
        lambda p: 1 - _binom_cdf(hits - 1, trials, p), alpha / 2)
    high = 1.0 if hits == trials else solve(
        lambda p: 1 - _binom_cdf(hits, trials, p), 1 - alpha / 2)
    return low, high


# --- independent route: the Clopper-Pearson tails at 45 digits --------------

def mp_tail(n, k, p, upper):
    """P(Bin(n, p) >= k), or P(Bin(n, p) <= k) if upper, at 45 digits: the
    first term from log-gamma, then the term ratio until the terms fall below
    1e-45 of the sum."""
    with mpmath.workdps(45):
        p = mpmath.mpf(p)
        q = 1 - p
        if upper:  # P(Bin(n, p) <= k) = P(Bin(n, q) >= n - k)
            p, q, k = q, p, n - k
        term = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1)
                          - mpmath.loggamma(n - k + 1)
                          + k * mpmath.log(p) + (n - k) * mpmath.log(q))
        total, odds, eps = term, p / q, mpmath.mpf(10) ** -45
        for j in range(k, n):
            term *= (n - j) * odds / (j + 1)
            total += term
            if term < eps * total:
                break
        return total


def assert_exact_bounds(hits, trials, level):
    """For 0 < hits < trials, each bound p has the exact root of its tail
    equation within 8 ulp: the 45-digit tail at p -/+ 8 ulp brackets
    alpha/2."""
    half_alpha = (1.0 - level) / 2.0
    for p, upper in zip(binomial_ci(hits, trials, level), (False, True)):
        step = 8 * math.ulp(p)
        left, right = mp_tail(trials, hits, p - step, upper), mp_tail(
            trials, hits, p + step, upper)
        if upper:  # the tail falls as p rises
            left, right = right, left
        assert left <= half_alpha <= right, (hits, trials, level, upper, p)


class TestBinomialCI:
    def test_zero_hit_closed_form(self):
        low, high = binomial_ci(0, 100, 0.95)
        assert low == 0.0
        assert high == pytest.approx(CI_0_100_95_HIGH, rel=1e-13)
        assert high == pytest.approx(1 - 0.025 ** (1 / 100), rel=1e-9)

    def test_all_hit_closed_form(self):
        low, high = binomial_ci(100, 100, 0.95)
        assert high == 1.0
        assert low == pytest.approx(CI_100_100_95_LOW, rel=1e-13)

    def test_zero_hit_large_trials(self):
        _, high = binomial_ci(0, 10 ** 6, 0.99)
        assert high == pytest.approx(CI_0_1E6_99_HIGH, rel=1e-13)

    @pytest.mark.parametrize("hits,trials", [(50, 100), (3, 100), (97, 100),
                                             (1, 50), (20, 40)])
    def test_matches_bisection_oracle(self, hits, trials):
        low, high = binomial_ci(hits, trials, 0.95)
        blow, bhigh = ci_bisect(hits, trials, 0.95)
        assert low == pytest.approx(blow, abs=1e-10)
        assert high == pytest.approx(bhigh, abs=1e-10)

    @pytest.mark.parametrize("level", [0.95, 0.99, 0.999999])
    @pytest.mark.parametrize("trials", [10, 37, 100, 1000, 10 ** 4, 10 ** 5])
    @pytest.mark.parametrize("share", [0.0, 1 / 3, 1 / 2, 1.0])
    def test_bounds_are_exact_roots(self, share, trials, level):
        # interior hits from 1 to trials - 1
        hits = min(max(int(share * trials), 1), trials - 1)
        assert_exact_bounds(hits, trials, level)

    @pytest.mark.parametrize("hits,trials,level", [
        (5, 662, 0.999999), (1, 10 ** 7, 0.95), (9_066_440, 51_715_996, 0.99)])
    def test_exact_where_the_beta_quantile_misses(self, hits, trials, level):
        # the inverse incomplete beta at 1 - alpha/2 misses the first two
        # upper bounds and the last lower bound by far more than 8 ulp
        assert_exact_bounds(hits, trials, level)

    def test_single_trial(self):
        assert binomial_ci(0, 1, 0.95) == (0.0, pytest.approx(0.975, rel=1e-15))
        assert binomial_ci(1, 1, 0.95) == (pytest.approx(0.025, rel=1e-15), 1.0)

    @pytest.mark.parametrize("hits", [1, 10 ** 9 - 1])
    def test_one_hit_or_miss_in_a_billion(self, hits):
        low, high = binomial_ci(hits, 10 ** 9, 0.95)
        assert 0.0 < low < hits / 10 ** 9 < high < 1.0
        assert_exact_bounds(hits, 10 ** 9, 0.95)

    @pytest.mark.parametrize("trials", [1, 2, 10, 37, 1000, 10 ** 5, 10 ** 9])
    def test_intervals_nest_and_hold_the_point(self, trials):
        levels = [0.5, 0.9, 0.95, 0.99, 0.999999, 1 - 1e-12]
        for hits in sorted({0, 1, trials // 3, trials // 2, trials - 1, trials}):
            low, high = 1.0, 0.0
            for level in levels:
                lo, hi = binomial_ci(hits, trials, level)
                assert 0.0 <= lo <= hits / trials <= hi <= 1.0
                assert lo <= low and hi >= high, (hits, trials, level)
                low, high = lo, hi

    def test_interval_contains_point(self):
        for hits, trials in ((0, 10), (5, 10), (10, 10), (333, 1000)):
            low, high = binomial_ci(hits, trials, 0.99)
            assert low <= hits / trials <= high

    def test_central_interval_straddles_half(self):
        low, high = binomial_ci(50, 100, 0.95)
        assert low < 0.5 < high

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_ci(-1, 10, 0.95)
        with pytest.raises(ValueError):
            binomial_ci(11, 10, 0.95)
        with pytest.raises(ValueError):
            binomial_ci(1, 0, 0.95)
        for level in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                binomial_ci(1, 10, level)

    def test_coverage_sanity(self):
        # synthetic Bernoulli at p=0.3, 1000 repetitions, nominal 95%
        rng = np.random.Generator(np.random.Philox(key=1234))
        p, trials, reps = 0.3, 200, 1000
        hits = rng.binomial(trials, p, size=reps)
        covered = sum(1 for h in hits
                      if (lambda lo_hi: lo_hi[0] <= p <= lo_hi[1])(
                          binomial_ci(int(h), trials, 0.95)))
        assert covered / reps >= 0.93


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(bpre.__file__)))
    # nor does the exact kernel, at populations past 1000, nor the increment
    # estimator, all exact at n = 8 and with a kernel head at n = 12; and
    # after a verify sn and a converge, whose intervals are Clopper-Pearson,
    # no scipy module at all is loaded; nor is any module outside bpre,
    # numpy and the standard library (site may have loaded others before;
    # numpy's Cython extensions put cython_runtime and _cython_X_Y_Z there
    # themselves, with no __spec__: nothing is imported for them)
    cfg = tmp_path / "binary.json"
    cfg.write_text(json.dumps(BINARY), encoding="utf-8")
    code = ("import sys; before = set(sys.modules); "
            "import bpre; from bpre import cli; "
            "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules); "
            "env = bpre.parse_env_config(%r); bpre.exact_EWn(env, 11); "
            "print('scipy.stats' in sys.modules); "
            "bpre.mc_logw_increments(env, 8, 2000, 0); "
            "bpre.mc_logw_increments(env, 12, 2000, 0); "
            "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules); "
            "codes = [cli.main(['verify', 'sn', %r, '--n', '6', '--x', '0.5', "
            "'--trials', '2000', '--seed', '0', '--out', %r]), "
            "cli.main(['converge', %r, '--n-values', '4,8', '--y-values', "
            "'0.1,0.3', '--trials', '2000', '--seed', '0', '--out', %r])]; "
            "print(codes == [0, 0], any(m.split('.')[0] == 'scipy' "
            "for m in sys.modules)); "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before"
            " if getattr(sys.modules[m], '__spec__', None) is not None}"
            " - {'bpre', 'numpy'} - set(sys.stdlib_module_names)))"
            % (BINARY, str(cfg), str(tmp_path / "sn"), str(cfg),
               str(tmp_path / "cv")))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    lines = out.stdout.splitlines()
    assert " ".join(lines[:3]).split() == ["False"] * 5
    assert lines[-2:] == ["True False", "[]"]


class TestMcTailSn:
    def test_deterministic_env_at_zero_hits_everything(self):
        env = parse_env_config(DOUBLING)
        est = mc_tail_sn(env, 5, 0.0, 1.0, 2000, seed=0)
        assert est.hits == est.trials
        assert est.point == 1.0
        assert est.ci_high == 1.0

    def test_impossible_event_has_zero_hits(self):
        # the normalized statistic is at most 1 when M = M_tight
        env = binary_env()
        mom = compute_moments(env)
        est = mc_tail_sn(env, 6, 1.0000001, mom.M_tight, 5000, seed=1)
        assert est.hits == 0

    def test_boundary_atom_counted(self):
        # at x = 1 the all-high sequence sits exactly on the threshold
        env = binary_env()
        mom = compute_moments(env)
        est = mc_tail_sn(env, 4, 1.0, mom.M_tight, 50000, seed=2)
        assert est.hits > 0
        assert est.point == pytest.approx(1 / 16, rel=0.2)

    def test_oracle_value_in_ci(self):
        env = binary_env()
        mom = compute_moments(env)
        exact = exact_sn_tail(env, 6, 0.5, mom.M_tight, mom.mu)
        est = mc_tail_sn(env, 6, 0.5, mom.M_tight, 10 ** 5, seed=3)
        assert est.ci_low <= exact <= est.ci_high

    def test_worker_count_does_not_change_results(self):
        env = binary_env()
        mom = compute_moments(env)
        trials = 3 * BLOCK_TRIALS + 17  # force an uneven final block
        runs = [mc_tail_sn(env, 8, 0.3, mom.M_tight, trials, seed=4,
                           workers=w) for w in (1, 2, 8)]
        assert runs[0] == runs[1] == runs[2]

    @staticmethod
    def left_to_right(counts, X):
        """S_n of each row of counts, summed over the states in order in
        Python floats: one rounding per product and per sum, no FMA."""
        sums = []
        for row in counts.tolist():
            s = 0.0
            for c, x in zip(row, X.tolist()):
                s = s + c * x
            sums.append(s)
        return np.array(sums)

    def test_block_replayed_by_hand(self, monkeypatch):
        # one multinomial call for the block's state counts, then S_n summed
        # over the states left to right, bit for bit whatever the BLAS: on a
        # SkylakeX core counts @ X differs from it in the last bit on some
        # of these S_n
        reached, seen = TailEvent.reached, []

        def spy(event, stat):
            seen.append(np.array(stat))
            return reached(event, stat)
        monkeypatch.setattr(TailEvent, "reached", spy)
        for cfg in (BINARY, GENERIC, MIXED):
            env = parse_env_config(cfg)
            tables = EnvTables(env)
            mom = compute_moments(env)
            trials, n, x = 5000, 12, 0.2
            counts = stream(9, DOMAIN_SN, 0).multinomial(n, tables.pick_probs,
                                                          trials)
            assert counts.shape == (trials, len(env.states))
            assert (counts.sum(axis=1) == n).all()
            s_n = self.left_to_right(counts, tables.X)
            hits = int(np.count_nonzero(
                reached(TailEvent(n, mom.mu, mom.M_tight, x), s_n)))
            assert 0 < hits < trials
            assert mc_tail_sn(env, n, x, mom.M_tight, trials, seed=9).hits == hits
            assert seen.pop().tobytes() == s_n.tobytes() and not seen

    @pytest.mark.parametrize("cfg, n, xs", [
        # x = 1 under M_tight: only the all-high sequence, on the threshold
        (BINARY, 10, (0.2, 0.5, 1.0)),
        (GENERIC, 10, (0.2, 0.5, 1.0)),
        (MIXED, 9, (0.0, 0.3, 0.6)),
    ])
    def test_hits_bracket_the_exact_tail(self, cfg, n, xs):
        env = parse_env_config(cfg)
        mom = compute_moments(env)
        trials = 200_000
        for x in xs:
            exact = exact_sn_tail(env, n, x, mom.M_tight, mom.mu)
            assert exact > 0.0
            est = mc_tail_sn(env, n, x, mom.M_tight, trials, seed=12,
                             level=1 - 1e-6, workers=2)
            assert est.ci_low <= exact <= est.ci_high, (x, est.hits, exact)

    @pytest.mark.parametrize("masses", [
        [0.5, 0.3, 0.2 - 1e-12],  # cum[-1] < 1: the last state takes the rest
        [0.3, 0.7 + 4.5e-13, 4.5e-13],  # cum[1] > 1: the last state is never picked
    ])
    def test_masses_off_one_by_mass_tol(self, masses):
        env = parse_env_config({"model": "generic", "states": [
            {"label": f"s{j}", "mass": mass, "offspring": {str(j + 1): 1.0}}
            for j, mass in enumerate(masses)]})
        tables = EnvTables(env)
        mom = compute_moments(env)
        n, x, trials = 8, 0.2, 100_000
        exact = exact_sn_tail(env, n, x, mom.M_tight, mom.mu)
        est = mc_tail_sn(env, n, x, mom.M_tight, trials, seed=13,
                         level=1 - 1e-6)
        assert est.ci_low <= exact <= est.ci_high
        counts = stream(13, DOMAIN_SN, 0).multinomial(n, tables.pick_probs,
                                                      1000)
        assert (counts[:, 2] > 0).any() == (masses[2] > 1e-12)

    def test_insufficient_trials(self):
        env = binary_env()
        with pytest.raises(ValueError, match="insufficient trials"):
            mc_tail_sn(env, 4, 0.5, 0.2, 999, seed=0)

    def test_invalid_level(self):
        env = binary_env()
        with pytest.raises(ValueError):
            mc_tail_sn(env, 4, 0.5, 0.2, 2000, seed=0, level=1.5)


class TestMcTailLogZn:
    def test_deterministic_doubling_at_zero(self):
        env = parse_env_config(DOUBLING)
        est = mc_tail_logzn(env, 6, 0.0, 1.0, 2000, seed=0)
        assert est.point == 1.0

    def test_oracle_value_in_ci(self):
        env = binary_env()
        mom = compute_moments(env)
        exact = exact_logZn_tail(env, 8, 0.5, mom, mom.M_tight)
        est = mc_tail_logzn(env, 8, 0.5, mom.M_tight, 10 ** 5, seed=5)
        assert est.ci_low <= exact <= est.ci_high

    def test_zero_hits_at_x_three(self):
        env = binary_env()
        mom = compute_moments(env)
        est = mc_tail_logzn(env, 16, 3.0, mom.M_paper, 10 ** 4, seed=6)
        assert est.hits == 0
        assert est.ci_low == 0.0

    def test_worker_invariance(self):
        env = binary_env()
        mom = compute_moments(env)
        a = mc_tail_logzn(env, 10, 0.4, mom.M_tight, 2 * BLOCK_TRIALS + 5,
                          seed=7, workers=1)
        b = mc_tail_logzn(env, 10, 0.4, mom.M_tight, 2 * BLOCK_TRIALS + 5,
                          seed=7, workers=8)
        assert a == b

    def test_float64_populations_beyond_int64_range(self):
        # n = 63 with k_max = 2 is past int64; the float64 populations must
        # deliver the same contract
        env = binary_env()
        mom = compute_moments(env)
        est = mc_tail_logzn(env, 63, 0.0, mom.M_tight, 1000, seed=8)
        assert est.trials == 1000
        assert 0.3 <= est.point <= 0.7  # median-ish event

    def test_extinction_possible_env_refused(self):
        env = parse_env_config({
            "model": "generic",
            "states": [{"label": "risky", "mass": 1.0,
                        "offspring": {"0": 0.1, "2": 0.9}}]})
        with pytest.raises(ConfigError):
            mc_tail_logzn(env, 5, 0.5, 0.3, 2000, seed=0)

    def test_population_cap_raises(self):
        # 3^330 > 2^512: the cap stops float64 populations long before
        # overflow. At x = 0 every trial stays open until generation n (its
        # bound log Z_k + (n - k) log 3 sits on the threshold), so it is
        # stepped into the cap.
        env = parse_env_config(TRIPLE)
        with pytest.raises(ResourceCapError, match="514 bits, cap is 512 bits"):
            mc_tail_logzn(env, 330, 0.0, 1.0, 1000, seed=0)
        # at x = 0.5 that bound misses the threshold at the head, so every
        # trial is a miss before any generation is stepped
        assert mc_tail_logzn(env, 330, 0.5, 1.0, 1000, seed=0).hits == 0


class TestTrialsCap:
    """Every estimator refuses more than MAX_TRIALS trials before it lists a
    block: the list alone would grow with the trial count."""

    @pytest.fixture(autouse=True)
    def no_blocks(self, monkeypatch):
        def refuse(trials):
            raise AssertionError("blocks listed")
        monkeypatch.setattr(bpre.estimate, "_blocks", refuse)

    @pytest.mark.parametrize("estimate", [
        lambda trials: mc_tail_sn(binary_env(), 4, 0.5, 0.2, trials, seed=0),
        lambda trials: mc_tail_logzn(binary_env(), 4, 0.5, 0.2, trials, seed=0),
        lambda trials: mc_logw_increments(binary_env(), 5, trials, seed=0),
        lambda trials: convergence_report(binary_env(), [4], [0.1], trials,
                                          seed=0),
    ], ids=["sn", "logzn", "increments", "converge"])
    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10 ** 30])
    def test_refused_before_any_block(self, estimate, trials):
        with pytest.raises(ValueError, match="too many trials"):
            estimate(trials)

    def test_cap_itself_accepted(self):
        with pytest.raises(AssertionError, match="blocks listed"):
            mc_tail_sn(binary_env(), 4, 0.5, 0.2, MAX_TRIALS, seed=0)


class TestBlockStreams:
    """Block b of every estimator draws from the stream keyed by
    (seed, domain, b), opened once per block and, at workers=1, in block
    order (_block_tasks); a call that samples nothing opens none."""

    @pytest.mark.parametrize("estimate, domain, horizons", [
        (lambda env, mom, trials: mc_tail_sn(env, 16, 0.2, mom.M_tight, trials,
                                             seed=5), DOMAIN_SN, 1),
        (lambda env, mom, trials: mc_tail_logzn(env, 16, 0.3, mom.M_tight,
                                                trials, seed=5), DOMAIN_TRAJ, 1),
        # decided at Z_0 = 1: no head, no block
        (lambda env, mom, trials: mc_tail_logzn(env, 16, 3.0, mom.M_paper,
                                                trials, seed=5), DOMAIN_TRAJ, 0),
        (lambda env, mom, trials: mc_logw_increments(env, 20, trials, seed=5),
         DOMAIN_INCREMENTS, 1),
        # head depth g = n: every row exact, nothing sampled
        (lambda env, mom, trials: mc_logw_increments(env, 8, 2000, seed=5),
         DOMAIN_INCREMENTS, 0),
        (lambda env, mom, trials: convergence_report(env, [8, 20], [0.1],
                                                     trials, seed=5),
         DOMAIN_TRAJ, 2),
    ], ids=["sn", "logzn", "logzn-decided-at-z0", "increments",
            "increments-full-depth", "converge"])
    def test_keys_opened(self, monkeypatch, estimate, domain, horizons):
        opened = []

        def recorded(*key):
            opened.append(key)
            return stream(*key)
        monkeypatch.setattr(bpre.estimate, "stream", recorded)
        env = binary_env()
        estimate(env, compute_moments(env), 2 * BLOCK_TRIALS + 7)  # 3 blocks
        assert opened == [(5, domain, b) for b in range(3)] * horizons


class TestDecidedAtZ0:
    @pytest.mark.parametrize("cfg, x, M, expect", [
        # (log Z_n - n mu)/(n M_paper) <= 1 on every path: x = 3 is empty
        (BINARY, 3.0, "M_paper", 0),
        (GENERIC, 3.0, "M_paper", 0),
        # below the statistic of log Z_0 = 0, -mu/M: every trial is in it
        (BINARY, -2.0, "M_paper", 1),
        (GENERIC, -5.0, "M_tight", 1),
    ])
    def test_nothing_is_drawn(self, monkeypatch, cfg, x, M, expect):
        env = parse_env_config(cfg)
        tables = EnvTables(env)
        mom = compute_moments(env)
        M = getattr(mom, M)
        n, trials = 16, 2 * BLOCK_TRIALS + 7
        g = _head_depth(tables, n, trials)
        head = _KernelHead(g, _annealed_laws(env, g)[g])
        event = TailEvent(n, mom.mu, M, x)
        # the route that draws a head per block
        hits = sum(hits for hits, _ in _run(_block_tasks(
            lambda rng, size: _tail_hits(tables, size, rng, head, event),
            trials, 4, DOMAIN_TRAJ), 1))
        drawn = _tail_estimate(hits, trials, 0.99, x, n)
        assert hits == expect * trials

        def refuse(*args, **kwargs):
            raise AssertionError("an event fixed at Z_0 drew something")
        monkeypatch.setattr(bpre.estimate, "_annealed_laws", refuse)
        monkeypatch.setattr(bpre.estimate, "_KernelHead", refuse)
        monkeypatch.setattr(bpre.estimate, "stream", refuse)
        assert mc_tail_logzn(env, n, x, M, trials, seed=4, workers=2) == drawn


def _deviation_tail(law, n, mu, y):
    """Exact P(|log Z_n / n - mu| >= y) with convergence_report's tie rule."""
    return math.fsum(p for v, p in enumerate(law.tolist())
                     if v > 0 and abs(math.log(v) / n - mu) >= y - TIE_EPS)


def _within(hits, trials, exact, sigmas):
    sd = math.sqrt(trials * exact * (1.0 - exact))
    return abs(hits - trials * exact) <= sigmas * sd


class TestKernelHead:
    @pytest.mark.parametrize("cfg, g", [(BINARY, 6), (GAPPED, 4)])
    def test_head_draws_follow_the_kernel_law(self, cfg, g):
        env = parse_env_config(cfg)
        law = _annealed_laws(env, g)[g]
        draws = 200_000
        head = _KernelHead(g, law)
        z = head.draw(stream(11, DOMAIN_TRAJ, 0), draws)
        counts = np.bincount(z.astype(np.int64), minlength=len(law))
        assert counts.size == len(law)
        assert not counts[law == 0.0].any(), "a draw landed on a zero-mass atom"
        for v in np.flatnonzero(law):
            p = float(law[v])
            score = (counts[v] - draws * p) / math.sqrt(draws * p * (1.0 - p))
            assert abs(score) <= 5.0, f"Z_{g} = {v}: z = {score:.2f}"
        if cfg is GAPPED:
            assert not counts[::2].any()  # Z_g is a sum of odd family sizes

    def test_depth_rule(self):
        # the largest g <= n whose kernel work is at most HEAD_WORK_PER_DRAW
        # per binomial draw saved; it depends on the trial count, not workers
        for cfg, draws_per_pass in ((BINARY, 1), (GENERIC, 2)):
            tables = EnvTables(parse_env_config(cfg))
            for trials in (1000, 10 ** 4, 10 ** 6):
                g = _head_depth(tables, 40, trials)

                def fits(d):
                    work = kernel_work(tables.states, d)
                    return work <= min(MAX_KERNEL_WORK, HEAD_WORK_PER_DRAW
                                       * trials * d * draws_per_pass)
                assert 0 < g < 40 and fits(g) and not fits(g + 1)
                assert _head_depth(tables, g - 1, trials) == g - 1
        deterministic = EnvTables(parse_env_config(DOUBLING))
        assert _head_depth(deterministic, 10, 10 ** 6) == 0  # no draw to save

    def test_draw_mass_is_the_elementwise_sum(self):
        # the budget a head depth is held to sums mass * draws over the
        # states in numpy's own loops; a BLAS ddot (masses @ draws) gives
        # 2.7 here on a SkylakeX core, one ulp above the sum's
        # 2.6999999999999997
        tables = types.SimpleNamespace(masses=np.array([0.1, 0.35, 0.3, 0.25]),
                                       draws=np.array([1, 2, 3, 4]))
        budgets = []

        class Work(float):
            def __gt__(self, budget):
                budgets.append(budget)
                return True

        assert _deepest(tables, 5, 1, [Work(0.0)]) == 0
        mass = float((tables.masses * tables.draws).sum())
        assert budgets == [HEAD_WORK_PER_DRAW * mass]
        assert mass == 2.6999999999999997

    def test_draw_order_replayed_by_hand(self):
        # head uniforms, inverse CDF, the (size, n - g) environment matrix,
        # then one offspring pass per state per generation; mc_tail_logzn
        # first decides each trial and steps only the open ones, in block
        # order, each with its own row of the matrix
        for cfg, n in ((BINARY, 13), (GENERIC, 9)):
            env = parse_env_config(cfg)
            tables = EnvTables(env)
            mom = compute_moments(env)
            trials, seed = 5000, 21
            g = _head_depth(tables, n, trials)
            assert 0 < g < n
            law = _annealed_laws(env, g)[g]
            rng = stream(seed, DOMAIN_TRAJ, 0)
            idx = np.searchsorted(np.cumsum(law), rng.random(trials), side="right")
            z = np.minimum(idx, np.flatnonzero(law)[-1]).astype(np.float64)
            u = rng.random((trials, n - g))
            for k in range(n - g):
                col = tables.pick_states(u[:, k])
                for s, sampler in enumerate(tables.samplers):
                    sel = np.flatnonzero(col == s)
                    if sel.size:
                        z[sel] = offspring(z[sel], sampler, rng)
            replay = np.log(z)
            rng = stream(seed, DOMAIN_TRAJ, 0)
            got = _KernelHead(g, law).draw(rng, trials)
            for col in _state_rows(tables, n - g, trials, rng):
                _generation(tables, col, got, rng)
            assert replay.tobytes() == np.log(got).tobytes()
            # convergence_report's one block steps the same trials
            ys = (0.05, 0.1)
            rows = convergence_report(env, [n], ys, trials, seed)
            assert [row.hits for row in rows] == [
                int(np.count_nonzero(TailEvent(n, mom.mu, 1.0, y,
                                               two_sided=True).reached(replay)))
                for y in ys]

            reached = TailEvent(n, mom.mu, mom.M_tight, 0.3).reached
            rng = stream(seed, DOMAIN_TRAJ, 0)
            idx = np.searchsorted(np.cumsum(law), rng.random(trials), side="right")
            z = np.minimum(idx, np.flatnonzero(law)[-1]).astype(np.float64)
            u = rng.random((trials, n - g))
            rows = np.arange(trials)
            hits, stepped = 0, []
            for k in range(g, n):
                logz = np.log(z)
                hit = reached(logz)
                hits += int(np.count_nonzero(hit))
                keep = ~hit & reached(logz + (n - k) * math.log(env.k_max))
                z, rows = z[keep], rows[keep]
                stepped.append(z.size)
                col = tables.pick_states(u[rows, k - g])
                for s, sampler in enumerate(tables.samplers):
                    sel = np.flatnonzero(col == s)
                    if sel.size:
                        z[sel] = offspring(z[sel], sampler, rng)
            hits += int(np.count_nonzero(reached(np.log(z))))
            # some trials are decided early, and some are stepped to n
            assert trials > stepped[0] and stepped[-1] > 0, stepped
            est = mc_tail_logzn(env, n, 0.3, mom.M_tight, trials, seed)
            assert est.hits == hits

    def test_depth_zero_stepping_brackets_the_oracle(self):
        # at n = 6 mc_tail_logzn draws Z_6 from the oracle's own law; stepping
        # every generation from Z_0 = 1 (the last row of a simulate_block)
        # keeps a route independent of it
        env = binary_env()
        tables = EnvTables(env)
        mom = compute_moments(env)
        n, trials = 6, 20_000
        for x in (0.25, 0.5, 1.0):
            exact = exact_logZn_tail(env, n, x, mom, mom.M_tight)
            wins = 0
            for seed in range(20):
                logz = np.concatenate(_run(_block_tasks(
                    lambda rng, size: np.log(
                        simulate_block(tables, n, size, rng)[0][-1]),
                    trials, seed, DOMAIN_TRAJ), 2))
                hits = int(np.count_nonzero(
                    TailEvent(n, mom.mu, mom.M_tight, x).reached(logz)))
                low, high = binomial_ci(hits, trials, 0.99)
                wins += low <= exact <= high
            assert wins >= 19, f"depth-0 x={x}: {wins}/20"

    @pytest.mark.parametrize("cfg, n, x", [(BINARY, 13, 0.3), (GENERIC, 9, 0.2)])
    def test_head_then_steps_match_the_exact_tails(self, cfg, n, x):
        env = parse_env_config(cfg)
        mom = compute_moments(env)
        trials = 100_000
        assert 0 < _head_depth(EnvTables(env), n, trials) < n
        law = _annealed_laws(env, n)[n]
        event = TailEvent(n, mom.mu, mom.M_tight, x)
        exact = math.fsum(p for v, p in enumerate(law.tolist())
                          if v > 0 and event.reached(math.log(v)))
        assert 0.01 < exact < 0.99
        est = mc_tail_logzn(env, n, x, mom.M_tight, trials, seed=31, workers=2)
        assert _within(est.hits, trials, exact, 5.0)
        ys = (0.05, 0.1)
        rows = convergence_report(env, [n], ys, trials, seed=32, workers=2)
        for row, y in zip(rows, ys):
            expect = _deviation_tail(law, n, mom.mu, y)
            assert 0.01 < expect < 0.99
            assert _within(row.hits, trials, expect, 5.0), f"y={y}"


class TestEarlyDecision:
    def test_two_sided_event_refused(self):
        # |log Z_0 - n mu| / n = 0.39 >= y at Z_0 = 1, yet Z_16 may land in
        # the band: the one-sided rule would call it a hit
        mom = compute_moments(binary_env())
        event = TailEvent(16, mom.mu, 1.0, 0.05, two_sided=True)
        with pytest.raises(ValueError, match="one-sided"):
            event.decide(np.zeros(4), 16, math.log(2))

    @pytest.mark.parametrize("cfg, n, M, xs", [
        (BINARY, 16, "M_tight", (0.05, 0.2, 0.5)),
        (GENERIC, 12, "M_tight", (0.05, 0.2, 0.5)),
        # a single random state: S_n is constant, so M_tight is 0
        (GAPPED, 12, "M_paper", (0.05, 0.2, 0.5)),
        (MIXED, 12, "M_tight", (0.05, 0.2, 0.5)),
        # populations pass 2^62 and take clamped Gaussian draws
        (BINARY, 200, "M_tight", (0.05,)),
        # the bound lands on the threshold: only generation n decides
        (TRIPLE, 20, 1.0, (0.0,)),
    ])
    def test_decisions_match_full_stepping(self, cfg, n, M, xs):
        env = parse_env_config(cfg)
        tables = EnvTables(env)
        mom = compute_moments(env)
        M = getattr(mom, M) if isinstance(M, str) else M
        trials = 4000
        logz = np.log(simulate_block(tables, n, trials,
                                     stream(5, DOMAIN_TRAJ, 0))[0])
        if n == 200:
            assert logz[-1].max() > 62 * math.log(2)
        early_hits = early_misses = 0
        for x in xs:
            event = TailEvent(n, mom.mu, M, x)
            final = event.reached(logz[n])
            for k in range(n):
                hit, live = event.decide(logz[k], n - k, math.log(env.k_max))
                miss = ~hit & ~live
                assert final[hit].all(), f"x={x} k={k}: a decided hit misses"
                assert not final[miss].any(), f"x={x} k={k}: a decided miss hits"
                early_hits += int(np.count_nonzero(hit))
                early_misses += int(np.count_nonzero(miss))
        if cfg is TRIPLE:
            assert early_hits == early_misses == 0 and final.all()
        else:
            assert early_hits > 0 and early_misses > 0


class TestApproxSampling:
    # MIXED picks "bin" below 0.4, "double" in [0.4, 0.7), "chain" above;
    # 2^62 + 1024 is the next double above INT64_SAFE
    @pytest.mark.parametrize("u, z, approx", [
        (0.1, INT64_SAFE + 1024, True),
        (0.5, INT64_SAFE + 1024, False),  # {2} draws nothing
        (0.9, INT64_SAFE + 1024, True),
        (0.1, INT64_SAFE, False),  # at the limit: exact
        (0.5, INT64_SAFE, False),
        (0.9, INT64_SAFE, False),
    ])
    def test_generation_flag_follows_simulates_rule(self, u, z, approx):
        # a generation draws a Gaussian iff some population starts above
        # 2^62 in a state that draws
        tables = EnvTables(parse_env_config(MIXED))
        pops = np.array([3.0, float(z)])
        row = tables.pick_states(np.array([0.1, u])).astype(np.uint8)
        got = _generation(tables, row, pops, stream(0, DOMAIN_TRAJ, 0))
        assert got is approx

    def test_estimators_record_gaussian_draws(self):
        env = binary_env()
        mom = compute_moments(env)
        # Z_200 is about 2^113, Z_70 about 2^39
        assert mc_logw_increments(env, 200, 2000, seed=0).approx_sampling_used
        assert not mc_logw_increments(env, 70, 2000,
                                      seed=0).approx_sampling_used
        assert mc_tail_logzn(env, 200, 0.05, mom.M_tight, 2000,
                             seed=0).approx_sampling_used
        assert not mc_tail_logzn(env, 70, 0.05, mom.M_tight, 2000,
                                 seed=0).approx_sampling_used
        rows = convergence_report(env, [70, 200], [0.05, 0.1], 2000, seed=0)
        assert [r.approx_sampling_used for r in rows] == [False, False,
                                                          True, True]
        # a deterministic doubling state draws nothing, even past 2^62
        doubling = parse_env_config(DOUBLING)
        assert not mc_logw_increments(doubling, 70, 2000,
                                      seed=0).approx_sampling_used
        assert not mc_tail_sn(env, 70, 0.05, mom.M_tight, 2000,
                              seed=0).approx_sampling_used


def uniform_states(k):
    return EnvTables(parse_env_config({"model": "generic", "states": [
        {"label": f"s{i}", "mass": 1.0 / k, "offspring": {"1": 0.5, "2": 0.5}}
        for i in range(k)]}))


class TestStateRows:
    # STATE_CHUNK // 7 rows of n = 7 make one chunk
    @pytest.mark.parametrize("n, size", [
        (0, 5), (1, 3), (1, STATE_CHUNK), (1, STATE_CHUNK + 1),
        (7, STATE_CHUNK // 7), (7, STATE_CHUNK // 7 + 1),
        (7, 3 * (STATE_CHUNK // 7) + 2), (STATE_CHUNK + 3, 3)])
    @pytest.mark.parametrize("k", [1, 2, 3, 257])
    def test_rows_are_the_states_of_one_uniform_matrix(self, k, n, size):
        # the chunked draws are those of one (size, n) call, and the stream
        # is left where that call leaves it
        tables = uniform_states(k)
        rng, ref = stream(4, DOMAIN_TRAJ, 0), stream(4, DOMAIN_TRAJ, 0)
        got = _state_rows(tables, n, size, rng)
        expect = tables.pick_states(ref.random((size, n))).T
        assert got.dtype == (np.uint8 if k <= 256 else np.uint16)
        assert got.shape == (n, size)
        assert np.array_equal(got, expect)
        assert rng.random() == ref.random()


class TestIncrements:
    def test_doubling_has_zero_increments(self):
        # log W is identically 0, up to log-evaluation rounding at a few ulp
        env = parse_env_config(DOUBLING)
        stats = mc_logw_increments(env, 6, 2000, seed=0)
        assert len(stats) == 6
        assert all(s.mean <= 1e-12 for s in stats)

    def test_binary_increments_decay(self):
        env = binary_env()
        stats = mc_logw_increments(env, 12, 20000, seed=1)
        assert [s.k for s in stats] == list(range(12))
        assert all(s.mean > 0 for s in stats)
        # geometric decay: late increments well below early ones
        assert stats[10].mean < stats[2].mean

    def test_insufficient_trials(self):
        with pytest.raises(ValueError, match="insufficient trials"):
            mc_logw_increments(binary_env(), 5, 10, seed=0)

    def test_n_at_least_three(self):
        with pytest.raises(ValueError):
            mc_logw_increments(binary_env(), 2, 2000, seed=0)

    @pytest.mark.parametrize("n, trials, sampled", [
        (8, BLOCK_TRIALS + 100, False), (16, 2 * BLOCK_TRIALS + 100, True)])
    def test_worker_invariance(self, n, trials, sampled):
        # g = n: every row exact; g < n: the exact task and three blocks
        # share the pool
        env = binary_env()
        runs = [mc_logw_increments(env, n, trials, seed=2, workers=w)
                for w in (1, 2, 4)]
        g = runs[0].head_depth
        assert (0 < g < n) if sampled else g == n
        for run in runs[1:]:
            assert run == runs[0]
            assert run.head_depth == g
            assert run.approx_sampling_used == runs[0].approx_sampling_used

    def test_full_depth_opens_no_stream(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a stream was opened")
        monkeypatch.setattr(bpre.estimate, "stream", refuse)
        env = binary_env()
        stats = mc_logw_increments(env, 8, 2000, seed=0, workers=2)
        assert stats.head_depth == 8
        assert [s.mean for s in stats] == exact_logw_increments(env, 8)
        assert all(s.stderr == 0.0 for s in stats)
        assert not stats.approx_sampling_used

    def test_rows_below_the_depth_are_exact(self):
        env = parse_env_config(GENERIC)
        stats = mc_logw_increments(env, 10, 5000, seed=1)
        g = stats.head_depth
        assert 0 < g < 10
        assert [s.mean for s in stats[:g]] == exact_logw_increments(env, g)
        assert all(s.stderr == 0.0 for s in stats[:g])
        assert all(s.stderr > 0.0 for s in stats[g:])
        assert [s.k for s in stats] == list(range(10))

    @pytest.mark.parametrize("cfg, n", [(BINARY, 12), (GENERIC, 9), (GAPPED, 9)])
    def test_rows_match_full_stepping(self, cfg, n):
        # a replay that steps every generation from Z_0 = 1 on other
        # streams: the sampled rows k >= g agree with it within 5 combined
        # standard errors, the exact rows k < g within 5 of its own
        env = parse_env_config(cfg)
        tables = EnvTables(env)
        trials = 20_000
        stats = mc_logw_increments(env, n, trials, seed=5, workers=2)
        g = stats.head_depth
        assert 0 < g < n
        z, states, _ = simulate_block(tables, n, trials,
                                      stream(6, DOMAIN_INCREMENTS, 0))
        incs = np.abs(np.diff(np.log(z), axis=0) - tables.X[states])
        means = incs.mean(axis=1)
        errs = incs.std(axis=1, ddof=1) / math.sqrt(trials)
        for s, mean, err in zip(stats, means, errs):
            score = (s.mean - mean) / math.hypot(s.stderr, err)
            assert abs(score) <= 5.0, f"k={s.k} (g={g}): z = {score:.2f}"

    def test_depth_rule(self):
        # the largest g <= n whose kernel (to delta_1 K^min(g, n-1)) and
        # table (to k_max^(g-1)) work is at most HEAD_WORK_PER_DRAW per
        # binomial draw saved; it depends on the trial count, not workers
        for cfg, draws_per_pass in ((BINARY, 1), (GENERIC, 2)):
            tables = EnvTables(parse_env_config(cfg))
            for trials in (1000, 10 ** 4, 10 ** 5):
                n = 30
                g = _increment_depth(tables, n, trials)

                def fits(d):
                    work = (kernel_work(tables.states, d)
                            + _table_work(tables.states,
                                          tables.env.k_max ** (d - 1)))
                    return work <= min(MAX_KERNEL_WORK, HEAD_WORK_PER_DRAW
                                       * trials * d * draws_per_pass)
                assert 0 < g < n and fits(g) and not fits(g + 1)
                # at n = g the head's own generation is not needed
                assert _increment_depth(tables, g, trials) == g
        binary = EnvTables(binary_env())
        assert _increment_depth(binary, 20, 10 ** 5) == 11
        assert _increment_depth(binary, 11, 10 ** 5) == 11  # every row exact
        assert _increment_depth(EnvTables(parse_env_config(GENERIC)), 20,
                                10 ** 5) == 7
        deterministic = EnvTables(parse_env_config(DOUBLING))
        assert _increment_depth(deterministic, 10, 10 ** 6) == 0

    def test_depths_stop_at_the_rule_on_a_long_horizon(self):
        # both depth rules stop at the first depth past their bound, so a
        # horizon of a million generations gives the depth of n = 20 at once
        # and never forms k_max^n
        binary = EnvTables(binary_env())
        t0 = time.perf_counter()
        for n in (20, 10 ** 6):
            assert _head_depth(binary, n, 10 ** 5) == 11
            assert _increment_depth(binary, n, 10 ** 5) == 11
        assert time.perf_counter() - t0 < 0.5

    def test_doubling_past_int64_has_zero_increments(self):
        # Z_70 = 2^70 is past int64; float64 holds every power of two exactly
        env = parse_env_config(DOUBLING)
        stats = mc_logw_increments(env, 70, 2000, seed=0)
        assert len(stats) == 70
        assert all(s.mean <= 1e-12 for s in stats)


class TestDecayFit:
    def test_exact_log_linear_data_recovered(self):
        c, delta = 2.0, 0.6
        pairs = [(k, c * delta ** k) for k in range(10)]
        fit = fit_geometric_decay(pairs)
        assert fit.c_hat == pytest.approx(c, abs=1e-9)
        assert fit.delta_hat == pytest.approx(delta, abs=1e-9)
        assert fit.r2 == pytest.approx(1.0, abs=1e-9)

    def test_zero_means_excluded_not_clamped(self):
        pairs = [(0, 1.0), (1, 0.5), (2, 0.0), (3, 0.125), (4, 0.0625),
                 (5, 0.03125)]
        fit = fit_geometric_decay(pairs)
        # the fit sees only the five positive points, which are exactly 2^-k
        assert fit.delta_hat == pytest.approx(0.5, abs=1e-9)
        assert len(fit.increments) == 6  # all pairs are recorded

    def test_all_zero_means_error(self):
        with pytest.raises(ValueError, match="positive"):
            fit_geometric_decay([(k, 0.0) for k in range(8)])

    def test_fewer_than_four_positive_error(self):
        with pytest.raises(ValueError, match="4"):
            fit_geometric_decay([(0, 1.0), (1, 0.5), (2, 0.25)])

    @pytest.mark.parametrize("points, wobble", [(4, 0.1), (8, 0.3)])
    def test_r2_sums_are_elementwise(self, points, wobble):
        # the slope, intercept, ss_res and ss_tot sum in numpy's own loops
        # (the closed form on centred sums); on a SkylakeX core a BLAS ddot
        # moves r2's last bit on both fits
        pairs = [(k, 0.3 * 0.8 ** k * (1.0 + wobble * math.sin(3 * k)))
                 for k in range(2, 2 + points)]
        ks = np.array([k for k, _ in pairs], dtype=np.float64)
        logs = np.log([m for _, m in pairs])
        dk = ks - ks.mean()
        centered = logs - logs.mean()
        slope = float((dk * centered).sum()) / float((dk * dk).sum())
        intercept = float(logs.mean()) - slope * float(ks.mean())
        residuals = logs - (slope * ks + intercept)
        r2 = 1.0 - float((residuals * residuals).sum()) / float(
            (centered * centered).sum())
        fit = fit_geometric_decay(pairs)
        assert fit.r2 == r2
        assert fit.delta_hat == math.exp(slope)
        assert fit.c_hat == math.exp(intercept)

    def test_closed_form_agrees_with_polyfit(self):
        # the least-squares line of np.polyfit (LAPACK), within rounding
        rng = np.random.default_rng(7)
        for _ in range(200):
            lo = int(rng.integers(0, 10))
            ks = np.arange(lo, lo + int(rng.integers(4, 30)), dtype=np.float64)
            logs = (rng.normal() + rng.uniform(-1.0, 0.0) * ks
                    + rng.normal(scale=0.3, size=ks.size))
            fit = fit_geometric_decay(zip(ks.astype(int).tolist(),
                                          np.exp(logs).tolist()))
            slope, intercept = np.polyfit(ks, logs, 1)
            assert math.log(fit.delta_hat) == pytest.approx(slope, rel=1e-12)
            assert math.log(fit.c_hat) == pytest.approx(intercept, rel=1e-12,
                                                        abs=1e-13)

    def test_accepts_increment_stats(self):
        env = binary_env()
        stats = mc_logw_increments(env, 10, 5000, seed=3)
        fit = fit_geometric_decay(stats)  # (k, mean, stderr) tuples
        assert 0.0 < fit.delta_hat < 1.0

    def test_empirical_fit_quality(self):
        env = binary_env()
        stats = mc_logw_increments(env, 20, 10 ** 4, seed=4)
        fit = fit_geometric_decay([(s.k, s.mean) for s in stats
                                   if 2 <= s.k <= 15])
        assert 0.0 < fit.delta_hat < 1.0
        assert fit.r2 >= 0.9


class TestTheorem1Candidates:
    def test_aggregation_factor(self):
        fit = DecayFit(increments=((0, 1.0),), c_hat=2.0, delta_hat=0.6,
                       r2=1.0)
        C, delta = theorem1_candidates(fit)
        assert delta == 0.6
        assert C == pytest.approx(2.0 / 0.4, rel=1e-15)

    def test_rejects_delta_outside_unit_interval(self):
        fit = DecayFit(increments=((0, 1.0),), c_hat=2.0, delta_hat=1.1,
                       r2=1.0)
        with pytest.raises(ValueError, match="outside"):
            theorem1_candidates(fit)


class TestConvergenceReport:
    def test_y_zero_always_hits(self):
        env = binary_env()
        rows = convergence_report(env, [4, 8], [0.0], 1500, seed=0)
        assert all(r.point == 1.0 for r in rows)

    def test_doubling_never_deviates(self):
        env = parse_env_config(DOUBLING)
        rows = convergence_report(env, [4, 8], [0.05, 0.2], 1500, seed=0)
        assert all(r.hits == 0 for r in rows)

    def test_rows_are_n_major(self):
        env = binary_env()
        rows = convergence_report(env, [4, 8], [0.1, 0.2], 1500, seed=1)
        assert [(r.n, r.threshold_x) for r in rows] == [
            (4, 0.1), (4, 0.2), (8, 0.1), (8, 0.2)]

    def test_deviation_probability_decays_in_n(self):
        env = binary_env()
        rows = convergence_report(env, [4, 32], [0.2], 4000, seed=2)
        assert rows[1].point < rows[0].point

    def test_worker_invariance(self):
        # every horizon's blocks share one pool; each horizon gives the rows
        # it gives alone
        env = binary_env()
        ns, ys, trials = [4, 8, 16], [0.05, 0.1], BLOCK_TRIALS + 100
        runs = [convergence_report(env, ns, ys, trials, seed=3, workers=w)
                for w in (1, 2, 4)]
        assert runs[1] == runs[0] and runs[2] == runs[0]
        alone = [row for n in ns
                 for row in convergence_report(env, [n], ys, trials, seed=3)]
        assert alone == runs[0]

    def test_block_hit_counts_sum_to_the_pooled_count(self):
        # each block counts its own hits per y; their sums are the counts
        # over every trial's log Z_n
        env = binary_env()
        tables = EnvTables(env)
        mu = compute_moments(env).mu
        n, ys, trials = 20, [0.05, 0.1, 0.2], BLOCK_TRIALS + 100
        g = _head_depth(tables, n, trials)
        head = _KernelHead(g, _annealed_laws(env, g)[g])

        def final_logz(rng, size):
            z = head.draw(rng, size)
            for col in _state_rows(tables, n - g, size, rng):
                _generation(tables, col, z, rng)
            return np.log(z)

        logz = np.concatenate(_run(_block_tasks(final_logz, trials, 3,
                                                DOMAIN_TRAJ), 1))
        deviations = np.abs(logz / n - mu)
        rows = convergence_report(env, [n], ys, trials, seed=3)
        assert [r.hits for r in rows] == [
            int(np.count_nonzero(deviations >= y - TIE_EPS)) for y in ys]

    def test_block_holds_no_float_uniform_matrix(self):
        # a float64 (16384, 200) uniform matrix alone is 25 MB; the block
        # holds its environment as 1-byte states.
        n, trials = 200, BLOCK_TRIALS
        matrix = trials * n * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            convergence_report(binary_env(), [n], [0.05], trials, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix / 2, f"peak {peak / 2**20:.1f} MB"

    def test_refuses_empty_and_nonpositive_horizons(self):
        env = binary_env()
        with pytest.raises(ValueError, match="n_values must not be empty"):
            convergence_report(env, [], [0.1], 1500, seed=0)
        with pytest.raises(ValueError, match="n=0"):
            convergence_report(env, [4, 0], [0.1], 1500, seed=0)


@pytest.fixture
def propagations(monkeypatch):
    """The generations of each kernel propagation (call of
    oracle._annealed_laws) made once this fixture is set up, one entry per
    propagation."""
    made = []
    annealed_laws = oracle._annealed_laws

    def count(*args, **kwargs):
        laws = annealed_laws(*args, **kwargs)
        made.append(len(laws) - 1)
        return laws
    monkeypatch.setattr(oracle, "_annealed_laws", count)
    monkeypatch.setattr(bpre.estimate, "_annealed_laws", count)
    return made


class TestOnePropagation:
    def test_convergence_report_propagates_to_its_deepest_head(self, propagations):
        # head depths 8, 9 and 9: one propagation of 9 generations serves all
        env = binary_env()
        tables = EnvTables(env)
        assert [_head_depth(tables, n, 10 ** 4) for n in (8, 16, 32)] == [8, 9, 9]
        convergence_report(env, [8, 16, 32], [0.1], 10 ** 4, seed=1, workers=2)
        assert propagations == [9]

    def test_mc_tail_logzn_propagates_to_its_head(self, propagations):
        env = binary_env()
        mom = compute_moments(env)
        g = _head_depth(EnvTables(env), 13, 5000)
        est = mc_tail_logzn(env, 13, 0.3, mom.M_tight, 5000, seed=2)
        assert 0 < est.hits < est.trials  # a reachable event
        assert propagations == [g]

    def test_every_other_route_propagates_once(self, propagations):
        env = binary_env()
        mom = compute_moments(env)
        g = _increment_depth(EnvTables(env), 16, 10 ** 4)
        calls = [
            (lambda: mc_logw_increments(env, 16, 10 ** 4, seed=3), [g]),
            (lambda: exact_logZn_tail(env, 10, 0.2, mom, mom.M_tight), [10]),
            # an event past the top atom k_max^70 is decided with none
            (lambda: exact_logZn_tail(env, 70, 3.0, mom, mom.M_paper), []),
            (lambda: exact_EWn(env, 10), [10]),
            (lambda: exact_logw_increments(env, 11), [10]),
        ]
        for call, made in calls:
            propagations.clear()
            call()
            assert propagations == made


class TestTailEstimateType:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TailEstimate(hits=11, trials=10, point=1.1, ci_low=0.0,
                         ci_high=1.0, level=0.95, threshold_x=0.0, n=1)
        with pytest.raises(ValueError):
            TailEstimate(hits=5, trials=10, point=0.5, ci_low=0.6,
                         ci_high=1.0, level=0.95, threshold_x=0.0, n=1)
