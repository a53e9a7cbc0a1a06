import json
import math
import os
import re
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpre.env import ConfigError, ResourceCapError, parse_env_config, state_mean
from bpre.env import compute_moments, gamma
from bpre import oracle
from bpre.oracle import (MAX_COMPOSITIONS, MAX_KERNEL_WORK, TIE_EPS,
                         TailEvent, _annealed_laws, _multiset_sum,
                         _increment_table, _table_work, exact_EWn,
                         exact_logw_increments, exact_logZn_tail,
                         exact_sn_tail, exact_sn_tails, kernel_work)
from brute import brute_population_pmf, env_law, population_law
from models import BINARY, DOUBLING, GENERIC, binary_env

THREE_POINT = {"model": "generic",
               "states": [{"label": "a", "mass": 0.6,
                           "offspring": {"1": 0.3, "2": 0.5, "3": 0.2}},
                          {"label": "b", "mass": 0.4,
                           "offspring": {"1": 0.2, "2": 0.8}}]}
# p0 > 0 and a gap in the support: the Horner constant term carries the
# extinct mass
EXTINCT = {"model": "generic",
           "states": [{"label": "a", "mass": 0.5,
                       "offspring": {"0": 0.2, "1": 0.3, "3": 0.5}},
                      {"label": "b", "mass": 0.5,
                       "offspring": {"1": 0.4, "2": 0.6}}]}
# only odd populations have mass
GAPPED = {"model": "generic",
          "states": [{"label": "odd", "mass": 1.0,
                      "offspring": {"1": 0.5, "3": 0.5}}]}


def rational_kernel_laws(env, n):
    """The kernel laws of Z_1..Z_n, weighted by the state masses, in exact
    arithmetic by Horner's recurrence on the offspring pgf. Every float
    is a dyadic rational, so the recurrence runs on integers over one power
    of two, which avoids Fraction's gcds on every product."""
    floats = [mass for _, mass in env.states] + [
        p for s, _ in env.states for p in s.pmf.entries.values()]
    shift = max(p.as_integer_ratio()[1] for p in floats).bit_length() - 1

    def scaled(p):
        return int(Fraction(p) * (1 << shift))
    pmfs = [[(k, scaled(p)) for k, p in s.pmf.entries.items() if p > 0.0]
            for s, _ in env.states]
    weights = [scaled(mass) for _, mass in env.states]
    law, exponent = {1: 1}, 0  # law[v] / 2^exponent = P(Z = v)
    for _ in range(n):
        top = max(law)
        nxt = defaultdict(int)
        for pmf, weight in zip(pmfs, weights):
            acc = {0: law[top]}
            for j, z in enumerate(range(top - 1, -1, -1), 1):
                step = defaultdict(int)
                for v, a in acc.items():
                    for k, b in pmf:
                        step[v + k] += a * b
                step[0] += law.get(z, 0) << (shift * j)
                acc = step
            for v, a in acc.items():
                nxt[v] += weight * a
        exponent += shift * (top + 1)
        law = {v: a for v, a in nxt.items() if a}
        yield {v: Fraction(a, 1 << exponent) for v, a in law.items()}


def brute_logzn_tail(env, n, x, mu, M):
    total = 0.0
    for combo, prob in env_law(env, n):
        pmf = brute_population_pmf([s for s, _ in combo])
        for z, pz in pmf.items():
            if z > 0 and (math.log(z) - n * mu) / (n * M) >= x - TIE_EPS:
                total += prob * pz
    return total


def brute_ewn(env, n):
    total = 0.0
    for combo, prob in env_law(env, n):
        pi = math.prod(state_mean(s) for s, _ in combo)
        pmf = brute_population_pmf([s for s, _ in combo])
        mean = sum(z * pz for z, pz in pmf.items())
        total += prob * mean / pi
    return total


class TestEnumeration:
    # the environment law the brute references mix over
    def test_sequence_probabilities_sum_to_one(self):
        for n in (1, 2, 5):
            total = math.fsum(prob for _, prob in env_law(binary_env(), n))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_sequence_count(self):
        seqs = list(env_law(binary_env(), 4))
        assert len(seqs) == 16
        assert len({tuple(s.label for s, _ in combo) for combo, _ in seqs}) == 16
        assert all(len(combo) == 4 for combo, _ in seqs)


class TestExactSnTail:
    # hand-derived: normalized walk statistic is (2j - n)/n with j the
    # count of high-mean states, each sequence has probability 2^-n
    def test_frozen_binary_values(self):
        env = binary_env()
        mom = compute_moments(env)
        assert exact_sn_tail(env, 6, 0.25, mom.M_tight, mom.mu) == 22 / 64
        assert exact_sn_tail(env, 6, 0.5, mom.M_tight, mom.mu) == 7 / 64
        assert exact_sn_tail(env, 6, 1.0, mom.M_tight, mom.mu) == 1 / 64

    def test_binomial_cross_check(self):
        # independent route: j ~ Bin(n, 1/2), event j >= n(1+x)/2
        env = binary_env()
        mom = compute_moments(env)
        for n in (3, 5, 8):
            for x in (0.1, 0.4, 0.7, 1.0):
                j_min = math.ceil(n * (1 + x) / 2 - 1e-9)
                expect = sum(math.comb(n, j) for j in range(j_min, n + 1)) / 2 ** n
                got = exact_sn_tail(env, n, x, mom.M_tight, mom.mu)
                assert got == pytest.approx(expect, abs=1e-12), (n, x)

    def test_tail_rule_is_closed_with_slack(self):
        # (stat - 0) / (1 * 1) against x = 0.5: everything from x - TIE_EPS
        # up counts, nothing further below
        stats = [0.5 + 1e-3, 0.5, 0.5 - TIE_EPS / 2, 0.5 - TIE_EPS,
                 0.5 - 2 * TIE_EPS]
        expect = [True, True, True, True, False]
        event = TailEvent(1, 0.0, 1.0, 0.5)
        assert [event.reached(v) for v in stats] == expect
        assert event.reached(np.array(stats)).tolist() == expect
        # n = 4, mu = 0.25, M = 0.5: (stat - 1) / 2 against x = 0.5
        assert TailEvent(4, 0.25, 0.5, 0.5).reached(2.0)
        assert not TailEvent(4, 0.25, 0.5, 0.5).reached(1.9)
        # two-sided: the stats mirrored below n*mu close with the same slack
        both = TailEvent(1, 0.0, 1.0, 0.5, two_sided=True)
        mirrored = [-v for v in stats]
        assert [both.reached(v) for v in stats + mirrored] == expect * 2
        assert both.reached(np.array(mirrored)).tolist() == expect
        both = TailEvent(4, 0.25, 0.5, 0.5, two_sided=True)
        assert both.reached(2.0) and both.reached(0.0)
        assert not both.reached(1.9) and not both.reached(0.1)
        for n, M, message in ((1, 0.0, "M=0.0 must be > 0"),
                              (1, math.nan, "M=nan must be > 0"),
                              (0, 1.0, "n=0 must be >= 1")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                TailEvent(n, 0.0, M, 0.5)

    def test_boundary_atom_included(self):
        # x = 1 sits exactly on the all-high-state atom; the tie rule keeps it
        env = binary_env()
        mom = compute_moments(env)
        assert exact_sn_tail(env, 4, 1.0, mom.M_tight, mom.mu) == 1 / 16

    def test_above_reachable_range_is_zero(self):
        env = binary_env()
        mom = compute_moments(env)
        assert exact_sn_tail(env, 4, 1.001, mom.M_tight, mom.mu) == 0.0

    def test_at_zero_with_symmetric_env(self):
        # P(stat >= 0) counts j >= n/2
        env = binary_env()
        mom = compute_moments(env)
        expect = sum(math.comb(6, j) for j in range(3, 7)) / 64
        assert exact_sn_tail(env, 6, 0.0, mom.M_tight, mom.mu) == \
            pytest.approx(expect, abs=1e-12)

    def test_monotone_in_x(self):
        env = binary_env()
        mom = compute_moments(env)
        xs = [i / 20 for i in range(21)]
        vals = [exact_sn_tail(env, 5, x, mom.M_tight, mom.mu) for x in xs]
        assert all(vals[i + 1] <= vals[i] for i in range(len(vals) - 1))

    def test_larger_m_shrinks_the_tail(self):
        # larger M shrinks the normalized statistic, so for x > 0 the event
        # gets harder to hit
        env = binary_env()
        mom = compute_moments(env)
        for x in (0.2, 0.5):
            tight = exact_sn_tail(env, 6, x, mom.M_tight, mom.mu)
            paper = exact_sn_tail(env, 6, x, mom.M_paper, mom.mu)
            assert paper <= tight


class TestExactSnTails:
    FOUR = {"model": "binary",
            "support": [{"p": p, "mass": 0.25} for p in (0.2, 0.4, 0.6, 0.8)]}

    @pytest.mark.parametrize("cfg, n", [(BINARY, 8), (FOUR, 20)],
                             ids=["binary", "four"])
    @pytest.mark.parametrize("kind", ["M_tight", "M_paper"])
    def test_grid_equals_single_thresholds(self, cfg, n, kind):
        # unsorted, repeated, out-of-range and NaN thresholds (a NaN's tail
        # is empty, wherever it stands); x = 1 under M_tight is the tie of
        # the all-high sequence, whose probability is the highest-mean
        # state's mass to the n
        env = parse_env_config(cfg)
        mom = compute_moments(env)
        M = getattr(mom, kind)
        xs = [math.nan, 1.0, *(i / 10 for i in range(11)), 0.5, 1.0 + 1e-6,
              1.0, 2.0, math.nan]
        got = exact_sn_tails(env, n, xs, M, mom.mu)
        assert got == [exact_sn_tail(env, n, x, M, mom.mu) for x in xs]
        assert got[0] == got[-1] == 0.0
        assert got[2:13] == sorted(got[2:13], reverse=True)
        assert got[2] > 0.0
        if kind == "M_tight":
            _, high = max(env.states, key=lambda sm: state_mean(sm[0]))
            assert got[1] == high ** n

    @pytest.mark.parametrize("xs, tails, count", [
        # binary n = 8: j high states reach x when (2j - 8)/8 >= x, so
        # x = 0.5 takes j = 6, 7, 8 and x = 1 takes j = 8 alone
        ([1.0, 0.5], [1 / 256, 37 / 256], 3),
        # an empty grid forms no probability
        ([], [], 0),
    ])
    def test_probabilities_only_in_the_widest_tail(self, monkeypatch, xs,
                                                   tails, count):
        formed = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def ldexp(self, m, e):
                formed.append(e)
                return math.ldexp(m, e)
        monkeypatch.setattr(oracle, "math", CountingMath())
        env = binary_env()
        mom = compute_moments(env)
        got = exact_sn_tails(env, 8, xs, mom.M_tight, mom.mu)
        assert got == tails
        assert len(formed) == count
        with pytest.raises(ValueError, match=r"M=0.0 must be > 0"):
            exact_sn_tails(env, 8, xs, 0.0, mom.mu)
        assert len(formed) == count


class TestPopulationDistribution:
    @pytest.mark.parametrize("cfg, n", [(BINARY, 1), (BINARY, 2), (BINARY, 3),
                                        (THREE_POINT, 1), (THREE_POINT, 2),
                                        (EXTINCT, 3)])
    def test_dp_matches_brute_force(self, cfg, n):
        # the kernel law is the per-sequence laws mixed over the environment
        # law; the tests' power-sum DP gives each sequence's law exactly
        env = parse_env_config(cfg)
        mixed = defaultdict(float)
        for combo, prob in env_law(env, n):
            brute = brute_population_pmf([s for s, _ in combo])
            dp = population_law([s for s, _ in combo])
            assert set(dp) == set(brute)
            for z, p in brute.items():
                assert dp[z] == pytest.approx(p, abs=1e-12), (n, z)
                mixed[z] += prob * p
        law = _annealed_laws(env, n)[n]
        assert set(np.flatnonzero(law).tolist()) == set(mixed)
        for z, p in mixed.items():
            assert law[z] == pytest.approx(p, abs=1e-12), (n, z)

    def test_support_is_sorted_and_normalized(self):
        law = _annealed_laws(binary_env(), 5)[5]
        zs = np.flatnonzero(law).tolist()
        assert len(law) == 33 and (law >= 0.0).all()  # indexed by value 0..32
        assert math.fsum(law.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert zs[0] >= 1 and zs[-1] <= 32

    def test_doubling_is_a_point_mass(self):
        law = _annealed_laws(parse_env_config(DOUBLING), 7)[7]
        assert np.flatnonzero(law).tolist() == [128]
        assert law[128] == 1.0

    def test_mean_matches_product_of_state_means(self):
        # E Z_n = (sum_s w_s m_s)^n, the annealed first-moment identity
        env = parse_env_config(THREE_POINT)
        law = _annealed_laws(env, 3)[3]
        expect = math.fsum(mass * state_mean(s) for s, mass in env.states) ** 3
        assert math.fsum(v * p for v, p in enumerate(law.tolist())) \
            == pytest.approx(expect, rel=1e-12)

    def test_cap_enforced(self):
        with pytest.raises(ResourceCapError):
            _annealed_laws(parse_env_config(DOUBLING), 25)

    @pytest.mark.parametrize("cfg, n", [(BINARY, 6), (THREE_POINT, 4),
                                        (EXTINCT, 4), (GENERIC, 4)])
    def test_every_generation_has_the_annealed_mean(self, cfg, n):
        # each of the n + 1 laws is normalised, with E Z_k = (sum_s w_s m_s)^k
        env = parse_env_config(cfg)
        mean = math.fsum(mass * state_mean(s) for s, mass in env.states)
        laws = _annealed_laws(env, n)
        assert len(laws) == n + 1
        for k, law in enumerate(laws):
            assert (law >= 0.0).all()
            assert math.fsum(law.tolist()) == pytest.approx(1.0, abs=1e-12)
            assert math.fsum(v * p for v, p in enumerate(law.tolist())) \
                == pytest.approx(mean ** k, rel=1e-12), k

    @pytest.mark.parametrize("pick", [0, 1])
    def test_weights_select_one_state(self, pick):
        # weight 1 on one state is that state's fixed-sequence law
        env = parse_env_config(THREE_POINT)
        weights = [1.0 if i == pick else 0.0 for i in range(len(env.states))]
        law = _annealed_laws(env, 3, weights=weights)[3]
        expect = population_law([env.states[pick][0]] * 3)
        assert set(np.flatnonzero(law).tolist()) == set(expect)
        for z, p in expect.items():
            assert law[z] == pytest.approx(p, abs=1e-12), z

    @pytest.mark.parametrize("cfg, n", [(BINARY, 8), (GENERIC, 5)])
    def test_kernel_law_matches_rational_law(self, cfg, n):
        # the accuracy contract stated in _compose: every atom within 1e-13
        # of the exact law, and the same atoms
        env = parse_env_config(cfg)
        masses = [mass for _, mass in env.states]
        for g, exact in enumerate(rational_kernel_laws(env, n), 1):
            law = _annealed_laws(env, g, masses)[g].tolist()
            assert {v for v, p in enumerate(law) if p > 0.0} == set(exact), g
            worst = max(abs(Fraction(law[v]) - p) / p for v, p in exact.items())
            assert worst <= 1e-13, (g, float(worst))


def horner_compose(dist, pmf):
    """The kernel step before blocking: Horner's rule on the atoms,
    dist[0] + f (dist[1] + f (dist[2] + ...)), one convolution per atom.
    Each atom is within gamma_N, N = (c + 1)(len(dist) - 1) for c nonzero
    pmf entries, of the exact one."""
    acc = dist[-1:]
    for pz in dist[-2::-1]:
        acc = np.convolve(acc, pmf)
        acc[0] += pz
    return acc


def blocked_roundings(length, pmf):
    """N of the _compose docstring: the most roundings on a term of one step."""
    support = np.flatnonzero(pmf)
    c, w = len(support), int(support[-1] - support[0])
    block = oracle._block_size(length)
    blocks = -(-length // block)
    return (block - 1) * c + block + (blocks - 1) * ((block - 1) * c + block * w + 2)


STEP_PMFS = {"binary": {1: 0.25, 2: 0.75}, "one-two-three": {1: 0.5, 2: 0.3, 3: 0.2},
             "gapped": {1: 0.4, 3: 0.6}, "deterministic": {2: 1.0},
             "die": {k: 1 / 6 for k in range(1, 7)}}
NORMAL_ATOM = 1e-280  # far enough above the subnormal range


def step_pmf(name):
    entries = STEP_PMFS[name]
    pmf = np.zeros(max(entries) + 1)
    for k, p in entries.items():
        pmf[k] = p
    return pmf


def step_powers(pmf, length):
    """The power matrix _annealed_laws builds for a law of `length` atoms,
    and the least family size."""
    return oracle._powers(pmf, oracle._block_size(length)), int(np.flatnonzero(pmf)[0])


class TestBlockedStep:
    def test_block_size_is_the_least_cube_root_of_the_square(self):
        for length in range(1, 5000):
            block = oracle._block_size(length)
            assert (block - 1) ** 3 < length ** 2 <= block ** 3, length
        assert [oracle._block_size(n) for n in (8, 9, 4096, 4097)] == [4, 5, 256, 257]

    # block length 4 at 8 atoms, 5 at 9; 16 at 64, 17 at 65; 256 at 4096,
    # 257 at 4097. The deterministic {2} pmf (lo = 2) shifts each giant
    # step's product past the block, the gapped {1, 3} one into it.
    @pytest.mark.parametrize("length", [1, 2, 3, 8, 9, 64, 65, 4096, 4097])
    @pytest.mark.parametrize("name", sorted(STEP_PMFS))
    def test_matches_horner_within_the_bound(self, name, length):
        pmf = step_pmf(name)
        dist = np.random.default_rng(length).random(length)
        got = oracle._compose(dist, *step_powers(pmf, length), 1.0)
        ref = horner_compose(dist, pmf)
        assert len(got) == len(ref)
        # both within their gamma of the exact atom, so of each other
        g_ref = gamma((np.count_nonzero(pmf) + 1) * (length - 1))
        tol = (gamma(blocked_roundings(length, pmf)) + g_ref) / (1 - g_ref)
        normal = ref > NORMAL_ATOM
        assert normal.any()
        assert np.all(np.abs(got[normal] - ref[normal]) <= tol * ref[normal])
        assert np.all(got[~normal] <= NORMAL_ATOM * (1 + tol))

    def test_power_rows_are_the_padded_powers(self):
        # row i is f^i zero-padded to the width of f^B. The binary powers'
        # low coefficient 4^-i is exact: f^480 keeps it at 2^-960, and from
        # f^481 on entries below 2^-960 are dropped
        pmf = step_pmf("binary")
        rows, lo = step_powers(pmf, 10_600)
        assert (rows.shape, lo) == ((484, 967), 1)
        power = np.ones(1)
        for i in range(6):
            assert rows[i, :len(power)].tobytes() == power.tobytes(), i
            assert not rows[i, len(power):].any(), i
            power = np.convolve(power, pmf)
        assert rows[480, 480] == 2.0 ** -960
        assert rows[481, 481] == 0.0 and rows[481, 482] > 0.0
        assert rows[rows > 0.0].min() == 2.0 ** -960

    def test_dropped_power_entries_stay_within_their_bound(self):
        # from f^481 on the binary powers' tails fall below 2^-960 and are
        # dropped; the step still matches Horner within its rounding bound
        # plus the dropped mass the _compose docstring allows. A point mass
        # at the top gives f^(length - 1), whose low atoms are products of
        # the powers' low tails.
        pmf = step_pmf("binary")
        length = 10_600
        dist = np.zeros(length)
        dist[-1] = 1.0
        rows, lo = step_powers(pmf, length)
        got = oracle._compose(dist, rows, lo, 1.0)
        block = oracle._block_size(length)
        # past the floor's index: least^block < 2^-960, least the least pmf entry
        assert block * math.log(pmf[pmf > 0.0].min()) < -960 * math.log(2.0)
        multiplier = rows[block, block:2 * block + 1]
        assert np.count_nonzero(multiplier) < len(multiplier)
        ref = horner_compose(dist, pmf)
        g_ref = gamma(3 * (length - 1))
        tol = (gamma(blocked_roundings(length, pmf)) + g_ref) / (1 - g_ref)
        dropped = (dist.sum() * -(-length // block) * block * (2 * block + 1)
                   * 2.0 ** -960)
        normal = ref > 2.0 ** -1000  # where Horner keeps its own bound
        assert np.all(got[normal] <= ref[normal] * (1 + tol))
        short = ref[normal] * (1 - tol) - got[normal]
        assert short[short > 0.0].sum() <= dropped

    def test_repeated_calls_are_bit_identical(self):
        pmf = step_pmf("one-two-three")
        dist = np.random.default_rng(7).random(4097)
        rows, lo = step_powers(pmf, 4097)
        first = oracle._compose(dist, rows, lo, 1.0)
        assert oracle._compose(dist, rows, lo, 1.0).tobytes() == first.tobytes()
        # a shorter law stepped with the longest law's matrix gives the bytes
        # of a matrix built for its own block, and leaves the matrix as it was
        before = rows.tobytes()
        for length in (3, 65, 1025):
            own = oracle._compose(dist[:length], *step_powers(pmf, length), 1.0)
            got = oracle._compose(dist[:length], rows, lo, 1.0)
            assert got.tobytes() == own.tobytes(), length
            assert rows.tobytes() == before, length


def test_kernel_bytes_do_not_follow_the_blas_thread_count():
    # np.einsum without optimize runs numpy's own loops, and np.convolve's
    # dot products run in OpenBLAS's ddot, whose summation order follows
    # the OpenBLAS core, not the thread count at these laws' lengths: the
    # bytes are the same at any BLAS thread count on one core
    code = ("import hashlib, json; from bpre.env import parse_env_config; "
            "from bpre.oracle import _annealed_laws; "
            "print(*(hashlib.sha256(b''.join(law.tobytes() for law in "
            "_annealed_laws(parse_env_config(json.loads(cfg)), n))).hexdigest() "
            "for cfg, n in ((%r, 15), (%r, 9))))"
            % (json.dumps(BINARY), json.dumps(GENERIC)))
    src = str(Path(oracle.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        digests.append(out.stdout.split())
    assert len(digests[0]) == 2 and digests[0] == digests[1]


class TestLogZnTail:
    @pytest.mark.parametrize("cfg, n", [(BINARY, 2), (BINARY, 3),
                                        (THREE_POINT, 2)])
    def test_matches_brute_force(self, cfg, n):
        env = parse_env_config(cfg)
        mom = compute_moments(env)
        for x in (0.0, 0.3, 0.7, 1.0):
            got = exact_logZn_tail(env, n, x, mom, mom.M_tight)
            expect = brute_logzn_tail(env, n, x, mom.mu, mom.M_tight)
            assert got == pytest.approx(expect, abs=1e-12), (cfg, n, x)

    @pytest.mark.parametrize("cfg, n", [(BINARY, 8), (GENERIC, 5), (BINARY, 10),
                                        (BINARY, 14), (GENERIC, 6), (GENERIC, 8),
                                        (GAPPED, 9), (THREE_POINT, 7)])
    def test_first_atom_matches_per_atom_selection(self, cfg, n):
        # the tail cut at the first atom agrees with the sum of the uncut
        # law's atoms from it up: both are sums of nonnegative terms, each
        # within its rounding bound of the exact one
        env = parse_env_config(cfg)
        mom = compute_moments(env)
        law = _annealed_laws(env, n)[n].tolist()
        top, atom = len(law) - 1, (len(law) - 1) // 3
        # GAPPED has one state, so M_tight = 0 and only M_paper applies
        for M in [M for M in (mom.M_tight, mom.M_paper) if M > 0.0]:
            def stat(v):
                return (math.log(v) - n * mom.mu) / (n * M)
            # stat(1) reaches every v >= 1; x = 1 is the top atom's edge, a
            # tie, under M_paper (the all-max-state path, Z_n = k_max^n); one
            # x lies past the top atom, and two within and just past TIE_EPS
            # of an atom
            grid = (stat(1), 0.0, 0.3, 1.0, stat(top) + 0.1,
                    stat(atom) + TIE_EPS / 2, stat(atom) + 2 * TIE_EPS)
            firsts = []
            for x in grid:
                event = TailEvent(n, mom.mu, M, x)
                picked = [v for v in range(1, top + 1)
                          if event.reached(math.log(v))]
                first = event.first_atom(top)
                assert picked == list(range(first, top + 1)), x
                got = exact_logZn_tail(env, n, x, mom, M)
                expect = math.fsum(law[first:])
                assert abs(got - expect) <= 1e-13 * expect, (x, got, expect)
                firsts.append(first)
            assert firsts[0] == 1
            assert firsts[4] == top + 1
            assert exact_logZn_tail(env, n, grid[4], mom, M) == 0.0
            assert firsts[5] <= atom < firsts[6]

    def test_doubling_point_mass_tail(self):
        env = parse_env_config(DOUBLING)
        mom = compute_moments(env)
        # log Z_n = n log 2 = n mu exactly: statistic is 0
        assert exact_logZn_tail(env, 4, 0.0, mom, 1.0) == pytest.approx(1.0)
        assert exact_logZn_tail(env, 4, 0.1, mom, 1.0) == 0.0

    def test_zero_at_x_three_binary(self):
        # the normalized statistic cannot reach 3 for this model, so the
        # first tail atom lies past k_max^n and nothing is propagated, even
        # at a horizon whose uncut law has 2^70 atoms
        env = binary_env()
        mom = compute_moments(env)
        for n in (1, 2, 3, 4):
            assert exact_logZn_tail(env, n, 3.0, mom, mom.M_paper) == 0.0
            assert exact_logZn_tail(env, n, 3.0, mom, mom.M_tight) == 0.0
        t0 = time.perf_counter()
        assert exact_logZn_tail(env, 70, 3.0, mom, mom.M_paper) == 0.0
        assert time.perf_counter() - t0 < 0.1

    def test_refuses_extinction(self):
        # with p0 > 0, mass leaves the upper tail, so it cannot be absorbed
        env = parse_env_config(EXTINCT)
        mom = compute_moments(env)
        for n, x in ((2, 0.0), (2, 1.0), (4, 0.3)):
            with pytest.raises(ConfigError, match="p0 > 0"):
                exact_logZn_tail(env, n, x, mom, mom.M_tight)

    def test_monotone_in_x(self):
        env = binary_env()
        mom = compute_moments(env)
        xs = [i / 10 for i in range(11)]
        vals = [exact_logZn_tail(env, 4, x, mom, mom.M_tight) for x in xs]
        assert all(vals[i + 1] <= vals[i] for i in range(len(vals) - 1))

    def test_refuses_horizon_zero(self):
        env = binary_env()
        mom = compute_moments(env)
        with pytest.raises(ValueError, match="n=0"):
            exact_logZn_tail(env, 0, 0.5, mom, mom.M_tight)


class TestExactEWn:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_force(self, n):
        env = binary_env()
        assert exact_EWn(env, n) == pytest.approx(brute_ewn(env, n), abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_martingale_identity_binary(self, n):
        assert exact_EWn(binary_env(), n) == pytest.approx(1.0, abs=1e-12)

    def test_martingale_identity_three_point(self):
        env = parse_env_config(THREE_POINT)
        for n in (1, 2, 3):
            assert exact_EWn(env, n) == pytest.approx(1.0, abs=1e-9)

    def test_refuses_horizon_zero(self):
        with pytest.raises(ValueError, match="n=0"):
            exact_EWn(binary_env(), 0)


# --- kernel and compositions against the enumeration reference ---------------

@st.composite
def generic_configs(draw):
    """1-3 states, each with offspring support a nonempty subset of {1,2,3}."""
    def normalized(size):
        raw = [draw(st.floats(0.05, 1.0)) for _ in range(size)]
        return [r / math.fsum(raw) for r in raw]
    masses = normalized(draw(st.integers(1, 3)))
    states = []
    for i, mass in enumerate(masses):
        support = sorted(draw(st.sets(st.sampled_from([1, 2, 3]), min_size=1)))
        states.append({"label": f"s{i}", "mass": mass,
                       "offspring": dict(zip(map(str, support),
                                             normalized(len(support))))})
    return {"model": "generic", "states": states}


@settings(max_examples=25, deadline=None)
@given(cfg=generic_configs(), n=st.integers(1, 5), M=st.floats(0.1, 2.0),
       pick=st.integers(0), shift=st.sampled_from([0.0, 1e-3, -0.05]))
def test_routes_match_enumeration(cfg, n, M, pick, shift):
    """exact_sn_tail, exact_logZn_tail and exact_EWn equal the mixture of
    per-sequence laws over the enumerated environment law. The thresholds sit
    on (or next to) an achievable statistic, so tie decisions are exercised."""
    env = parse_env_config(cfg)
    log_mean = {s.label: math.log(state_mean(s)) for s, _ in env.states}
    # mu directly: compute_moments rejects equal-mean states whose rounded
    # sigma2 is positive, and the oracles read nothing else from the moments
    mu = math.fsum(mass * log_mean[s.label] for s, mass in env.states)
    seqs = [([s for s, _ in combo], prob) for combo, prob in env_law(env, n)]
    walk = [(math.fsum(log_mean[s.label] for s in states) - n * mu) / (n * M)
            for states, _ in seqs]
    laws = [population_law(states) for states, _ in seqs]
    x_sn = walk[pick % len(seqs)] + shift
    expect_sn = math.fsum(prob for (_, prob), stat in zip(seqs, walk)
                          if stat >= x_sn - TIE_EPS)
    assert exact_sn_tail(env, n, x_sn, M, mu) == pytest.approx(expect_sn, abs=1e-12)

    atoms = [(math.log(v) - n * mu) / (n * M) for law in laws for v in law]
    x_z = atoms[pick % len(atoms)] + shift
    expect_z = math.fsum(
        prob * p for (_, prob), law in zip(seqs, laws) for v, p in law.items()
        if (math.log(v) - n * mu) / (n * M) >= x_z - TIE_EPS)
    got_z = exact_logZn_tail(env, n, x_z, SimpleNamespace(mu=mu), M)
    assert got_z == pytest.approx(expect_z, abs=1e-12)

    expect_w = math.fsum(
        prob * math.fsum(v * p for v, p in law.items())
        / math.prod(state_mean(s) for s in states)
        for (states, prob), law in zip(seqs, laws))
    assert exact_EWn(env, n) == pytest.approx(expect_w, abs=1e-12)


@given(values=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
       data=st.data())
def test_multiset_sum_is_fsum_of_the_expansion(values, data):
    # each composition's S_n must equal the enumeration's fsum bit for bit
    counts = [data.draw(st.integers(0, 40)) for _ in values]
    expanded = [v for v, c in zip(values, counts) for _ in range(c)]
    assert _multiset_sum(values)(counts) == math.fsum(expanded)


class TestReach:
    def test_sn_tail_past_the_enumeration_cap(self):
        # 2^24 environment sequences; the walk tail needs 25 compositions
        env = binary_env()
        mom = compute_moments(env)
        assert math.comb(24 + 1, 1) == 25
        j_min = math.ceil(24 * 1.5 / 2 - 1e-9)
        expect = sum(math.comb(24, j) for j in range(j_min, 25)) / 2 ** 24
        got = exact_sn_tail(env, 24, 0.5, mom.M_tight, mom.mu)
        assert got == pytest.approx(expect, rel=1e-14)

    def test_sn_tail_composition_cap(self, monkeypatch):
        cfg = {"model": "binary",
               "support": [{"p": p, "mass": 0.25} for p in (0.2, 0.4, 0.6, 0.8)]}
        env = parse_env_config(cfg)
        mom = compute_moments(env)
        n = 200  # C(203, 3) = 1,373,701 compositions
        assert math.comb(n + 3, 3) > MAX_COMPOSITIONS
        # the cap refuses before any composition is enumerated
        monkeypatch.setattr(oracle, "_compositions", None)
        with pytest.raises(ResourceCapError):
            exact_sn_tail(env, n, 0.5, mom.M_tight, mom.mu)

    def test_kernel_keeps_the_dp_cap(self):
        env = binary_env()
        mom = compute_moments(env)
        with pytest.raises(ResourceCapError):
            exact_logZn_tail(env, 21, 0.5, mom, mom.M_tight)  # 6.7e9 > 2^32
        with pytest.raises(ResourceCapError):
            exact_EWn(env, 21)

    def test_kernel_work_cap_reach(self):
        # the cap is the binary model's work at n = 16; past it the oracle
        # refuses at once instead of running for minutes to hours
        for cfg, last in ((BINARY, 16), (GENERIC, 10)):
            states = [state for state, _ in parse_env_config(cfg).states]
            assert kernel_work(states, last) <= MAX_KERNEL_WORK
            assert kernel_work(states, last + 1) > MAX_KERNEL_WORK
        # the blocked step's exact count (test_kernel_work_counts_the_convolutions)
        assert kernel_work([state for state, _ in binary_env().states], 16) \
            == 3_016_441_616
        env = binary_env()
        mom = compute_moments(env)
        # the log Z_n tail's work is kernel_work cut at its first tail atom:
        # binary n = 21 at x = 0.5 does 6.7e9 multiply-adds on 21,709 atoms
        t0 = time.perf_counter()
        with pytest.raises(ResourceCapError, match="multiply-adds"):
            exact_logZn_tail(env, 21, 0.5, mom, mom.M_tight)
        with pytest.raises(ResourceCapError, match="multiply-adds"):
            exact_logZn_tail(env, 10 ** 6, 0.5, mom, mom.M_tight)
        assert time.perf_counter() - t0 < 0.1
        # while n = 17 at x = 0.5, past the uncut law's reach, is in it
        assert 0.0 < exact_logZn_tail(env, 17, 0.5, mom, mom.M_tight) < 1.0
        generic = parse_env_config(GENERIC)
        with pytest.raises(ResourceCapError):
            exact_EWn(generic, 11)

    # binary n = 21 cut at 21,709 is the refused x = 0.5 tail above
    @pytest.mark.parametrize("cfg, n, cut", [(BINARY, 16, None), (GENERIC, 10, None),
                                             (BINARY, 21, 21_709), (GENERIC, 12, 2),
                                             (GENERIC, 12, 500)])
    def test_running_work_is_kernel_work_of_each_prefix(self, cfg, n, cut):
        states = [state for state, _ in parse_env_config(cfg).states]
        running = list(oracle._running_work(states, n, cut))
        assert running == [kernel_work(states, g, cut) for g in range(1, n + 1)]
        assert all(a < b for a, b in zip(running, running[1:]))
        assert kernel_work(states, 0, cut) == 0

    # cut at 1 (the whole law absorbed), below, at and above k_max^n, and
    # within a generation's support
    @pytest.mark.parametrize("cfg, n, cut", [
        (BINARY, 6, None), (GENERIC, 4, None), (EXTINCT, 4, None),
        (DOUBLING, 5, None), (BINARY, 6, 1), (BINARY, 8, 40), (BINARY, 6, 64),
        (GENERIC, 5, 100), (GAPPED, 7, 300), (DOUBLING, 5, 20),
        (THREE_POINT, 6, 1000)])
    def test_kernel_work_counts_the_convolutions(self, cfg, n, cut, monkeypatch):
        # kernel_work is the multiply-adds of _compose: the np.convolve of its
        # powers and giant steps and the np.einsum of its baby steps, on the
        # atoms below the cut when there is one
        done = []
        convolve, einsum = np.convolve, np.einsum

        def count_convolve(a, v):
            done.append(len(a) * len(v))
            return convolve(a, v)

        def count_einsum(subscripts, coeffs, rows):
            done.append(coeffs.size * rows.shape[1])
            return einsum(subscripts, coeffs, rows)
        monkeypatch.setattr(oracle.np, "convolve", count_convolve)
        monkeypatch.setattr(oracle.np, "einsum", count_einsum)
        env = parse_env_config(cfg)
        states = [state for state, _ in env.states]
        _annealed_laws(env, n, cut=cut)
        assert sum(done) == kernel_work(states, n, cut)


# --- E|log W_{k+1} - log W_k|: brute force over sequences and z-fold sums -----

def power_coefficients(g, top):
    """Row z - 1 holds the coefficients a_0..a_z of G(t)^z, G(t) = g[0] +
    g[1] t + ... + g[d] t^d with g[0] > 0, for z = 1..top (entries past a_z
    are not used). J. C. P. Miller's recurrence for the powers of a power
    series (Knuth, TAOCP vol. 2, sec. 4.7) gives each row from its first
    coefficient alone: a_0 = g_0^z and
    j g_0 a_j = sum_{i = 1..min(d, j)} (i (z + 1) - j) g_i a_{j-i},
    every term nonnegative for j <= z, so nothing cancels. Column j is held
    as mantissas times 2^exps[:, j], which keeps g_0^z and the largest
    coefficient within the float range; all rows step at once."""
    z = np.arange(1, top + 1)
    m0, e0 = math.frexp(g[0])
    mant = np.zeros((top, top + 1))
    exps = np.zeros((top, top + 1), dtype=np.int64)
    mant[:, 0], exps[:, 0] = np.power(m0, z), e0 * z
    for j in range(1, top + 1):
        acc = np.zeros(top)
        for i in range(1, min(len(g) - 1, j) + 1):
            acc += (i * (z + 1) - j) * g[i] * np.ldexp(
                mant[:, j - i], exps[:, j - i] - exps[:, j - 1])
        mant[:, j], shift = np.frexp(np.maximum(acc, 0.0) / (j * g[0]))
        exps[:, j] = exps[:, j - 1] + shift
    return np.ldexp(mant, exps)


def brute_sum_laws(state, top):
    """(values, P(S_z = value)) for z = 1..top, S_z the sum of z family
    sizes of a state whose sizes lie in lo..lo + d, d <= 2: S_z - z lo has
    the coefficients of G(t)^z, G(t) = sum_i P(size = lo + i) t^i, the sum
    over family-size counts of their multinomial weights. power_coefficients
    gives the coefficients up to a_z, and the same recurrence on the
    reversed polynomial, whose coefficients run from the top atom down,
    gives the rest."""
    support = state.pmf.support
    lo, d = support[0], support[-1] - support[0]
    assert 1 <= d <= 2, "the closed form covers supports of width 1 or 2"
    g = [state.pmf.entries.get(lo + i, 0.0) for i in range(d + 1)]
    up, down = power_coefficients(g, top), power_coefficients(g[::-1], top)
    for z in range(1, top + 1):
        law = np.concatenate([up[z - 1, :z + 1], down[z - 1, :(d - 1) * z][::-1]])
        yield z * lo + np.arange(d * z + 1), law


def brute_increment_means(env, g):
    """E|log Z_{k+1} - log Z_k - X_{k+1}| for k < g: every sequence of k
    states, the law of Z_k under it (brute.population_law), then every state
    of generation k + 1 and the law of the z-fold sum."""
    laws = [[(1.0, {1: 1.0})]] + [
        [(prob, population_law([s for s, _ in combo]))
         for combo, prob in env_law(env, k)] for k in range(1, g)]
    top = max(z for prob, law in laws[-1] for z in law)
    tables = []
    for state, _ in env.states:
        log_m = math.log(state_mean(state))
        tables.append([0.0] + [
            float((law * np.abs(np.log(values) - (math.log(z) + log_m))).sum())
            for z, (values, law) in enumerate(brute_sum_laws(state, top), 1)])
    return [math.fsum(prob * pz * mass * table[z]
                      for prob, law in step for z, pz in law.items()
                      for (_, mass), table in zip(env.states, tables))
            for step in laws]


class TestExactLogwIncrements:
    @pytest.mark.parametrize("cfg", [BINARY, GENERIC, GAPPED])
    def test_matches_brute_force(self, cfg):
        env = parse_env_config(cfg)
        got = exact_logw_increments(env, 7)
        expect = brute_increment_means(env, 7)
        assert len(got) == 7
        for k, (a, b) in enumerate(zip(got, expect)):
            assert b > 0.0
            assert abs(a - b) <= 1e-12 * b, f"k={k}: {a!r} vs {b!r}"

    def test_first_mean_in_closed_form(self):
        # E|log Z_1 - X_1| from Z_0 = 1: one family size per state
        env = parse_env_config(GENERIC)
        expect = math.fsum(
            mass * p * abs(math.log(k) - math.log(state_mean(state)))
            for state, mass in env.states for k, p in state.pmf.entries.items())
        assert exact_logw_increments(env, 1)[0] == pytest.approx(expect, rel=1e-15)

    def test_doubling_has_zero_increments(self):
        means = exact_logw_increments(parse_env_config(DOUBLING), 12)
        assert len(means) == 12
        assert all(0.0 <= m <= 1e-12 for m in means)

    def test_prefix_of_a_deeper_call(self):
        # the table reaches the deepest law's top atom; the shallow means
        # only read the part of it their laws cover
        env = binary_env()
        assert exact_logw_increments(env, 11)[:6] == pytest.approx(
            exact_logw_increments(env, 6), rel=1e-13)

    def test_refuses_extinction_and_depth_zero(self):
        with pytest.raises(ConfigError):
            exact_logw_increments(parse_env_config(EXTINCT), 3)
        with pytest.raises(ValueError):
            exact_logw_increments(binary_env(), 0)

    def test_work_cap_refuses_at_once(self, monkeypatch):
        # binary reaches g = 16; g = 17 needs the kernel's 16 generations
        # (3.0e9) and tables to z = 2^16, past the cap. The cap is read
        # from the check the call makes, with its propagation and table
        # work stubbed out so that an accepted g costs nothing
        checked = {}
        check = oracle._check_kernel_work

        def record(states, n, extra=lambda: 0, cut=None):
            checked[n + 1] = kernel_work(states, n, cut) + extra()
            check(states, n, extra, cut)
        monkeypatch.setattr(oracle, "_check_kernel_work", record)
        monkeypatch.setattr(oracle, "_compose", lambda dist, rows, lo, weight: dist)
        monkeypatch.setattr(oracle, "_increment_means", lambda env, laws: [])
        exact_logw_increments(binary_env(), 11)
        exact_logw_increments(binary_env(), 16)
        with pytest.raises(ResourceCapError, match="multiply-adds"):
            exact_logw_increments(binary_env(), 17)
        assert checked[11] == 4_037_932
        assert checked[16] <= MAX_KERNEL_WORK < checked[17]
        monkeypatch.undo()
        t0 = time.perf_counter()
        with pytest.raises(ResourceCapError, match="multiply-adds"):
            exact_logw_increments(binary_env(), 17)
        with pytest.raises(ResourceCapError):
            exact_logw_increments(binary_env(), 10 ** 6)
        assert time.perf_counter() - t0 < 0.1

    @pytest.mark.parametrize("g", [11, 17])
    def test_walks_its_cap_once(self, g, monkeypatch):
        # one pass over the kernel's generations decides the cap, also
        # when it refuses
        walks = []
        running = oracle._running_work

        def count(states, n, cut=None):
            walks.append(g)
            return running(states, n, cut)
        monkeypatch.setattr(oracle, "_running_work", count)
        if g == 17:
            with pytest.raises(ResourceCapError):
                exact_logw_increments(binary_env(), g)
        else:
            exact_logw_increments(binary_env(), g)
        assert walks == [g]

    @pytest.mark.parametrize("cfg, top", [(BINARY, 40), (GENERIC, 30),
                                          (GAPPED, 30), (DOUBLING, 20)])
    def test_table_work_counts_the_convolutions(self, cfg, top, monkeypatch):
        # with no atom dropped, _table_work is the np.convolve work plus one
        # product per atom of each z-fold law
        done = []
        convolve = np.convolve

        def count(a, v):
            done.append(len(a) * len(v))
            return convolve(a, v)
        for state, _ in parse_env_config(cfg).states:
            done.clear()
            with monkeypatch.context() as patch:
                patch.setattr(oracle.np, "convolve", count)
                _increment_table(state, top)
            w = state.pmf.support[-1] - state.pmf.support[0]
            products = sum(z * w + 1 for z in range(1, top + 1))
            assert sum(done) + products == _table_work([state], top)

    def test_dropped_atoms_leave_the_table(self):
        # at z = 2000 the {1, 2} state's tails fall below 2^-960 and are
        # dropped; the table still agrees with the closed form, whose
        # lgamma terms near 1.3e4 carry about 1e-12 relative error
        state = binary_env().states[0][0]
        top = 2000
        table = _increment_table(state, top)
        c = math.log(top) + math.log(state_mean(state))
        q = state.pmf.entries[2]
        lgam = math.lgamma(top + 1)
        expect = math.fsum(
            math.exp(lgam - math.lgamma(j + 1) - math.lgamma(top - j + 1)
                     + j * math.log(q) + (top - j) * math.log1p(-q))
            * abs(math.log(top + j) - c) for j in range(top + 1))
        assert table[top] == pytest.approx(expect, rel=1e-11)
