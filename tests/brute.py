"""Plain-Python references the package's exact routes are tested against.

None of them calls the package's population DP (oracle._compose and the
kernel built on it):

- env_law enumerates the environment law, every state sequence with its
  product probability;
- brute_population_pmf and population_law give the law of Z_n under one
  fixed sequence, the first by enumerating every individual's family size
  (tiny populations only), the second by a plain power-sum DP;
- quenched_martingale_check tests E[W_{k+1} / W_k | xi, Z_k] = 1 by
  simulation, stepping with the package's offspring sampler on the
  reserved Philox domain DOMAIN_QUENCHED.
"""
from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from bpre.env import state_mean
from bpre.simulate import EnvTables, _check_population_cap, offspring


def env_law(env, n):
    """Every sequence of n (state, mass) pairs with its probability."""
    for combo in itertools.product(env.states, repeat=n):
        yield combo, math.prod(mass for _, mass in combo)


def brute_population_pmf(states):
    """P(Z_n = .) for a fixed state sequence by enumerating each individual's
    offspring count explicitly. Exponential in the population; only for tiny
    cases, which is the point: it shares no code with the DP."""
    dist = {1: 1.0}
    for state in states:
        entries = sorted(state.pmf.entries.items())
        nxt = defaultdict(float)
        for z, pz in dist.items():
            for combo in itertools.product(entries, repeat=z):
                total = sum(k for k, _ in combo)
                nxt[total] += pz * math.prod(p for _, p in combo)
        dist = dict(nxt)
    return dist


def population_law(states):
    """P(Z_n = .) for a fixed state sequence, as brute_population_pmf gives
    it but without its zero atoms: each generation adds up law[z] f^{*z}
    over z, the z-fold offspring law f^{*z} made from f^{*(z-1)} by one
    np.convolve. Quadratic in the population, so it reaches the hundreds
    that the increment references need."""
    law = np.array([0.0, 1.0])
    for state in states:
        entries = state.pmf.entries
        f = np.array([entries.get(k, 0.0) for k in range(max(entries) + 1)])
        nxt = np.zeros((len(law) - 1) * (len(f) - 1) + 1)
        power = np.ones(1)
        for z, pz in enumerate(law):
            if z:
                power = np.convolve(power, f)
            nxt[:len(power)] += pz * power
        law = nxt
    return {v: p for v, p in enumerate(law.tolist()) if p > 0.0}


@dataclass(frozen=True)
class QuenchedReport:
    mean_ratio: float
    stderr: float


def quenched_martingale_check(env, states, k, replicas, rng):
    """Quenched one-step martingale test at generation k of a fixed sequence
    of state indices (EnvTables(env).pick_states draws one).

    Simulates a single prefix to a common Z_k, then many independent one-step
    continuations; E[W_{k+1}/W_k | xi, Z_k] = 1, so the sample mean of
    Z_{k+1}/(Z_k m(xi_k)) should sit within a few stderr of 1. The prefix
    steps a length-1 float64 array under the population cap; the replicas
    step as one float64 vector. Both are exact below 2^53 and round at
    1e-16 relative above.
    """
    if replicas < 100:
        raise ValueError(f"insufficient replicas: {replicas} < 100")
    if not 0 <= k < len(states):
        raise ValueError(f"k={k} outside the sequence of length {len(states)}")
    tables = EnvTables(env)
    z = np.ones(1)
    for s in states[:k]:
        z = offspring(z, tables.samplers[s], rng)
        _check_population_cap(z[0])
    m = state_mean(tables.states[states[k]])
    totals = offspring(np.full(replicas, z[0]), tables.samplers[states[k]], rng)
    ratios = totals / (z[0] * m)
    stderr = float(np.std(ratios, ddof=1)) / math.sqrt(replicas)
    return QuenchedReport(mean_ratio=float(np.mean(ratios)), stderr=stderr)
