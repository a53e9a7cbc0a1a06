"""Exact trajectory simulation: environment sequence, population counts,
random walk S_n, and the normalized martingale W_n = Z_n / Pi_n.

Populations are arbitrary-precision integers with a fixed cap of 2^512
(DEFAULT_POPULATION_CAP); the model stays exact at desk scale. Offspring
totals are sampled as a chain of conditional binomials over ascending family
sizes, with the shifted binomial z + Bin(z, p_2) shortcut for
{1,2}-supported states. A binomial draw on at most `limit` trials is exact;
above it, a rounded Gaussian approximation. offspring() is the one
implementation of this step, for a Python int or an int64 or float64 array
of populations; the Monte Carlo estimators step float64 arrays with it.
simulate_trajectory() calls it with limit = min(exactness threshold,
INT64_SAFE), except on a run of consecutive {1,2} generations past the
limit: Z never decreases, so every draw of such a run is Gaussian, and the
run takes its normals in one standard_normal call, which gives the values of
one call per generation. A generation's first draw is on all Z_k
individuals and each later chain link draws on fewer, so the generation
takes a Gaussian draw iff Z_k > limit and its state draws at all; a
trajectory's approx_sampling_used is read off its records by that rule.

Environment states are picked from uniforms by EnvTables.pick_states, an
inverse CDF by threshold comparisons. EnvTables.pick_probs is the state law
that lookup implies; the S_n-only sampler draws multinomial state counts
from it, since S_n depends on the environment only through those counts.

Randomness contract: Philox4x64 counter-based streams with the 128-bit key
(seed << 64) | (domain << 48) | index. Domains separate the S_n-only sampler
(DOMAIN_SN), the log Z_n tail and deviation estimators (DOMAIN_TRAJ),
single-trajectory simulation (DOMAIN_SIMULATE) and the martingale-increment
estimator (DOMAIN_INCREMENTS), so a master seed can drive all of them
without stream reuse. DOMAIN_QUENCHED is reserved: the tests' quenched
one-step martingale check draws its replicas there.
The key derivation is the whole contract: any implementation of Philox4x64
can replay a run from (seed, domain, index) and the documented draw order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile
from typing import NamedTuple

import numpy as np

from .env import ConfigError, EnvDistribution, ResourceCapError, state_mean

RNG_ID = "philox4x64:key=seed<<64|domain<<48|index"

DOMAIN_SN = 1
DOMAIN_TRAJ = 2
DOMAIN_QUENCHED = 3
DOMAIN_SIMULATE = 4
DOMAIN_INCREMENTS = 5

DEFAULT_EXACT_THRESHOLD = 1 << 32
DEFAULT_POPULATION_CAP = 1 << 512

# numpy's exact binomial sampler takes int64 trial counts; exact draws stay
# at or below this whatever the exactness threshold.
INT64_SAFE = 1 << 62

SEED_MAX = 1 << 64
_INDEX_MAX = 1 << 48


def stream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Dedicated Philox stream for (seed, domain, index); see module docstring."""
    if not 0 <= seed < SEED_MAX:
        raise ValueError(f"seed={seed!r} must be an unsigned 64-bit integer")
    if not 1 <= domain < 0x10000:
        raise ValueError(f"domain={domain!r} out of range")
    if not 0 <= index < _INDEX_MAX:
        raise ValueError(f"index={index!r} out of range")
    key = (seed << 64) | (domain << 48) | index
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class EnvSequence:
    """A realized environment: state labels and their X_i = log m values."""

    states: tuple[str, ...]
    log_means: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.states) != len(self.log_means):
            raise ValueError("states and log_means have different lengths")

    def __len__(self) -> int:
        return len(self.states)


class GenRecord(NamedTuple):
    """One generation of a trajectory: Z_k, S_k and logW_k = log Z_k - S_k.
    A NamedTuple: immutable, and cheap to build once per generation."""

    Z: int
    S: float
    logW: float


@dataclass(frozen=True)
class Trajectory:
    records: tuple[GenRecord, ...]
    env: EnvSequence
    seed: int
    approx_sampling_used: bool = False


@dataclass(frozen=True)
class SimConfig:
    n: int
    seed: int
    exact_sampling_threshold: int = DEFAULT_EXACT_THRESHOLD

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n={self.n!r} must be a positive integer")
        if not 0 <= self.seed < SEED_MAX:
            raise ValueError(f"seed={self.seed!r} must be an unsigned 64-bit integer")
        if not isinstance(self.exact_sampling_threshold, int) or self.exact_sampling_threshold < 1:
            raise ValueError("exact_sampling_threshold must be a positive integer")


class EnvTables:
    """Array form of an EnvDistribution for samplers.

    cum holds cumulative state masses for inverse-CDF lookup, and
    pick_probs the state probabilities that lookup implies; per-state
    sampler descriptors are either ("binary", p2) for {1,2}-supported pmfs
    or ("chain", ((k, conditional_p), ...), k_last) for the ascending
    conditional-binomial chain, and draws holds binomial_draws of each.
    """

    def __init__(self, env: EnvDistribution):
        self.env = env
        self.labels = tuple(s.label for s, _ in env.states)
        self.states = tuple(s for s, _ in env.states)
        self.masses = np.array([mass for _, mass in env.states], dtype=np.float64)
        self.cum = np.cumsum(self.masses)
        # the state law pick_states samples: cum[:-1] clipped at 1, its
        # differences, and the remainder to the last state
        self.pick_probs = np.diff(np.concatenate(
            ([0.0], np.minimum(self.cum[:-1], 1.0), [1.0])))
        self.means = np.array([state_mean(s) for s, _ in env.states], dtype=np.float64)
        self.X = np.log(self.means)
        self.index_of = {label: i for i, label in enumerate(self.labels)}
        self.samplers = tuple(_sampler_descriptor(s.pmf.entries) for s in self.states)
        self.draws = np.array([binomial_draws(s) for s in self.samplers])

    def pick_states(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0,1) to state indices by inverse CDF.

        The index is the number of thresholds cum[:-1] at or below u, which
        equals min(searchsorted(cum, u, "right"), k - 1) since cum is
        nondecreasing: a uniform at or above cum[-1] (masses may sum to
        1 - MASS_TOL) maps to the last state. One comparison pass per
        threshold, so the cost is linear in the number of states k: on a
        2-CPU Xeon about 1.4 ns per uniform at k = 2 and 24 ns at k = 20,
        against 17 and 49 ns for searchsorted, which it matches near k = 40.
        """
        idx = np.zeros(np.shape(u), dtype=np.intp)
        for c in self.cum[:-1]:
            idx += u >= c
        return idx


def _sampler_descriptor(entries: dict[int, float]):
    positive = [(k, p) for k, p in sorted(entries.items()) if p > 0.0]
    sizes = [k for k, _ in positive]
    if all(k in (1, 2) for k in sizes):
        return ("binary", entries.get(2, 0.0))
    # Conditional probability of k_i given none of the smaller sizes, ascending.
    chain = []
    mass_left = 1.0
    for k, p in positive[:-1]:
        chain.append((k, min(max(p / mass_left, 0.0), 1.0)))
        mass_left -= p
    return ("chain", tuple(chain), positive[-1][0])


def _binomial_scalar(trials: int, prob: float, rng: np.random.Generator,
                     limit: int) -> int:
    """One binomial draw; exact up to limit, Gaussian-approximate above.

    Degenerate probabilities short-circuit without consuming randomness, so
    deterministic states never touch the stream.
    """
    if trials == 0 or prob <= 0.0:
        return 0
    if prob >= 1.0:
        return trials
    if trials <= limit:
        return int(rng.binomial(trials, prob))
    return _gaussian_binomial(trials, prob, rng.standard_normal())


def _gaussian_binomial(trials: int, prob: float, normal: float) -> int:
    """The Gaussian stand-in for Bin(trials, prob) at a standard normal draw:
    mean + sd * normal, rounded and clamped to [0, trials]."""
    mean = float(trials) * prob
    draw = round(mean + math.sqrt(mean * (1.0 - prob)) * normal)
    return min(max(draw, 0), trials)


def _binomial_vector(trials: np.ndarray, prob: float, rng: np.random.Generator,
                     limit: int) -> np.ndarray:
    """_binomial_scalar over an int64 or float64 array: the exact draws
    first, in array order, then the Gaussian ones. Exact draws pass the
    trial counts to rng.binomial as int64; the result keeps the input dtype.
    A length-1 array draws what the scalar form draws."""
    if prob <= 0.0:
        return np.zeros_like(trials)
    if prob >= 1.0:
        return trials
    small = trials <= limit
    if small.all():
        return rng.binomial(trials.astype(np.int64), prob).astype(trials.dtype,
                                                                  copy=False)
    out = np.zeros_like(trials)
    if small.any():
        out[small] = rng.binomial(trials[small].astype(np.int64), prob)
    big = trials[~small].astype(np.float64)
    mean = big * prob
    sd = np.sqrt(big * prob * (1.0 - prob))
    draw = np.rint(mean + sd * rng.standard_normal(big.size))
    out[~small] = np.clip(draw, 0.0, big)
    return out


def offspring(z, sampler, rng: np.random.Generator,
              limit: int = DEFAULT_EXACT_THRESHOLD):
    """One generation: total offspring of z individuals under one state.

    This is the package's only offspring step. z is a Python int (the bigint
    form) or an int64 or float64 array of independent populations (the vector
    form; float64 totals are exact below 2^53); sampler is the state's
    EnvTables.samplers descriptor. {1,2}-supported states draw
    z + Bin(z, p_2); other states realize the multinomial family counts as
    conditional binomials over ascending family sizes, one binomial per
    chain link. Each binomial draw on trials <= limit is exact and one above
    it is Gaussian; limit must not pass INT64_SAFE, the largest trial count
    the exact sampler takes.
    """
    binomial = _binomial_vector if isinstance(z, np.ndarray) else _binomial_scalar
    if sampler[0] == "binary":
        return z + binomial(z, sampler[1], rng, limit)
    _, chain, k_last = sampler
    remaining, total = z, 0
    for k, cond_p in chain:
        c = binomial(remaining, cond_p, rng, limit)
        total = total + k * c
        remaining = remaining - c
    return total + k_last * remaining


def binomial_draws(sampler) -> int:
    """Binomial draws one offspring pass takes per population under a
    sampler descriptor; a deterministic {1,2} state takes none."""
    if sampler[0] == "binary":
        return int(0.0 < sampler[1] < 1.0)
    return len(sampler[1])


def require_no_extinction(env: EnvDistribution) -> None:
    """Raise ConfigError if any state has p0 > 0."""
    bad = [s.label for s, _ in env.states if s.pmf.p0 > 0.0]
    if bad:
        raise ConfigError(
            f"extinction possible (p0 > 0) in states: {', '.join(bad)}; "
            "all tail/martingale claims assume p0 = 0")


def sample_env_sequence(env: EnvDistribution, n: int,
                        rng: np.random.Generator) -> EnvSequence:
    """n i.i.d. state draws; one uniform per generation, in generation order."""
    if n < 1:
        raise ValueError(f"n={n!r} must be >= 1")
    tables = env if isinstance(env, EnvTables) else EnvTables(env)
    idx = tables.pick_states(rng.random(n)).tolist()
    labels, log_means = tables.labels, tables.X.tolist()
    return EnvSequence(states=tuple(labels[i] for i in idx),
                       log_means=tuple(log_means[i] for i in idx))


def _check_population_cap(top) -> None:
    """Raise ResourceCapError once a population passes DEFAULT_POPULATION_CAP.

    top is a Python int, or the largest entry of a float64 population
    vector; the cap sits far below float64 overflow.
    """
    if top > DEFAULT_POPULATION_CAP:
        raise ResourceCapError(
            f"population reached {int(top).bit_length()} bits, cap is "
            f"{DEFAULT_POPULATION_CAP.bit_length() - 1} bits")


def simulate_trajectory(env: EnvDistribution | EnvTables, cfg: SimConfig,
                        rng: np.random.Generator | None = None) -> Trajectory:
    """Full trajectory: Z_0 = 1, Z_{k+1} = offspring(Z_k, xi_k).

    S is the running sum of realized X_i and logW := log Z - S, making the
    decomposition an identity; the independent content is that S matches
    log Pi recomputed from per-state means, which the tests check.
    Deterministic given (env, cfg.seed) when rng is not supplied. env may be
    prebuilt EnvTables, so that many trajectories share one. Every state must
    have p0 = 0 (require_no_extinction), so Z never reaches 0.

    Draw order: n environment uniforms, then each generation's offspring
    draws. Once Z passes limit = min(threshold, INT64_SAFE), a run of
    consecutive {1,2} generations draws all its normals (one per state with
    0 < p2 < 1) in one call when its first draw is due; offspring() would
    draw the same values one generation at a time. approx_sampling_used is
    true iff some generation starts above limit in a state that draws.
    """
    tables = env if isinstance(env, EnvTables) else EnvTables(env)
    require_no_extinction(tables.env)
    if rng is None:
        rng = stream(cfg.seed, DOMAIN_SIMULATE, 0)
    seq = sample_env_sequence(tables, cfg.n, rng)
    samplers = [tables.samplers[tables.index_of[label]] for label in seq.states]
    limit = min(cfg.exact_sampling_threshold, INT64_SAFE)

    z = 1
    s = 0.0
    records = [GenRecord(1, 0.0, 0.0)]
    normals = iter(())
    for k, sampler in enumerate(samplers):
        if sampler[0] == "binary" and 0.0 < sampler[1] < 1.0 and z > limit:
            normal = next(normals, None)
            if normal is None:
                normals = iter(rng.standard_normal(
                    _gaussian_run_draws(samplers, k)).tolist())
                normal = next(normals)
            z = z + _gaussian_binomial(z, sampler[1], normal)
        else:
            z = offspring(z, sampler, rng, limit)
        s = s + seq.log_means[k]
        _check_population_cap(z)
        records.append(GenRecord(z, s, math.log(z) - s))
    approx = any(binomial_draws(sampler)
                 for rec, sampler in zip(records, samplers) if rec.Z > limit)
    return Trajectory(records=tuple(records), env=seq, seed=cfg.seed,
                      approx_sampling_used=approx)


def _gaussian_run_draws(samplers: list, start: int) -> int:
    """Normals the run of {1,2} states from start takes past the threshold:
    one per state with 0 < p2 < 1, up to the next chain state."""
    run = takewhile(lambda sampler: sampler[0] == "binary", samplers[start:])
    return sum(binomial_draws(sampler) for sampler in run)

