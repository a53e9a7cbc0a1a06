"""Trajectory simulation: environment sequence, population counts, random
walk S_n, and the normalized martingale W_n = Z_n / Pi_n.

Populations are float64 arrays: exact integers below 2^53, rounded at 1e-16
relative above, with a fixed cap of 2^512 (DEFAULT_POPULATION_CAP) far below
float64 overflow. Offspring totals are sampled as a chain of conditional
binomials over ascending family sizes, with the shifted binomial
z + Bin(z, p_2) shortcut for {1,2}-supported states. A binomial draw on at
most `limit` trials is exact; above it, a rounded Gaussian approximation.
offspring() is the one implementation of this step. _generation steps a
block of populations one generation, one offspring pass per state in
declaration order, and _state_rows holds the block's environment as state
indices: this is the generation loop of the Monte Carlo estimators and of
simulate_block, which steps all trajectories of a `simulate` run as one block
on one stream with limit = min(exactness threshold, INT64_SAFE).
simulate_trajectory() is a block of one. A generation's first draw is on all
Z_k individuals and each later chain link draws on fewer, so a generation
takes a Gaussian draw iff some population starts above limit in a state that
draws; approx_sampling_used follows that rule.

Environment states are picked from uniforms by EnvTables.pick_states, an
inverse CDF by threshold comparisons. EnvTables.pick_probs is the state law
that lookup implies; the S_n-only sampler draws multinomial state counts
from it, since S_n depends on the environment only through those counts.

Randomness contract: Philox4x64 counter-based streams with the 128-bit key
(seed << 64) | (domain << 48) | index. Domains separate the S_n-only sampler
(DOMAIN_SN), the log Z_n tail and deviation estimators (DOMAIN_TRAJ),
trajectory simulation (DOMAIN_SIMULATE, one stream per block) and the
martingale-increment estimator (DOMAIN_INCREMENTS), so a master seed can
drive all of them without stream reuse. DOMAIN_QUENCHED is reserved: the
tests' quenched one-step martingale check draws its replicas there.
The key derivation is the whole contract: any implementation of Philox4x64
can replay a run from (seed, domain, index) and the documented draw order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .env import (ConfigError, EnvDistribution, ResourceCapError,
                  state_log_mean)

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

# A block draws its environment uniforms in row chunks of about this many
# values and keeps only their state indices (_state_rows).
STATE_CHUNK = 1 << 16

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


class GenRecord(NamedTuple):
    """One generation of a trajectory: Z_k, S_k and logW_k = log Z_k - S_k.
    Z_k is a float64 value, an exact integer below 2^53. A NamedTuple:
    immutable, and cheap to build once per generation."""

    Z: float
    S: float
    logW: float


@dataclass(frozen=True)
class Trajectory:
    """A simulated trajectory: records for k = 0..n, and states, the label
    of each generation's state in order (S_k sums X over the first k)."""

    records: tuple[GenRecord, ...]
    states: tuple[str, ...]
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
        self.X = np.array([state_log_mean(s) for s in self.states])
        self.index_dtype = np.min_scalar_type(len(self.states) - 1)
        self.samplers = tuple(_sampler_descriptor(s.pmf.entries) for s in self.states)
        self.draws = np.array([binomial_draws(s) for s in self.samplers])

    def pick_states(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0,1) to state indices by inverse CDF.

        The index is the number of thresholds cum[:-1] at or below u, which
        equals min(searchsorted(cum, u, "right"), k - 1) since cum is
        nondecreasing: a uniform at or above cum[-1] (masses may sum to
        1 - MASS_TOL) maps to the last state. The indices come in
        index_dtype, the smallest unsigned dtype that holds the top index
        (uint8 up to 256 states). One comparison pass per threshold, so the
        cost is linear in the number of states k: on a 2-CPU Xeon about
        0.25 ns per uniform at k = 2, 4 ns at k = 20 and 8 ns at k = 40,
        against 15, 37 and 50 ns for searchsorted.
        """
        idx = np.zeros(np.shape(u), dtype=self.index_dtype)
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


def _binomial_vector(trials: np.ndarray, prob: float, rng: np.random.Generator,
                     limit: int) -> np.ndarray:
    """Binomial draws over an int64 or float64 array of trial counts: exact
    up to limit, Gaussian-approximate above (mean + sd * normal, rounded and
    clamped to [0, trials]). The exact draws come first, in array order,
    then the Gaussian ones. Exact draws pass the trial counts to
    rng.binomial as int64; the result keeps the input dtype. Degenerate
    probabilities short-circuit without consuming randomness, so
    deterministic states never touch the stream."""
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


def offspring(z: np.ndarray, sampler, rng: np.random.Generator,
              limit: int = DEFAULT_EXACT_THRESHOLD) -> np.ndarray:
    """One generation: total offspring of each population in z under one
    state.

    This is the package's only offspring step. z is an int64 or float64
    array of independent populations (float64 totals are exact below 2^53;
    the package steps float64); sampler is the state's
    EnvTables.samplers descriptor. {1,2}-supported states draw
    z + Bin(z, p_2); other states realize the multinomial family counts as
    conditional binomials over ascending family sizes, one binomial per
    chain link. Each binomial draw on trials <= limit is exact and one above
    it is Gaussian; limit must not pass INT64_SAFE, the largest trial count
    the exact sampler takes.
    """
    if sampler[0] == "binary":
        return z + _binomial_vector(z, sampler[1], rng, limit)
    _, chain, k_last = sampler
    remaining, total = z, 0
    for k, cond_p in chain:
        c = _binomial_vector(remaining, cond_p, rng, limit)
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


def _check_population_cap(top: float) -> None:
    """Raise ResourceCapError once the largest population of a block, top,
    passes DEFAULT_POPULATION_CAP; the cap sits far below float64 overflow."""
    if top > DEFAULT_POPULATION_CAP:
        raise ResourceCapError(
            f"population reached {int(top).bit_length()} bits, cap is "
            f"{DEFAULT_POPULATION_CAP.bit_length() - 1} bits")


def _state_rows(tables: EnvTables, n: int, size: int,
                rng: np.random.Generator) -> np.ndarray:
    """The states of a block's (size, n) environment uniform matrix, as an
    (n, size) array whose row k is generation k's state index per trial,
    in tables.index_dtype (uint8 up to 256 states).

    The uniforms are drawn in row chunks of about STATE_CHUNK values and
    mapped by tables.pick_states chunk by chunk. Row-major chunks take the
    values of one rng.random((size, n)) call and leave the stream where it
    would, so the draws are those of the whole matrix, while the block
    holds one byte per trial-generation instead of eight.
    """
    states = np.empty((n, size), dtype=tables.index_dtype)
    step = max(1, STATE_CHUNK // max(n, 1))
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        states[:, lo:hi] = tables.pick_states(rng.random((hi - lo, n))).T
    return states


def _generation(tables: EnvTables, col: np.ndarray, z: np.ndarray,
                rng: np.random.Generator,
                limit: int = DEFAULT_EXACT_THRESHOLD) -> bool:
    """One generation of a block of float64 populations z, updated in place:
    one offspring pass per state in declaration order, the trials' state
    indices in col, each binomial draw on more than limit trials Gaussian.
    Returns whether the generation took a Gaussian draw: some population
    starts above limit in a state whose pass draws. Raises ResourceCapError
    once a population passes DEFAULT_POPULATION_CAP, well before float64
    overflows."""
    approx = bool(tables.draws[col[z > limit]].any())
    for s, sampler in enumerate(tables.samplers):
        sel = np.nonzero(col == s)[0]
        if sel.size:
            z[sel] = offspring(z[sel], sampler, rng, limit)
    _check_population_cap(z.max())
    return approx


def _generations(tables: EnvTables, n: int, rng: np.random.Generator,
                 z: np.ndarray):
    """Step a block of float64 populations z through n generations in the
    pinned draw order: the (size, n) environment matrix, held as its state
    rows (_state_rows), then _generation per row. At one byte per
    trial-generation the state matrix is an eighth of the uniforms it
    replaces, and each generation reads one contiguous row.

    Yields (state index per trial, Z, whether a draw was Gaussian) after
    each generation; z is updated in place. Z is exact below 2^53 and
    rounds at 1e-16 relative above.
    """
    for col in _state_rows(tables, n, z.size, rng):
        yield col, z, _generation(tables, col, z, rng)


def simulate_block(tables: EnvTables, cfg: SimConfig, size: int,
                   rng: np.random.Generator
                   ) -> tuple[np.ndarray, np.ndarray, bool]:
    """size trajectories of cfg.n generations from Z_0 = 1, stepped as one
    block on rng: (Z, states, whether a draw was Gaussian).

    states are the (n, size) state rows (_state_rows), drawn first; then
    each generation is one _generation with limit =
    min(cfg.exact_sampling_threshold, INT64_SAFE), and row k of the
    (n+1, size) float64 array Z holds every trajectory's Z_k: 9 bytes per
    trajectory-generation in all. Every state must have p0 = 0
    (require_no_extinction), so Z never reaches 0.
    """
    require_no_extinction(tables.env)
    limit = min(cfg.exact_sampling_threshold, INT64_SAFE)
    states = _state_rows(tables, cfg.n, size, rng)
    z = np.empty((cfg.n + 1, size))
    z[0] = 1.0
    approx = False
    for k, col in enumerate(states):
        z[k + 1] = z[k]
        approx |= _generation(tables, col, z[k + 1], rng, limit)
    return z, states, approx


def block_records(tables: EnvTables, z: np.ndarray, states: np.ndarray,
                  t: int) -> list[tuple[float, float, float]]:
    """(Z_k, S_k, logW_k) for k = 0..n of trajectory t of a simulate_block,
    as plain tuples, cheaper than GenRecords. S is the running sum of X over
    its states and logW = log Z - S, which makes the decomposition an
    identity; the independent content is that S matches log Pi recomputed
    from per-state means, which the tests check."""
    s = np.zeros(len(states) + 1)
    np.cumsum(tables.X[states[:, t]], out=s[1:])
    return [(zk, sk, math.log(zk) - sk)
            for zk, sk in zip(z[:, t].tolist(), s.tolist())]


def simulate_trajectory(env: EnvDistribution | EnvTables, cfg: SimConfig,
                        rng: np.random.Generator | None = None) -> Trajectory:
    """One trajectory: a simulate_block of one on rng, by default
    stream(cfg.seed, DOMAIN_SIMULATE, 0). It draws n environment uniforms,
    then each generation's offspring draws in generation order. env may be
    prebuilt EnvTables, so that many trajectories share one."""
    tables = env if isinstance(env, EnvTables) else EnvTables(env)
    if rng is None:
        rng = stream(cfg.seed, DOMAIN_SIMULATE, 0)
    z, states, approx = simulate_block(tables, cfg, 1, rng)
    return Trajectory(records=tuple(GenRecord(*rec) for rec in
                                    block_records(tables, z, states, 0)),
                      states=tuple(tables.labels[i]
                                   for i in states[:, 0].tolist()),
                      seed=cfg.seed, approx_sampling_used=approx)
