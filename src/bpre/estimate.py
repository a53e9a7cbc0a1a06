"""Monte Carlo estimation of tail probabilities and martingale-increment
decay, with exact binomial confidence intervals and geometric-decay fitting.

Trials are partitioned into fixed blocks of BLOCK_TRIALS; block b draws from
the Philox stream keyed by (seed, domain, b) regardless of how many workers
process the blocks, and partial results are reduced in block order. Estimates
are therefore bit-identical for any worker count. mc_tail_sn draws each
block's (size, k) matrix of state counts in one multinomial call and needs
no other draw. Within a block of the population estimators the draw order
is pinned: the (size, n) environment uniform matrix first, then per
generation one offspring pass per state in declaration order, over the
trials still stepped (all of them, except in mc_tail_logzn; see below).
The generation loop is bpre.simulate's, shared with simulate_block: the
block holds that matrix only as its (n, size) state indices
(simulate._state_rows, one byte each up to 256 states), and generation k
reads row k of them in simulate._generation, whose passes are calls of
simulate.offspring on a float64 population vector; that fixes the draws
inside each pass (exact binomial draws before Gaussian-approximate ones).
The vector form is the same at every horizon: populations are exact integers
below 2^53 and round at 1e-16 relative above, far inside TIE_EPS and the
Gaussian draws' own error (every draw above DEFAULT_EXACT_THRESHOLD = 2^32 is
Gaussian). Populations past DEFAULT_POPULATION_CAP raise ResourceCapError.
Neither constant is a parameter. Each generation reports whether it took a
Gaussian draw (some population starts above the threshold in a state that
draws); the reports of a call's blocks are ORed in block order into
approx_sampling_used.

The log Z_n estimators (mc_tail_logzn, convergence_report) start from a
kernel head: under the annealed law (Z_k) is a Markov chain with kernel K, so
each block first draws Z_g ~ delta_1 K^g, one uniform per trial mapped by
inverse CDF through the cumulative kernel law, and then draws the
(size, n - g) environment matrix and steps generations g+1..n as above
(mc_tail_logzn draws the matrix only once some trial is still open after
the head). The depth g is the largest g <= n whose kernel work
(oracle.kernel_work) is at most HEAD_WORK_PER_DRAW multiply-adds per
binomial draw that stepping generations 1..g would take, and at most
oracle.MAX_KERNEL_WORK; it depends on the model, n and the trial count
only. A call propagates the kernel at most once, before the blocks
(oracle._annealed_laws), to its deepest head; convergence_report takes
every horizon's head law from that one propagation. It needs every trial's
log Z_n, so it steps every trial to n; the blocks of all its horizons share
one thread pool.

mc_logw_increments takes the means for k < g from the annealed law
(oracle._increment_means: E|Delta_k| = sum_z P(Z_k = z) h(z), h a table of
E|log(S_z / (z m))| over the states), as one task in the thread pool beside
the blocks, and reports them with stderr 0.0; its blocks draw Z_g from the
same kernel head and step generations g..n-1 for the rows k >= g. Its depth
g (_increment_depth) follows the same rule with the table's work added.
At g = n it opens no stream.

mc_tail_logzn steps a trial only while its outcome is open. With p0 = 0
(require_no_extinction), Z_k <= Z_n <= k_max^(n-k) Z_k on every path: Z
never decreases, and one generation multiplies it by at most k_max, Gaussian
draws included, since each is clamped to [0, trials]. tail_reached is
monotone in its statistic. So before each generation k a trial with
tail_reached(log Z_k) is a hit and one without
tail_reached(log Z_k + (n - k) log k_max) is a miss, whatever its remaining
draws; both are dropped. The rule is exact in integer arithmetic; float64
rounding moves a statistic by a few ulp, which can change a decision only
for a bound within that of the closed threshold x - TIE_EPS. Only the open
trials, compacted in block order with their states of generation k,
take generation k's offspring pass, so the draws a block takes depend on
the event, and a reachable x gives other bytes than stepping every trial
to n would (the same law). The rule is applied first at Z_0 = 1 with all n
generations to go: an event it fixes there, such as x = 3 under M_paper,
holds for every trial or for none, and mc_tail_logzn returns it without
building a head or drawing anything. A block whose trials are all decided
at the head draws no environment matrix.

Tail events are decided by oracle.tail_reached, the normalized statistic and
TIE_EPS closed-tail rule of the exact oracle, so the two agree on every
sample path.
"""
from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .env import EnvDistribution, compute_moments
from .oracle import (MAX_KERNEL_WORK, TIE_EPS, _annealed_laws,
                     _increment_means, _running_work, _table_work, kernel_work,
                     tail_reached)
from .simulate import (DOMAIN_INCREMENTS, DOMAIN_SN, DOMAIN_TRAJ, EnvTables,
                       _generation, _generations, _state_rows,
                       require_no_extinction, stream)

BLOCK_TRIALS = 16384

MIN_TRIALS = 1000
# Every estimator lists its blocks (_blocks) before the first draw, so the
# list grows with the trial count: 65,536 blocks at 2^30 trials, and a
# MemoryError long before --trials 1e30.
MAX_TRIALS = 1 << 30

# A log Z_n estimate draws Z_g from the kernel law instead of stepping
# generations 1..g while the kernel costs at most this many multiply-adds per
# binomial draw it saves; on a 2-CPU Xeon a draw costs about 100-190 ns and a
# kernel multiply-add about 1 ns at g = 10 and 0.3-0.4 ns at g = 12-13 (the
# binary {1, 2} model's _annealed_laws over its kernel_work).
HEAD_WORK_PER_DRAW = 8


@dataclass(frozen=True)
class TailEstimate:
    hits: int
    trials: int
    point: float
    ci_low: float
    ci_high: float
    level: float
    threshold_x: float
    n: int
    approx_sampling_used: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.hits <= self.trials:
            raise ValueError(f"hits={self.hits} outside [0, {self.trials}]")
        if not self.ci_low <= self.point <= self.ci_high:
            raise ValueError("confidence interval does not bracket the point estimate")


class IncrementStat(NamedTuple):
    k: int
    mean: float
    stderr: float


class IncrementStats(list):
    """The IncrementStat of each k = 0..n-1, in k order, as a list, whether
    any offspring draw behind them was Gaussian, and the head depth g: rows
    k < g are exact, with stderr 0.0."""

    def __init__(self, stats: Iterable[IncrementStat],
                 approx_sampling_used: bool, head_depth: int = 0):
        super().__init__(stats)
        self.approx_sampling_used = approx_sampling_used
        self.head_depth = head_depth


@dataclass(frozen=True)
class DecayFit:
    """Least-squares geometric fit mean_k ~ c * delta^k on the log scale."""

    increments: tuple[tuple[int, float], ...]
    c_hat: float
    delta_hat: float
    r2: float

    def __post_init__(self) -> None:
        if not self.increments:
            raise ValueError("increments are empty")
        if not self.c_hat > 0.0:
            raise ValueError(f"c_hat={self.c_hat!r} must be > 0")


# stirlerr(n) = log(n!) - (n + 1/2) log(n) + n - log(2 pi)/2 for n = 0..15,
# correctly rounded (Loader 2000 tabulates them; these are from 50 digits)
_STIRLERR = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
             0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
             0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
             0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
             0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)


def _stirlerr(n: int) -> float:
    """The Stirling-series remainder of log(n!), tabulated for n <= 15; past
    15 its first five series terms leave under 1.2e-16."""
    if n < len(_STIRLERR):
        return _STIRLERR[n]
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn)
                      / nn) / nn) / n


def _near(x: float, m: float) -> bool:
    """Whether _bd0(x, m) takes its series, which converges as ((x-m)/(x+m))^2."""
    return abs(x - m) < 0.5 * (x + m)


def _bd0(x: float, m: float) -> float:
    """x log(x/m) + m - x without cancellation near x = m (Loader 2000)."""
    if not _near(x, m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    s = (x - m) * v
    term = 2.0 * x * v
    v *= v
    j = 3
    while True:
        term *= v
        s, last = s + term / j, s
        if s == last:
            return s
        j += 2


def _log_tail(n: int, k: int, p: float, q: float, log_tail: float,
              root: float) -> tuple[float, float]:
    """(log(P(Bin(n, p) >= k) / tail), S) for 0 < k < n, q = 1 - p and
    (n + 1) p < k + 1, where log_tail = log(tail), root^k = tail, and the
    tail is pmf(k) * S.

    pmf(k) is Loader's saddle-point form. Where _bd0(k, np) would take its
    direct form, -bd0(k, np) - log(tail) is taken as
    k log(np / (k root)) + k - np: near the root np / (k root) is of order
    1, so no logarithm of order log(tail) is rounded, which at small k would
    cost about |log(tail)| ulp in p. S sums the terms pmf(j)/pmf(k), j >= k,
    which fall from j = k on: each chunk is one cumprod of the ratios
    pmf(i)/pmf(i - 1) = (n + 1 - i) p / (i q), and the sum stops once the
    rest, at most term * r / (1 - r) for the last ratio r, is below 2^-56
    (S >= 1).
    """
    m = n * p
    h = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(n - k, n * q)
         - 0.5 * math.log(2.0 * math.pi * k * (n - k) / n))
    if _near(k, m):
        h -= _bd0(k, m) + log_tail
    else:
        h += k * math.log(m / (k * root)) + k - m
    odds = p / q
    sums = [1.0]
    term, j, size = 1.0, k, 64 + int(9.0 * math.sqrt(m * q))
    while j < n:
        i = np.arange(j + 1, min(j + size, n) + 1, dtype=np.float64)
        ratios = (n + 1.0 - i) / i * odds
        last = float(ratios[-1])
        terms = np.cumprod(ratios, out=ratios) * term
        sums.append(float(terms.sum()))
        term, j = float(terms[-1]), j + i.size
        if term * last < 2.0 ** -56 * (1.0 - last):
            break
        size *= 2
    s = math.fsum(sums)
    return h + math.log(s), s


def _cp_bound(n: int, k: int, tail: float, upper: bool) -> float:
    """The p in (0, 1) with P(Bin(n, p) >= k) = tail (lower bound) or
    P(Bin(n, p) <= k) = tail (upper bound), for 0 < k < n and tail < 1/2.

    The upper bound's tail is P(Bin(n, q) >= n - k), so both bounds sum an
    upper tail in the success probability pp (p or q) from kk (k or n - k)
    on. Its log is concave in log pp (log of a Beta(kk, n - kk + 1) variable
    has a log-concave density) with derivative kk / S there, so a Newton
    step on log pp from below the root stays below it and one from above
    lands below it. The steps start from the Wilson score bound with
    continuity correction, are kept inside the bracket of p that the
    evaluations have built, and stop at a step below 2^-46 p.
    """
    kk = n - k if upper else k
    log_tail = math.log(tail)
    # root^kk = tail to about an ulp: 1/kk is rounded, so one Newton step
    root = tail ** (1.0 / kk)
    root *= 1.0 - (root ** kk / tail - 1.0) / kk
    # the normal quantile at 1 - tail, to 4.5e-4 (Abramowitz-Stegun 26.2.23)
    t = math.sqrt(-2.0 * log_tail)
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    x = k + 0.5 if upper else k - 0.5
    half = z * math.sqrt(x * (n - x) / n + z * z / 4)
    p = (x + z * z / 2 + (half if upper else -half)) / (n + z * z)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if not lo < p < hi:
            p = 0.5 * (lo + hi)
            if not lo < p < hi:
                return p
        q = 1.0 - p
        pp, qq = (q, p) if upper else (p, q)
        if (n + 1) * pp >= kk + 1:
            # the terms rise from kk, so kk is at most the median and the
            # tail is at least 1/2: a side of the root but no Newton step
            h, step = math.inf, math.nan
        else:
            h, s = _log_tail(n, kk, pp, qq, log_tail, root)
            step = pp * math.expm1(-h * s / kk)
            if upper:
                step = -step
            if abs(step) <= 2.0 ** -46 * p:
                return p + step
        if (h > 0.0) != upper:
            hi = p
        else:
            lo = p
        p += step
    raise ArithmeticError(f"no Clopper-Pearson root for n={n}, k={k}, "
                          f"tail={tail!r}, upper={upper}")


def binomial_ci(hits: int, trials: int, level: float) -> tuple[float, float]:
    """Exact two-sided equal-tailed (Clopper-Pearson) binomial interval.

    With alpha/2 = (1 - level)/2, the lower bound solves
    P(Bin(trials, p) >= hits) = alpha/2 and the upper bound
    P(Bin(trials, p) <= hits) = alpha/2 (Clopper & Pearson, Biometrika 1934),
    each for its own tail, so alpha/2 is never rounded as 1 - alpha/2. The
    tails are summed from their first term, which is Loader's saddle-point
    binomial pmf ("Fast and accurate computation of binomial
    probabilities", 2000), and each root is found by Newton steps on the
    log tail (_cp_bound). Each bound is within a few ulp of the exact
    root: the tests bracket it within 8 ulp by 45-digit tails for trials
    from 10 to 10^9 at levels up to 0.999999, and 400 random cases with
    trials <= 1500 and levels up to 1 - 1e-9 were all within 4 ulp. The
    boundary cases use the closed forms (alpha/2)^(1/trials) and
    1 - (alpha/2)^(1/trials).
    """
    if trials < 1:
        raise ValueError(f"trials={trials!r} must be >= 1")
    if not 0 <= hits <= trials:
        raise ValueError(f"hits={hits!r} outside [0, {trials}]")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level={level!r} must be in (0,1)")
    half_alpha = (1.0 - level) / 2.0
    if hits == 0:
        low = 0.0
    elif hits == trials:
        low = half_alpha ** (1.0 / trials)
    else:
        low = _cp_bound(trials, hits, half_alpha, upper=False)
    if hits == trials:
        high = 1.0
    elif hits == 0:
        # 1 - (alpha/2)^(1/trials) via expm1: the direct subtraction loses
        # ~5 digits to cancellation once trials is large.
        high = -math.expm1(math.log(half_alpha) / trials)
    else:
        high = _cp_bound(trials, hits, half_alpha, upper=True)
    return low, high


def _blocks(trials: int) -> list[tuple[int, int]]:
    return [(b, min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS))
            for b in range((trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS)]

def _run(tasks: Sequence[Callable[[], object]], workers: int) -> list:
    """Call every task, results in task order; with workers > 1 the tasks
    share one pool of that many threads, taken up in task order."""
    if workers <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda task: task(), tasks))


def _block_tasks(fn, trials: int) -> list[Callable[[], object]]:
    """fn(block_index, block_size) for every block, in block order."""
    return [functools.partial(fn, b, size) for b, size in _blocks(trials)]


def _map_blocks(fn, trials: int, workers: int) -> list:
    """Run fn(block_index, block_size) over all blocks, results in block order."""
    return _run(_block_tasks(fn, trials), workers)


def _require_trials(trials: int) -> None:
    if trials < MIN_TRIALS:
        raise ValueError(f"insufficient trials: {trials} < {MIN_TRIALS}")
    if trials > MAX_TRIALS:
        raise ValueError(f"too many trials: {trials} > {MAX_TRIALS}")


def _tail_estimate(hits: int, trials: int, level: float, x: float,
                   n: int, approx: bool = False) -> TailEstimate:
    low, high = binomial_ci(hits, trials, level)
    return TailEstimate(hits=hits, trials=trials, point=hits / trials,
                        ci_low=low, ci_high=high, level=level,
                        threshold_x=x, n=n, approx_sampling_used=approx)


def mc_tail_sn(env: EnvDistribution, n: int, x: float, M: float, trials: int,
               seed: int, level: float = 0.99, workers: int = 1) -> TailEstimate:
    """Estimate P((S_n - n*mu)/(n*M) >= x) from environment draws alone.

    S_n = sum_s c_s X_s depends on the environment only through the state
    counts c, so a block draws its trials' counts in one multinomial call,
    under the law pick_states implies (EnvTables.pick_probs), and takes
    S_n = counts @ X: O(k) work per trial instead of n state picks.
    """
    _require_trials(trials)
    if not M > 0.0:
        raise ValueError(f"M={M!r} must be > 0")
    if n < 1:
        raise ValueError(f"n={n!r} must be >= 1")
    tables = EnvTables(env)
    mu = compute_moments(env).mu

    def run_block(b: int, size: int) -> int:
        counts = stream(seed, DOMAIN_SN, b).multinomial(n, tables.pick_probs, size)
        s_n = counts @ tables.X
        return int(np.count_nonzero(tail_reached(s_n, n, mu, M, x)))

    return _tail_estimate(sum(_map_blocks(run_block, trials, workers)),
                          trials, level, x, n)


def _deepest(tables: EnvTables, n: int, trials: int,
             works: Iterable[int]) -> int:
    """The largest g <= n whose work (works yields it for g = 1, 2, ...) is
    at most HEAD_WORK_PER_DRAW multiply-adds per binomial draw that stepping
    g generations would take (trials * g * the mass-weighted draws per
    offspring pass), and at most MAX_KERNEL_WORK."""
    draws = trials * float(tables.masses @ tables.draws)
    for g, work in enumerate(works, 1):
        if work > min(HEAD_WORK_PER_DRAW * draws * g, MAX_KERNEL_WORK):
            return g - 1
    return n


def _head_depth(tables: EnvTables, n: int, trials: int) -> int:
    """The depth of a log Z_n estimate's kernel head (_deepest): its work is
    the kernel's propagation to delta_1 K^g."""
    return _deepest(tables, n, trials,
                    _running_work(tables.states, n))


def _increment_depth(tables: EnvTables, n: int, trials: int) -> int:
    """The depth g of mc_logw_increments' exact rows (_deepest): its work is
    the kernel's propagation to delta_1 K^min(g, n-1) (delta_1 K^g is the
    head's law, which g = n does without) and the increment tables up to
    the top atom k_max^(g-1) of delta_1 K^(g-1) (oracle._table_work)."""
    return _deepest(tables, n, trials, (
        kernel_work(tables.states, min(g, n - 1))
        + _table_work(tables.states, tables.env.k_max ** (g - 1))
        for g in range(1, n + 1)))


class _KernelHead:
    """Z_g drawn exactly from law, the annealed law delta_1 K^g
    (oracle._annealed_laws), whose cumulative sums are computed once per
    call, before the blocks. Depth 0 is Z_0 = 1 and draws nothing."""

    def __init__(self, g: int, law: np.ndarray):
        self.g = g
        self.cdf = np.cumsum(law)
        self.top = int(np.flatnonzero(law)[-1])

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """One uniform per trial, mapped by inverse CDF to a population; a
        uniform at or above the last cumulative sum maps to the top atom."""
        if not self.g:
            return np.ones(size)
        idx = np.searchsorted(self.cdf, rng.random(size), side="right")
        return np.minimum(idx, self.top).astype(np.float64)


def _final_logz(tables: EnvTables, n: int, size: int, rng: np.random.Generator,
                head: _KernelHead) -> tuple[np.ndarray, bool]:
    """log Z_n for a block of trials, and whether a draw was Gaussian (the
    head's exact draws never are).

    Under the annealed law (Z_k) is a Markov chain, so Z_g ~ delta_1 K^g and
    Z_{g+1..n} depend on the past only through Z_g. The block draws Z_g
    first (head.draw), then steps the remaining n - g generations with
    _generations; at depth 0 it steps all n from Z_0 = 1. The sampled law of
    Z_g is within 2 gamma_N + (k_max^g + 1) u of delta_1 K^g in total
    variation, u = 2^-53: gamma_N bounds each kernel atom's relative error
    (see oracle._compose), and the running sum adds at most u to each atom's
    mass. That is below 4e-12 for the binary model at g = 12, far below the
    1/trials resolution of any estimate.
    """
    z = head.draw(rng, size)
    approx = False
    for _, _, gaussian in _generations(tables, n - head.g, rng, z):
        approx |= gaussian
    return np.log(z), approx


def _decide(reached, logz: np.ndarray, rest: int,
            log_kmax: float) -> tuple[np.ndarray, np.ndarray]:
    """(hit, open) masks for trials at log Z_k with rest = n - k generations
    to go. With p0 = 0, Z_k <= Z_n <= k_max^rest * Z_k, and reached (the tail
    event at n, monotone in its statistic) holds at log Z_n if it holds at
    log Z_k, and fails there if it fails at log Z_k + rest * log k_max. A
    trial that is neither a hit nor a miss is open."""
    hit = reached(logz)
    return hit, ~hit & reached(logz + rest * log_kmax)


def _tail_hits(tables: EnvTables, n: int, size: int, rng: np.random.Generator,
               head: _KernelHead, reached) -> tuple[int, bool]:
    """Trials of a block whose log Z_n satisfies reached, and whether a draw
    was Gaussian.

    Draws Z_g (head.draw), then before each generation k decides every open
    trial by _decide: hits are counted and dropped, misses dropped. The
    (size, n - g) environment matrix is drawn, as its state rows
    (_state_rows), once some trial is still open after the head. Only the
    open trials, in block order, take generation k's _generation, each
    with its own state from row k.
    """
    z = head.draw(rng, size)
    rows = np.arange(size)
    log_kmax = math.log(tables.env.k_max)
    hits, approx = 0, False
    for j, rest in enumerate(range(n - head.g, 0, -1)):
        hit, live = _decide(reached, np.log(z), rest, log_kmax)
        hits += int(np.count_nonzero(hit))
        z, rows = z[live], rows[live]
        if not z.size:
            return hits, approx
        if not j:
            states = _state_rows(tables, n - head.g, size, rng)
        approx |= _generation(tables, states[j][rows], z, rng)
    return hits + int(np.count_nonzero(reached(np.log(z)))), approx


def mc_tail_logzn(env: EnvDistribution, n: int, x: float, M: float, trials: int,
                  seed: int, level: float = 0.99, workers: int = 1) -> TailEstimate:
    """Estimate P((log Z_n - n*mu)/(n*M) >= x) from trajectories stepped
    until their outcome is fixed (_tail_hits). An event that _decide fixes
    at Z_0 = 1 with all n generations to go holds for every trial or for
    none, and is returned without building a head or opening a stream."""
    _require_trials(trials)
    require_no_extinction(env)
    if not M > 0.0:
        raise ValueError(f"M={M!r} must be > 0")
    if n < 1:
        raise ValueError(f"n={n!r} must be >= 1")
    tables = EnvTables(env)
    mu = compute_moments(env).mu

    def reached(logz: np.ndarray) -> np.ndarray:
        return tail_reached(logz, n, mu, M, x)

    hit, live = _decide(reached, np.zeros(1), n, math.log(env.k_max))
    if not live[0]:  # fixed at Z_0 = 1: every trial a hit, or none
        return _tail_estimate(trials if hit[0] else 0, trials, level, x, n)
    g = _head_depth(tables, n, trials)
    head = _KernelHead(g, _annealed_laws(env, g)[g])

    def run_block(b: int, size: int) -> tuple[int, bool]:
        return _tail_hits(tables, n, size, stream(seed, DOMAIN_TRAJ, b), head,
                          reached)

    parts = _map_blocks(run_block, trials, workers)
    return _tail_estimate(sum(hits for hits, _ in parts), trials, level, x, n,
                          any(approx for _, approx in parts))


def mc_logw_increments(env: EnvDistribution, n: int, trials: int, seed: int,
                       workers: int = 1) -> IncrementStats:
    """Means of |log W_{k+1} - log W_k| for k = 0..n-1: exact for k < g,
    sample means for k >= g.

    The increment is log Z_{k+1} - log Z_k - X_{k+1}, the per-generation
    deviation of actual growth from the environment's conditional mean.
    The head depth g = _increment_depth(model, n, trials) decides the
    split; no argument sets it. One kernel propagation gives
    delta_1 K^k for k <= min(g, n - 1), before the blocks. Rows k < g are
    oracle._increment_means of those laws, computed as one task in the same
    thread pool as the blocks, with stderr 0.0: not a sample, but exact
    within the bound oracle.exact_logw_increments states (sums of
    nonnegative terms, below 1e-12 relative on the binary model at g = 11).
    Each block draws Z_g from _KernelHead (delta_1 K^g) and steps
    generations g..n-1 from it, so rows k >= g are sample means with their
    standard errors. At g = n nothing is sampled and no stream is opened;
    at g = 0 each block steps every generation from Z_0 = 1.
    Blocks draw from DOMAIN_INCREMENTS, so a decay fit shares no stream with
    the mc_tail_logzn estimate it is checked against. The list also carries
    approx_sampling_used and head_depth.
    """
    _require_trials(trials)
    require_no_extinction(env)
    if n < 3:
        raise ValueError(f"n={n!r} must be >= 3")
    tables = EnvTables(env)
    g = _increment_depth(tables, n, trials)
    laws = _annealed_laws(env, min(g, n - 1))
    tasks = [functools.partial(_increment_means, env, laws[:g])]
    if g < n:
        head = _KernelHead(g, laws[g])

        def run_block(b: int, size: int) -> tuple[np.ndarray, np.ndarray, bool]:
            rng = stream(seed, DOMAIN_INCREMENTS, b)
            z = head.draw(rng, size)
            prev_logz = np.log(z)
            sums = np.empty(n - g)
            sums_sq = np.empty(n - g)
            approx = False
            for j, (col, z, gaussian) in enumerate(
                    _generations(tables, n - g, rng, z)):
                logz = np.log(z)
                inc = np.abs(logz - prev_logz - tables.X[col])
                sums[j] = inc.sum()
                sums_sq[j] = (inc * inc).sum()
                prev_logz = logz
                approx |= gaussian
            return sums, sums_sq, approx

        tasks += _block_tasks(run_block, trials)
    exact, *partials = _run(tasks, workers)
    stats = [IncrementStat(k=k, mean=mean, stderr=0.0)
             for k, mean in enumerate(exact)]
    for j in range(n - g):
        total = math.fsum(p[0][j] for p in partials)
        total_sq = math.fsum(p[1][j] for p in partials)
        mean = total / trials
        var = max(total_sq - trials * mean * mean, 0.0) / (trials - 1)
        stats.append(IncrementStat(k=g + j, mean=mean,
                                   stderr=math.sqrt(var / trials)))
    return IncrementStats(stats, any(p[2] for p in partials), g)


def fit_geometric_decay(increments: Iterable[tuple[int, float]]) -> DecayFit:
    """Least-squares line through (k, log mean): delta_hat = exp(slope),
    c_hat = exp(intercept). Zero means are excluded, not clamped; at least
    four strictly positive means are required."""
    pairs = [(int(item[0]), float(item[1])) for item in increments]
    positive = [(k, m) for k, m in pairs if m > 0.0]
    if len(positive) < 4:
        raise ValueError(
            f"need at least 4 strictly positive means to fit, got {len(positive)}")
    ks = np.array([k for k, _ in positive], dtype=np.float64)
    logs = np.log([m for _, m in positive])
    slope, intercept = np.polyfit(ks, logs, 1)
    residuals = logs - (slope * ks + intercept)
    ss_res = float(residuals @ residuals)
    centered = logs - logs.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(increments=tuple(pairs), c_hat=float(np.exp(intercept)),
                    delta_hat=float(np.exp(slope)), r2=r2)


def theorem1_candidates(fit: DecayFit) -> tuple[float, float]:
    """Empirical (C_hat, delta_hat) for the geometric tail bound.

    delta_hat is the fitted ratio; C_hat folds in the tail-sum aggregation
    factor 1/(1 - delta_hat). These are candidates read off one model run,
    not the theorem's existential constants.
    """
    if not 0.0 < fit.delta_hat < 1.0:
        raise ValueError(
            f"fit gives delta_hat={fit.delta_hat:.6g}, outside (0,1); no "
            "geometric-decay candidate exists")
    return fit.c_hat / (1.0 - fit.delta_hat), fit.delta_hat


def convergence_report(env: EnvDistribution, n_values: Sequence[int],
                       y_values: Sequence[float], trials: int, seed: int,
                       level: float = 0.95, workers: int = 1
                       ) -> list[TailEstimate]:
    """TailEstimates of P(|log Z_n / n - mu| >= y) over an (n, y) grid.

    Rows come out n-major, y-minor; threshold_x holds y. One trajectory set
    is shared by all y at a given n, and so is approx_sampling_used. The
    blocks of every horizon go to one thread pool, horizon by horizon in
    block order, so a horizon of one block runs beside the others. Each
    block returns its hit count per y and whether a draw was Gaussian, not
    its log Z_n, so a horizon holds no array over all its trials.
    """
    _require_trials(trials)
    require_no_extinction(env)
    if not n_values:
        raise ValueError("n_values must not be empty")
    for n in n_values:
        if n < 1:
            raise ValueError(f"n={n!r} must be >= 1")
    tables = EnvTables(env)
    mu = compute_moments(env).mu
    depths = [_head_depth(tables, n, trials) for n in n_values]
    laws = _annealed_laws(env, max(depths))
    tasks = []
    for n, g in zip(n_values, depths):
        def run_block(b: int, size: int, n: int = n,
                      head: _KernelHead = _KernelHead(g, laws[g])
                      ) -> tuple[list[int], bool]:
            logz, approx = _final_logz(tables, n, size,
                                       stream(seed, DOMAIN_TRAJ, b), head)
            deviations = np.abs(logz / n - mu)
            return [int(np.count_nonzero(deviations >= y - TIE_EPS))
                    for y in y_values], approx

        tasks += _block_tasks(run_block, trials)
    results = _run(tasks, workers)
    per_n = len(results) // len(n_values)
    rows = []
    for i, n in enumerate(n_values):
        parts = results[i * per_n:(i + 1) * per_n]
        approx = any(gaussian for _, gaussian in parts)
        for y, *block_hits in zip(y_values, *(hits for hits, _ in parts)):
            rows.append(_tail_estimate(sum(block_hits), trials, level,
                                       float(y), int(n), approx))
    return rows
