"""Exact laws of S_n and Z_n, computed without enumerating environment sequences.

Ground truth for bound-domination and Monte Carlo checks. Two routes avoid
the k^n sequences:

- S_n depends on a sequence only through how often each state occurs, so
  the walk tail sums over the C(n+k-1, k-1) state-count compositions with
  multinomial weights (cap 10^6 compositions).
- Under the annealed law Z_n is a Markov chain with kernel
  K = sum_s w_s T_s, where T_s maps z to the z-fold convolution of state s's
  offspring pmf (Athreya & Karlin, Ann. Math. Statist. 1971). Every law
  delta_1 K^k comes from one propagation of _annealed_laws, the package's
  only population DP, one generation at a time: the log Z_n tail
  P(Z_n >= c) propagates only the atoms below its first tail atom c and
  absorbs the rest, which Z, with p0 = 0, never leaves; E W_n uses weights
  w_s / m_s, the martingale increments E|log W_{k+1} - log W_k| take one
  dot product per k of delta_1 K^k with a table of E|log(S_z / (z m_s))|
  over the states (exact_logw_increments), and bpre.estimate's kernel heads
  draw Z_g from it. The population DP is capped by its kernel_work, the
  multiply-adds of its generation steps on the atoms it composes
  (MAX_KERNEL_WORK = 2^32, within which the binary {1, 2} model's uncut
  law reaches n = 16), checked once per call before any work.

A population law is a float64 array indexed by value; one generation step
evaluates the offspring pgf's powers weighted by the law in blocks of about
len^(2/3) atoms (Paterson and Stockmeyer's baby and giant steps: one
np.einsum for the blocks, one np.convolve per block after the first). Each
state's powers f^0..f^B, B the call's largest block, are the rows of one
matrix built once per call (_powers), which every step only reads.
_compose states its error bound (every atom within 9.1e-14 of the exact law
for the binary model at n = 8, while the atoms stay normal numbers). Tails
and E W_n are summed with math.fsum. There is no exact-rational mode and no
per-sequence route; the tests check the kernel against exact rationals and
against per-sequence laws mixed over the enumerated environment law
(tests/brute.py).

Every tail event, with its closed threshold and tie slack, is one TailEvent;
the Monte Carlo estimators decide with it too, so oracle and estimate agree
on every sample path.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .env import (EnvDistribution, EnvState, ModelMoments, ResourceCapError,
                  state_log_mean, state_mean)
from .simulate import require_no_extinction

TIE_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class TailEvent:
    """The event (stat - n*mu)/(n*M) >= x of a horizon-n statistic (S_n or
    log Z_n), or |(stat - n*mu)/(n*M)| >= x when two_sided.

    The tail is closed (>=). Exact-boundary atoms, such as the all-max-state
    sequence at x = 1 under M_tight, sit precisely at the threshold, where
    float summation order would otherwise decide inclusion by one ulp; the
    comparison therefore allows the slack TIE_EPS on the normalized scale.
    Gaps between distinct achievable atoms at feasible sizes are many orders
    of magnitude wider, and the slack direction only enlarges the reported
    tail, which is the conservative side for domination checks. Raises
    ValueError unless M > 0 and n >= 1.
    """
    n: int
    mu: float
    M: float
    x: float
    two_sided: bool = False

    def __post_init__(self):
        if not self.M > 0.0:
            raise ValueError(f"M={self.M!r} must be > 0")
        if self.n < 1:
            raise ValueError(f"n={self.n!r} must be >= 1")

    def reached(self, stat):
        """Whether stat is in the event, for a float stat or elementwise for
        an array of them."""
        dev = (stat - self.n * self.mu) / (self.n * self.M)
        if self.two_sided:
            dev = np.abs(dev)
        return dev >= self.x - TIE_EPS

    def first_atom(self, top: int) -> int:
        """The least population v in 1..top whose log v is in the upper tail,
        or top + 1 if none is, by integer bisection: log v and the
        normalized statistic are monotone in v."""
        lo, hi = 1, top + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.reached(math.log(mid)):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def decide(self, logz: np.ndarray, rest: int,
               log_kmax: float) -> tuple[np.ndarray, np.ndarray]:
        """(hit, open) masks of the upper tail for trials at log Z_k with
        rest = n - k generations to go. With p0 = 0, Z never decreases and
        grows at most k_max-fold a generation, so Z_k <= Z_n <= k_max^rest Z_k
        and the tail holds at log Z_n if it holds at log Z_k, and fails there
        if it fails at log Z_k + rest * log k_max. A trial that is neither a
        hit nor a miss is open. The rule is exact in integer arithmetic;
        float64 rounding moves a statistic by a few ulp, which can change a
        decision only for a bound within that of the threshold x - TIE_EPS."""
        hit = self.reached(logz)
        return hit, ~hit & self.reached(logz + rest * log_kmax)


MAX_COMPOSITIONS = 10 ** 6
# kernel_work of the two-state binary {1, 2} model at n = 16 is 3.0e9
# multiply-adds (E W_16 in about 0.8 s on a 2-CPU Xeon) and its n = 17 four
# times that; the bench's {1, 2, 3} model does 2.6e9 at n = 10 (0.7 s). The
# slowest calls within the cap, cut log Z_n tails near 4e9, take about 0.9-1.0 s.
MAX_KERNEL_WORK = 1 << 32


# --- S_n: state-count compositions ------------------------------------------

def _compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Every (c_1..c_k) of nonnegative counts summing to n (stars and bars)."""
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        edges = (-1, *bars, n + k - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def _frexp_products(factors: Iterable[float]) -> list[tuple[float, int]]:
    """Running products 1, f_1, f_1 f_2, ... as (mantissa, exponent) pairs, so
    that factorials and high powers neither overflow nor underflow."""
    m, e = 0.5, 1
    out = [(m, e)]
    for f in factors:
        m, de = math.frexp(m * f)
        e += de
        out.append((m, e))
    return out


def _multiset_sum(values: Sequence[float]) -> Callable[[Sequence[int]], float]:
    """f(counts): the correctly rounded sum of counts[i] copies of values[i],
    which is what math.fsum returns on the expanded multiset, in O(len(values)).

    The values become integers over one power-of-two denominator, so the
    exact sum is an integer and int / int division rounds it correctly.
    """
    ratios = [v.as_integer_ratio() for v in values]
    denom = max(d for _, d in ratios)
    nums = [a * (denom // d) for a, d in ratios]
    return lambda counts: sum(c * a for c, a in zip(counts, nums)) / denom


def exact_sn_tails(env: EnvDistribution, n: int, xs: Sequence[float], M: float,
                   mu: float) -> list[float]:
    """Exact P((S_n - n*mu)/(n*M) >= x) at each x in xs, in one pass.

    The event is TailEvent's normalized walk tail, the same one the Monte
    Carlo estimator counts; ties at the threshold are included. Each
    state-count composition's S_n is the correctly rounded sum of its
    expanded multiset of log-means -- the value math.fsum gives for every
    ordering of it -- so each tie decision matches complete enumeration bit
    for bit. Only the compositions in the widest tail, at the least x (a NaN
    x's tail is empty), get their probability n!/prod(c_s!) * prod(w_s^c_s),
    formed from running products in mantissa-exponent form; each tail is the
    math.fsum of those its event takes, correctly rounded in any order. Past
    MAX_COMPOSITIONS compositions it raises ResourceCapError before the pass;
    an empty xs gives [] without one, once M and n pass TailEvent's checks.
    """
    events = [TailEvent(n, mu, M, x) for x in xs]
    widest = min(events, key=lambda e: math.inf if math.isnan(e.x) else e.x,
                 default=TailEvent(n, mu, M, math.nan))
    if not events:
        return []
    k = len(env.states)
    count = math.comb(n + k - 1, k - 1)
    if count > MAX_COMPOSITIONS:
        raise ResourceCapError(
            f"{count} state-count compositions of n={n} exceeds the cap "
            f"{MAX_COMPOSITIONS}")
    walk_sum = _multiset_sum([state_log_mean(state) for state, _ in env.states])
    factorials = _frexp_products(range(1, n + 1))
    powers = [_frexp_products(itertools.repeat(mass, n)) for _, mass in env.states]
    stats, probs = [], []
    for counts in _compositions(n, k):
        s_n = walk_sum(counts)
        if widest.reached(s_n):
            m, e = factorials[n]
            for c, power in zip(counts, powers):
                (pm, pe), (fm, fe) = power[c], factorials[c]
                m = m * pm / fm
                e += pe - fe
            stats.append(s_n)
            probs.append(math.ldexp(m, e))
    stats, probs = np.array(stats), np.array(probs)
    return [math.fsum(probs[event.reached(stats)].tolist()) for event in events]


def exact_sn_tail(env: EnvDistribution, n: int, x: float, M: float, mu: float) -> float:
    """exact_sn_tails at the one threshold x."""
    return exact_sn_tails(env, n, [x], M, mu)[0]


# --- Z_n: the annealed kernel, one generation step at a time ------------------

def _offspring_array(state: EnvState) -> np.ndarray:
    """The state's offspring pmf as a float64 array indexed by family size."""
    entries = state.pmf.entries
    return np.array([entries.get(k, 0.0) for k in range(state.pmf.support[-1] + 1)])


# Entries of an offspring power, and atoms of a z-fold offspring law at either
# end of its support, below this are dropped, which keeps the numbers the
# kernel step and the increment table multiply normal: a product with a
# subnormal factor runs about a hundred times slower.
_ATOM_FLOOR = 2.0 ** -960


def _block_size(length: int) -> int:
    """B = ceil(length^(2/3)), the least B with B^3 >= length^2: _compose's
    block length on a law of `length` atoms."""
    square = length * length
    block = round(square ** (1 / 3))
    while block ** 3 < square:
        block += 1
    while (block - 1) ** 3 >= square:
        block -= 1
    return block


def _step_lengths(k_max: int, n: int, cut: int | None) -> Iterator[int]:
    """The atoms each of the n generations composes, delta_1 K^g reaching
    k_max^g, or at most the `cut` atoms below a cut; never falling."""
    top = 1
    for _ in range(n):
        yield top + 1 if cut is None else min(top + 1, cut)
        top *= k_max
        if cut is not None:
            top = min(top, cut)


def _powers(pmf: np.ndarray, block: int) -> np.ndarray:
    """f^0..f^block of the offspring pgf f with coefficients pmf, as the
    rows of one zero-padded (block + 1) x (block s + 1) matrix, s the
    largest family size: one np.convolve with pmf per power from f^2 on.
    Each nonzero entry of f^i is at least p^i, p the least nonzero pmf
    entry, so from the first i with p^i below _ATOM_FLOOR on (i = 481 for
    the binary {1, 2} states) entries below it are set to zero as each
    power is made, before the next power is made from it."""
    least = pmf[pmf > 0.0].min()  # least^i >= _ATOM_FLOOR up to i = floor_past
    floor_past = (math.inf if least == 1.0 else
                  math.log(_ATOM_FLOOR) / math.log(least))
    s = len(pmf) - 1
    rows = np.zeros((block + 1, block * s + 1))
    rows[0, 0] = 1.0
    power = rows[1, :s + 1] = pmf
    for i in range(2, block + 1):
        power = np.convolve(power, pmf)
        if i > floor_past:
            power[power < _ATOM_FLOOR] = 0.0
        rows[i, :len(power)] = power
    return rows


def _compose(dist: np.ndarray, rows: np.ndarray, lo: int,
             weight: float) -> np.ndarray:
    """weight times the law of the next generation when the current one has
    law dist and each individual has offspring law f (both indexed by value):
    the coefficients of sum_z weight dist[z] f(t)^z, f being the offspring
    pgf.

    rows is the matrix of the powers f^0..f^B' of f that _powers builds,
    for any B' at least this step's block length B, and lo is the least
    family size. _compose only reads rows and assigns to none of its
    arguments, so one matrix serves every generation of a state. The sum
    is evaluated in blocks (Paterson & Stockmeyer, SIAM J. Comput. 1973):
    with B = ceil(L^(2/3)) for L = len(dist), the baby steps form every
    block P_b = sum_{i<B} weight dist[bB + i] f^i in one np.einsum of the
    ceil(L / B) x B weighted coefficients with rows[:B] cut to their first
    W = (B - 1) s + 1 entries (s the largest family size), and the giant
    steps run Horner's rule over the blocks with the multiplier f^B =
    rows[B], P_0 + f^B (P_1 + f^B (P_2 + ...)), one np.convolve each. With
    p0 = 0, f^B = t^(B lo) g(t), so each giant step convolves with g alone
    and shifts the product by B lo, past the block or into it: about
    L^(1/3) numpy calls with long dot products, not one short convolution
    per atom. np.einsum without optimize runs numpy's own loops; no step is
    a BLAS matrix product, whose summation order can follow the thread
    count.

    Every product is of nonnegative numbers and every sum adds them up, so
    nothing cancels (an FFT would leave negative round-off in the far tail),
    adding an exact zero rounds nothing, and each atom's relative error is
    at most gamma_N = N u / (1 - N u), u = 2^-53, for N the most roundings
    on any one term. Let the offspring array have c nonzero entries spread
    over w = (largest - least family size), so f^i has at most i w + 1
    nonzero entries. Then f^i carries (i - 1) c roundings (each power's
    convolution adds a product and at most c - 1 sums), a baby-step term
    at most (B - 1) c + B (its power, one product and at most B - 1 sums in
    any order), and each giant step adds at most (B - 1) c + B w + 2 (f^B,
    one product, at most B w sums in the dot product with g and the
    block's sum). So
    N = (B - 1) c + B + (ceil(L / B) - 1) ((B - 1) c + B w + 2).
    Over n kernel generations with k states the terms take the sum of the
    steps' N plus k per generation for the weighted mixture (the weight's
    product and k - 1 sums): 819 for the two-state {1, 2} model at n = 8,
    a bound of 9.1e-14. The bound holds while products and sums stay normal
    numbers; a term that underflows to the subnormal range loses its
    relative accuracy. The power entries _powers drops, each below
    2^-960, take terms out of the sum: they lower the output's total mass
    by at most A ceil(L / B) B (B s + 1) 2^-960, A = weight sum(dist),
    which is at most twice the np.einsum's work times A 2^-960, so below
    A 2^-927 under MAX_KERNEL_WORK.
    """
    length, s = len(dist), (rows.shape[1] - 1) // (len(rows) - 1)
    block = _block_size(length)
    width = (block - 1) * s + 1
    coeffs = np.zeros(-(-length // block) * block)
    np.multiply(dist, weight, out=coeffs[:length])
    parts = np.einsum("bi,ik->bk", coeffs.reshape(-1, block), rows[:block, :width])
    shift = block * lo
    multiplier = rows[block, shift:block * s + 1]
    acc = parts[-1]
    for part in parts[-2::-1]:
        product = np.convolve(acc, multiplier)
        acc = np.zeros(shift + len(product))
        acc[:width] = part
        acc[shift:] += product
    return acc[:(length - 1) * s + 1]


def _compose_work(length: int, size: int, lo: int) -> int:
    """Multiply-adds of _compose on a law of `length` atoms and an offspring
    array of `size` entries, s = size - 1, least family size lo: the
    np.einsum takes the ceil(length / B) blocks times B times the
    W = (B - 1) s + 1 entries of a row; the giant steps' j-th np.convolve
    (j = 0..blocks-2) takes an accumulator of 1 + (B - 1 + j B) s entries
    times the 1 + B (s - lo) of f^B past its B lo leading zeros."""
    s, block = size - 1, _block_size(length)
    blocks = -(-length // block)
    baby = blocks * block * ((block - 1) * s + 1)
    giant = (1 + block * (s - lo)) * (
        (blocks - 1) * (1 + (block - 1) * s)
        + block * s * (blocks - 1) * (blocks - 2) // 2)
    return baby + giant


def _running_work(states: Sequence[EnvState], n: int,
                  cut: int | None = None) -> Iterator[int]:
    """kernel_work of the first 1, 2, ..., n generations, each composing at
    most the `cut` atoms below a cut when one is given. The powers are
    charged for the block length B of the generation reached: _powers makes
    each f^i, i = 2..B, by an np.convolve of 1 + (i - 1) s entries times
    size."""
    shapes = [(state.pmf.support[-1] + 1, state.pmf.support[0]) for state in states]
    k_max = max(size for size, _ in shapes) - 1
    total = 0
    for length in _step_lengths(k_max, n, cut):
        total += sum(_compose_work(length, size, lo) for size, lo in shapes)
        block = _block_size(length)
        yield total + sum(size * (block - 1 + (size - 1) * block * (block - 1) // 2)
                          for size, _ in shapes)


def kernel_work(states: Sequence[EnvState], n: int,
                cut: int | None = None) -> int:
    """Multiply-adds _compose does to push delta_1 through n generations of
    the kernel over the given states, summed over generations and states. A
    step's offspring array has (largest family size) + 1 entries whatever
    its zeros, the law after g generations reaches k_max^g, or holds `cut`
    atoms below a cut, and each state's powers are built once, up to the
    last generation's block length. The two-state binary {1, 2} model does
    3,016,441,616 at n = 16 without a cut."""
    total = 0
    for total in _running_work(states, n, cut):
        pass
    return total


def _check_kernel_work(states: Sequence[EnvState], n: int,
                       extra: Callable[[], int] = lambda: 0,
                       cut: int | None = None) -> None:
    """Raise ResourceCapError at the first generation whose running work
    (under the cut, if any) passes MAX_KERNEL_WORK, before any big-integer
    support size of a long horizon is formed, or if the whole kernel work
    plus extra() does; extra is called only once every generation is within
    the cap."""
    work = 0
    for work in _running_work(states, n, cut):
        if work > MAX_KERNEL_WORK:
            break
    else:
        work += extra()
    if work > MAX_KERNEL_WORK:
        raise ResourceCapError(
            f"population DP needs at least {work} multiply-adds, above "
            f"the cap {MAX_KERNEL_WORK}")


def _annealed_laws(env: EnvDistribution, n: int,
                   weights: Sequence[float] | None = None,
                   extra_work: Callable[[], int] = lambda: 0,
                   cut: int | None = None) -> list[np.ndarray]:
    """[delta_1 K^k for k = 0..n], K = sum_s weights[s] T_s (by default the
    state masses w_s: the annealed kernel), each indexed by value, from one
    propagation. Its kernel_work plus extra_work() (a caller's own work on
    the laws) is checked against MAX_KERNEL_WORK once, before any work.
    Each state's powers of its offspring pgf are built once for the call,
    up to the last generation's block length (_powers), and each generation
    composes every state's weighted step from them into one mixture array.
    The powers set the call's memory: exact_EWn of the binary {1, 2} model
    at n = 16 peaks at 35.8 MiB under tracemalloc, 32.1 MiB of it the two
    states' 1026 x 2051 matrices.

    With a cut c >= 1 and p0 = 0, Z never decreases, so mass at or above c
    stays there: each law holds the atoms below c and, once mass reaches c,
    P(Z_k >= c) at index c. A generation composes only the atoms below c
    and adds its atoms at or above c to that total with math.fsum, a sum of
    nonnegative terms that keeps its relative accuracy in a far tail.
    """
    states = [state for state, _ in env.states]
    _check_kernel_work(states, n, extra_work, cut)
    if weights is None:
        weights = [mass for _, mass in env.states]
    k_max = env.k_max
    largest = _block_size(max(_step_lengths(k_max, n, cut), default=1))
    powers = [(_powers(_offspring_array(state), largest), state.pmf.support[0])
              for state in states]
    laws = [np.array([0.0, 1.0])]
    for _ in range(n):
        prev = laws[-1]
        dist = prev[:cut]
        law = np.zeros((len(dist) - 1) * k_max + 1)
        for weight, (rows, lo) in zip(weights, powers):
            part = _compose(dist, rows, lo, weight)
            law[:len(part)] += part
        if cut is not None and max(len(prev), len(law)) > cut:
            law = np.append(law[:cut], math.fsum([*prev[cut:].tolist(),
                                                  *law[cut:].tolist()]))
        laws.append(law)
    return laws


def exact_logZn_tail(env: EnvDistribution, n: int, x: float,
                     moments: ModelMoments, M: float) -> float:
    """Exact P((log Z_n - n*mu)/(n*M) >= x) = P(Z_n >= c), c the first
    population in the tail (TailEvent.first_atom).

    It is 0.0 with no propagation when c passes the top atom k_max^n, else
    one propagation cut at c (_annealed_laws), whose work, capped at
    MAX_KERNEL_WORK, depends on the event through c, not on k_max^n. Needs
    p0 = 0 (ConfigError otherwise): only then does no mass leave the tail."""
    event = TailEvent(n, moments.mu, M, x)
    require_no_extinction(env)
    top = env.k_max ** n
    if not event.reached(math.log(top)):
        return 0.0
    # The last generation composes min(c, k_max^(n-1) + 1) atoms at a
    # multiply-add or more each, so the cap refuses any c past
    # k_max (MAX_KERNEL_WORK + 1); searching no further spares a far
    # horizon a bisection over the n log2(k_max) bits of top.
    reach = min(top, env.k_max * (MAX_KERNEL_WORK + 1))
    cut = event.first_atom(reach)
    return float(_annealed_laws(env, n, cut=cut)[n][cut])


def exact_EWn(env: EnvDistribution, n: int) -> float:
    """E W_n = E[Z_n / Pi_n], the mean of delta_1 (sum_s (w_s/m_s) T_s)^n.

    The martingale identity makes this 1; the kernel law enters the
    numerator, so the value closing to 1 within 1e-9 certifies the whole
    oracle chain.
    """
    if n < 1:
        raise ValueError(f"n={n!r} must be >= 1")
    weights = [mass / state_mean(state) for state, mass in env.states]
    law = _annealed_laws(env, n, weights)[n]
    return math.fsum((np.arange(len(law)) * law).tolist())


# --- E|log W_{k+1} - log W_k|: the annealed laws and one table per state ------

def _increment_table(state: EnvState, top: int) -> np.ndarray:
    """h(z) = E|log(S_z / (z m))| for z = 0..top (h(0) = 0), where S_z is
    the sum of z independent family sizes of the state and m its mean.

    The law of S_z is the z-fold convolution f^{*z} of the offspring pmf f,
    held on its support z lo..z hi (lo, hi the least and largest family
    sizes) and built by one np.convolve with f per z. Atoms below
    _ATOM_FLOOR at either end of it are dropped, so the atoms stay normal
    numbers (subnormal products run about a hundred times slower).
    """
    support = state.pmf.support
    lo, hi = support[0], support[-1]
    f = _offspring_array(state)[lo:]
    log_j = np.log(np.arange(1, top * hi + 1))  # log_j[j - 1] = log j
    log_m = state_log_mean(state)
    table = np.zeros(top + 1)
    law, first = np.ones(1), 0  # S_0 = 0
    for z in range(1, top + 1):
        law, first = np.convolve(law, f), first + lo
        if law[0] < _ATOM_FLOOR or law[-1] < _ATOM_FLOOR:
            kept = np.flatnonzero(law >= _ATOM_FLOOR)
            law, first = law[kept[0]:kept[-1] + 1], first + int(kept[0])
        dev = np.abs(log_j[first - 1:first - 1 + len(law)] - (math.log(z) + log_m))
        table[z] = (law * dev).sum()
    return table


def _table_work(states: Iterable[EnvState], top: int) -> int:
    """Multiply-adds of _increment_table for each state up to z = top when
    no atom is dropped: the np.convolve for z takes the (z - 1) w + 1 atoms
    of f^{*(z-1)} times the w + 1 entries of f, and the sum for z the
    z w + 1 products, w = largest - least family size."""
    total = 0
    for state in states:
        w = state.pmf.support[-1] - state.pmf.support[0]
        total += ((w + 1) * (w * top * (top - 1) // 2 + top)
                  + w * top * (top + 1) // 2 + top)
    return total


def _increment_means(env: EnvDistribution, laws: Sequence[np.ndarray]
                    ) -> list[float]:
    """sum_z P(Z_k = z) sum_s w_s h_s(z) for each law of Z_k given, in
    order (the last is the longest), h_s from _increment_table up to the last
    law's top atom; each sum over z is math.fsum of its products."""
    if not laws:
        return []
    top = len(laws[-1]) - 1
    per_z = sum(mass * _increment_table(state, top) for state, mass in env.states)
    return [math.fsum((law * per_z[:len(law)]).tolist()) for law in laws]


def exact_logw_increments(env: EnvDistribution, g: int) -> list[float]:
    """E|log W_{k+1} - log W_k| for k = 0..g-1 from the annealed law.

    The increment is log Z_{k+1} - log Z_k - X_{k+1}. Given Z_k = z and
    state s in generation k+1, Z_{k+1} is S^s_z, the sum of z family sizes
    of s, so E|Delta_k| = sum_z P(Z_k = z) sum_s w_s h_s(z), with
    h_s(z) = E|log(S^s_z / (z m_s))| (_increment_table). The table does not
    depend on k: it is built once, up to the top atom k_max^(g-1) of
    delta_1 K^(g-1), and the laws delta_1 K^k, k < g, come from one
    propagation (_annealed_laws). Needs p0 = 0, else log Z_k is -inf with
    positive probability. The kernel_work of the g - 1 generations plus the
    tables' _table_work (4,037,932 multiply-adds for the binary {1, 2}
    model at g = 11) is capped at MAX_KERNEL_WORK, checked before any work.

    Error. E|Delta_k| is a sum of nonnegative terms
    P(Z_k = z) w_s f_s^{*z}(j) |d|, d = log j - (log z + log m_s), so, as in
    _compose, nothing cancels and the roundings on each term add up, u =
    2^-53: the kernel atom's count over k generations (_compose's N per
    step plus the mixture's roundings), at most (z - 1) c for f_s^{*z}(j)
    (c the nonzero offspring entries, w their spread), z w + 1 for the
    product with |d| and the sum over j, S for the weight w_s and the sum
    over the S states, and 2 for the product with the atom and math.fsum.
    With each logarithm within one ulp, d is within 6 u log(hi top)
    absolutely, hi the largest family size and top = k_max^(g-1). So the
    value is within gamma_N relative plus 6 u log(hi top) absolute of the
    exact mean, N the largest such count, while the atoms stay normal
    numbers; the atoms dropped below _ATOM_FLOOR move it by less than
    top^2 hi 2^-960 log(hi top), far below a double's resolution of any
    positive mean. For the binary {1, 2} model at g = 11 (N = 6315) that is
    at most 7.0e-13 relative plus 5.1e-15 absolute, on means of 0.040-0.26:
    below 1e-12 relative.
    """
    if g < 1:
        raise ValueError(f"g={g!r} must be >= 1")
    require_no_extinction(env)
    laws = _annealed_laws(env, g - 1, extra_work=lambda: _table_work(
        [state for state, _ in env.states], env.k_max ** (g - 1)))
    return _increment_means(env, laws)
