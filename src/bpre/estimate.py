"""Monte Carlo estimation of tail probabilities and martingale-increment
decay, with exact binomial confidence intervals and geometric-decay fitting.

Trials are partitioned into fixed blocks of BLOCK_TRIALS; block b draws from
the Philox stream keyed by (seed, domain, b) regardless of how many workers
process the blocks, and partial results are reduced in block order. Estimates
are therefore bit-identical for any worker count. Within a block the draw
order is pinned: the environment uniform matrix first, then per generation
one offspring pass per state in declaration order. Each pass is one call of
bpre.simulate.offspring on a float64 population vector, which fixes the draws
inside it (exact binomial draws before Gaussian-approximate ones). The
vector form is the same at every horizon: populations are exact integers
below 2^53 and round at 1e-16 relative above, far inside TIE_EPS and the
Gaussian draws' own error (every draw above DEFAULT_EXACT_THRESHOLD = 2^32 is
Gaussian). Populations past DEFAULT_POPULATION_CAP raise ResourceCapError.
Neither constant is a parameter.

Tail events are decided by oracle.tail_reached, the normalized statistic and
TIE_EPS closed-tail rule of the exact oracle, so the two agree on every
sample path.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .env import EnvDistribution, ResourceCapError, compute_moments
from .oracle import TIE_EPS, tail_reached
from .simulate import (DEFAULT_POPULATION_CAP, DOMAIN_SN, DOMAIN_TRAJ,
                       EnvTables, offspring, require_no_extinction, stream)

BLOCK_TRIALS = 16384

_POPULATION_CAP = float(DEFAULT_POPULATION_CAP)

MIN_TRIALS = 1000


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

    def __post_init__(self) -> None:
        if not 0 <= self.hits <= self.trials:
            raise ValueError(f"hits={self.hits} outside [0, {self.trials}]")
        if not self.ci_low <= self.point <= self.ci_high:
            raise ValueError("confidence interval does not bracket the point estimate")


class IncrementStat(NamedTuple):
    k: int
    mean: float
    stderr: float


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


def binomial_ci(hits: int, trials: int, level: float) -> tuple[float, float]:
    """Exact two-sided equal-tailed (Clopper-Pearson) binomial interval.

    Beta-quantile characterization, with the quantile taken straight from the
    inverse regularized incomplete beta function (what scipy.stats.beta.ppf
    wraps); the boundary cases use the closed forms (alpha/2)^(1/trials) and
    1 - (alpha/2)^(1/trials).
    """
    # imported here so that `import bpre` does not load scipy.special
    from scipy.special import betaincinv
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
        low = float(betaincinv(hits, trials - hits + 1, half_alpha))
    if hits == trials:
        high = 1.0
    elif hits == 0:
        # 1 - (alpha/2)^(1/trials) via expm1: the direct subtraction loses
        # ~5 digits to cancellation once trials is large.
        high = -math.expm1(math.log(half_alpha) / trials)
    else:
        high = float(betaincinv(hits + 1, trials - hits, 1.0 - half_alpha))
    return low, high


def _blocks(trials: int) -> list[tuple[int, int]]:
    return [(b, min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS))
            for b in range((trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS)]

def _map_blocks(fn, trials: int, workers: int) -> list:
    """Run fn(block_index, block_size) over all blocks, results in block order."""
    blocks = _blocks(trials)
    if workers <= 1:
        return [fn(b, size) for b, size in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda pair: fn(*pair), blocks))


def _require_trials(trials: int) -> None:
    if trials < MIN_TRIALS:
        raise ValueError(f"insufficient trials: {trials} < {MIN_TRIALS}")


def _tail_estimate(hits: int, trials: int, level: float, x: float,
                   n: int) -> TailEstimate:
    low, high = binomial_ci(hits, trials, level)
    return TailEstimate(hits=hits, trials=trials, point=hits / trials,
                        ci_low=low, ci_high=high, level=level,
                        threshold_x=x, n=n)


def mc_tail_sn(env: EnvDistribution, n: int, x: float, M: float, trials: int,
               seed: int, level: float = 0.99, workers: int = 1) -> TailEstimate:
    """Estimate P((S_n - n*mu)/(n*M) >= x) from environment draws alone.

    S_n needs no offspring sampling, so a trial is just n state picks.
    """
    _require_trials(trials)
    if not M > 0.0:
        raise ValueError(f"M={M!r} must be > 0")
    if n < 1:
        raise ValueError(f"n={n!r} must be >= 1")
    tables = EnvTables(env)
    mu = compute_moments(env).mu

    def run_block(b: int, size: int) -> int:
        rng = stream(seed, DOMAIN_SN, b)
        idx = tables.pick_states(rng.random((size, n)))
        s_n = tables.X[idx].sum(axis=1)
        return int(np.count_nonzero(tail_reached(s_n, n, mu, M, x)))

    return _tail_estimate(sum(_map_blocks(run_block, trials, workers)),
                          trials, level, x, n)


def _generations(tables: EnvTables, n: int, size: int, rng: np.random.Generator):
    """Step a block of float64 populations from Z_0 = 1 in the pinned draw order.

    Yields (state index per trial, Z) after each generation; Z is updated in
    place by the next generation. Z is exact below 2^53 and rounds at 1e-16
    relative above; the environment uniforms are mapped to states one
    generation column at a time, so no (size, n) index matrix is built.
    Raises ResourceCapError once a population passes DEFAULT_POPULATION_CAP,
    well before float64 overflows.
    """
    u = rng.random((size, n))
    z = np.ones(size)
    for k in range(n):
        col = tables.pick_states(u[:, k])
        for s, sampler in enumerate(tables.samplers):
            sel = np.nonzero(col == s)[0]
            if sel.size:
                z[sel] = offspring(z[sel], sampler, rng)
        top = z.max()
        if top > _POPULATION_CAP:
            raise ResourceCapError(
                f"population reached {int(top).bit_length()} bits, cap is "
                f"{DEFAULT_POPULATION_CAP.bit_length() - 1} bits")
        yield col, z


def _final_logz(tables: EnvTables, n: int, size: int,
                rng: np.random.Generator) -> np.ndarray:
    """log Z_n for a block of trials: the log of _generations' last Z."""
    for _, z in _generations(tables, n, size, rng):
        pass
    return np.log(z)


def mc_tail_logzn(env: EnvDistribution, n: int, x: float, M: float, trials: int,
                  seed: int, level: float = 0.99, workers: int = 1) -> TailEstimate:
    """Estimate P((log Z_n - n*mu)/(n*M) >= x) from full trajectories."""
    _require_trials(trials)
    require_no_extinction(env)
    if not M > 0.0:
        raise ValueError(f"M={M!r} must be > 0")
    if n < 1:
        raise ValueError(f"n={n!r} must be >= 1")
    tables = EnvTables(env)
    mu = compute_moments(env).mu

    def run_block(b: int, size: int) -> int:
        logz = _final_logz(tables, n, size, stream(seed, DOMAIN_TRAJ, b))
        return int(np.count_nonzero(tail_reached(logz, n, mu, M, x)))

    return _tail_estimate(sum(_map_blocks(run_block, trials, workers)),
                          trials, level, x, n)


def mc_logw_increments(env: EnvDistribution, n: int, trials: int, seed: int,
                       workers: int = 1) -> list[IncrementStat]:
    """Sample means of |log W_{k+1} - log W_k| for k = 0..n-1.

    The increment is log Z_{k+1} - log Z_k - X_{k+1}, the per-generation
    deviation of actual growth from the environment's conditional mean.
    """
    _require_trials(trials)
    require_no_extinction(env)
    if n < 3:
        raise ValueError(f"n={n!r} must be >= 3")
    tables = EnvTables(env)

    def run_block(b: int, size: int) -> tuple[np.ndarray, np.ndarray]:
        rng = stream(seed, DOMAIN_TRAJ, b)
        prev_logz = np.zeros(size)
        sums = np.empty(n)
        sums_sq = np.empty(n)
        for k, (col, z) in enumerate(_generations(tables, n, size, rng)):
            logz = np.log(z)
            inc = np.abs(logz - prev_logz - tables.X[col])
            sums[k] = inc.sum()
            sums_sq[k] = (inc * inc).sum()
            prev_logz = logz
        return sums, sums_sq

    partials = _map_blocks(run_block, trials, workers)
    stats = []
    for k in range(n):
        total = math.fsum(p[0][k] for p in partials)
        total_sq = math.fsum(p[1][k] for p in partials)
        mean = total / trials
        var = max(total_sq - trials * mean * mean, 0.0) / (trials - 1)
        stats.append(IncrementStat(k=k, mean=mean, stderr=math.sqrt(var / trials)))
    return stats


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
    is shared by all y at a given n.
    """
    _require_trials(trials)
    require_no_extinction(env)
    tables = EnvTables(env)
    mu = compute_moments(env).mu
    rows = []
    for n in n_values:
        if n < 1:
            raise ValueError(f"n={n!r} must be >= 1")

        def run_block(b: int, size: int, n: int = n) -> np.ndarray:
            return _final_logz(tables, n, size, stream(seed, DOMAIN_TRAJ, b))

        logz_parts = _map_blocks(run_block, trials, workers)
        deviations = np.abs(np.concatenate(logz_parts) / n - mu)
        for y in y_values:
            hits = int(np.count_nonzero(deviations >= y - TIE_EPS))
            rows.append(_tail_estimate(hits, trials, level, float(y), int(n)))
    return rows
