"""Independent reference values for the benchmark's output checks.

Nothing here imports bpre. Each value is recomputed from a model config
(the same JSON the program reads) by a different route than the program
takes:

- the S_n tail of a two-state model is a binomial sum over the number of
  generations spent in the higher-mean state, instead of an enumeration of
  all environment sequences;
- the annealed law of Z_n is the row vector delta_1 K^n of the Markov kernel
  K = sum_s w_s T_s, where T_s(z, .) is the z-fold convolution of state s's
  offspring pmf, instead of a mixture over enumerated sequences;
- H_n(x, v) is the paper's product formula evaluated as written;
- E|log Z_1 - X_1| is a finite sum over the first generation.

Tail events use the same closed-tail slack as the program: a statistic counts
as reaching x when it is >= x - TIE_EPS.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TIE_EPS = 1e-9


@dataclass(frozen=True)
class Model:
    """A config reduced to what the references need: per-state mass and pmf."""

    masses: tuple[float, ...]
    pmfs: tuple[dict[int, float], ...]

    @classmethod
    def from_config(cls, doc: dict) -> "Model":
        if doc["model"] == "binary":
            points = doc["support"]
            return cls(tuple(float(pt["mass"]) for pt in points),
                       tuple({1: float(pt["p"]), 2: 1.0 - float(pt["p"])}
                             for pt in points))
        states = doc["states"]
        return cls(tuple(float(st["mass"]) for st in states),
                   tuple({int(k): float(v) for k, v in st["offspring"].items()}
                         for st in states))

    @property
    def means(self) -> list[float]:
        return [sum(k * p for k, p in pmf.items()) for pmf in self.pmfs]

    @property
    def log_means(self) -> list[float]:
        return [math.log(m) for m in self.means]

    @property
    def mu(self) -> float:
        return math.fsum(w * x for w, x in zip(self.masses, self.log_means))

    @property
    def sigma(self) -> float:
        mu = self.mu
        return math.sqrt(math.fsum(w * (x - mu) ** 2
                                   for w, x in zip(self.masses, self.log_means)))

    @property
    def k_max(self) -> int:
        return max(k for pmf in self.pmfs for k, p in pmf.items() if p > 0.0)

    def M(self, kind: str) -> float:
        """The a.s. bound on X - mu: ess-sup ('tight') or log k_max ('paper')."""
        top = max(self.log_means) if kind == "tight" else math.log(self.k_max)
        return top - self.mu


def sn_tail_two_state(model: Model, n: int, x: float, M: float) -> float:
    """P((S_n - n mu)/(n M) >= x) for a two-state environment.

    S_n = j X_hi + (n - j) X_lo where j ~ Bin(n, w_hi) counts the generations
    spent in the higher-mean state.
    """
    if len(model.masses) != 2:
        raise ValueError("closed form needs exactly two states")
    (w_lo, w_hi), (x_lo, x_hi) = model.masses, model.log_means
    if x_lo > x_hi:
        w_lo, w_hi, x_lo, x_hi = w_hi, w_lo, x_hi, x_lo
    mu = model.mu
    terms = [math.comb(n, j) * w_hi ** j * w_lo ** (n - j)
             for j in range(n + 1)
             if (j * x_hi + (n - j) * x_lo - n * mu) / (n * M) >= x - TIE_EPS]
    return math.fsum(terms)


def H_paper(n: int, x: float, v: float) -> float:
    """H_n(x, v) = [(v^2/(x+v^2))^(x+v^2) (n/(n-x))^(n-x)]^(n/(n+v^2)) on
    0 <= x < n, its limit (v^2/(n+v^2))^n at x = n, and 0 beyond n."""
    w = v * v
    if x > n:
        return 0.0
    if x == n:
        return (w / (n + w)) ** n
    base = (w / (x + w)) ** (x + w) * (n / (n - x)) ** (n - x)
    return base ** (n / (n + w))


def _convolution_rows(pmf: dict[int, float], z_values: np.ndarray, width: int):
    """Yield (z, law of the sum of z offspring) for ascending z, as arrays of
    length `width`, by repeated convolution with the one-individual pmf."""
    one = np.zeros(max(pmf) + 1)
    for k, p in pmf.items():
        one[k] = p
    power = np.array([1.0])
    order = 0
    for z in z_values:
        while order < z:
            power = np.convolve(power, one)
            order += 1
        row = np.zeros(width)
        row[:power.size] = power
        yield int(z), row


def annealed_law(model: Model, n: int, weights=None) -> np.ndarray:
    """delta_1 K^n with K = sum_s weights_s T_s; entry z is P(Z_n = z).

    weights default to the state masses (the annealed law). With
    weights_s = w_s / m_s the vector's first moment is E W_n.
    """
    weights = model.masses if weights is None else weights
    k_max = model.k_max
    dist = np.zeros(2)
    dist[1] = 1.0
    for _ in range(n):
        width = (dist.size - 1) * k_max + 1
        nxt = np.zeros(width)
        support = np.nonzero(dist)[0]
        for w, pmf in zip(weights, model.pmfs):
            for z, row in _convolution_rows(pmf, support, width):
                nxt += w * dist[z] * row
        dist = nxt
    return dist


def logzn_tail(model: Model, n: int, x: float, M: float) -> float:
    """P((log Z_n - n mu)/(n M) >= x) from the annealed law."""
    law = annealed_law(model, n)
    z = np.arange(1, law.size)
    hit = (np.log(z) - n * model.mu) / (n * M) >= x - TIE_EPS
    return math.fsum(law[1:][hit])


def deviation_tail(model: Model, n: int, y: float) -> float:
    """P(|log Z_n / n - mu| >= y) from the annealed law."""
    law = annealed_law(model, n)
    z = np.arange(1, law.size)
    hit = np.abs(np.log(z) / n - model.mu) >= y - TIE_EPS
    return math.fsum(law[1:][hit])


def mean_W(model: Model, n: int) -> float:
    """E W_n = delta_1 (sum_s (w_s/m_s) T_s)^n . z, which is 1 exactly."""
    weights = [w / m for w, m in zip(model.masses, model.means)]
    law = annealed_law(model, n, weights)
    return math.fsum(law * np.arange(law.size))


def first_increment_mean(model: Model) -> float:
    """E|log Z_1 - X_1|: the k = 0 increment of log W, from Z_0 = 1."""
    return math.fsum(
        w * math.fsum(p * abs(math.log(k) - x) for k, p in pmf.items() if p > 0.0)
        for w, pmf, x in zip(model.masses, model.pmfs, model.log_means))
