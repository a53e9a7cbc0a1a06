"""Hoeffding-type tail bound H_n(x, v): log-space evaluation, derivative,
relaxation, its rounding bound eps_H, and the geometric tail bound
C*delta^m/(M*sqrt(n)).

Everything is computed on log H and exponentiated last; the direct product
form underflows for moderate parameters. The variance parameter enters only
through w = v^2, and w is formed once so that identities like H(n, 0, v) = 1
hold exactly in floating point, not just up to rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .env import gamma


@dataclass(frozen=True)
class BoundQuery:
    """Evaluation point: horizon n, standardized threshold x, variance v."""

    n: int
    x: float
    v: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"n={self.n!r} must be a positive integer")
        if not (math.isfinite(self.x) and self.x >= 0.0):
            raise ValueError(f"x={self.x!r} must be finite and >= 0")
        if not (math.isfinite(self.v) and self.v > 0.0):
            raise ValueError(f"v={self.v!r} must be finite and > 0")


@dataclass(frozen=True)
class Theorem1Params:
    """Parameters of the geometric tail bound: C * delta^m / (M * sqrt(n))."""

    n: int
    m: int
    M: float
    C: float
    delta: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n={self.n!r} must be a positive integer")
        if not isinstance(self.m, int) or not 1 <= self.m <= self.n:
            raise ValueError(f"m={self.m!r} must be an integer in [1, n]")
        if not self.M > 0.0:
            raise ValueError(f"M={self.M!r} must be > 0")
        if not self.C > 0.0:
            raise ValueError(f"C={self.C!r} must be > 0")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta={self.delta!r} must be in (0,1)")


def log_H(q: BoundQuery) -> float:
    """log of H_n(x, v), -inf where the indicator kills the bound (x > n).

    At x = n the factor (n/(n-x))^(n-x) is the 0^0 form; we take its
    continuous limit 1, giving H_n(n, v) = (v^2/(n+v^2))^n. The literal
    convention H_n(n, v) = 1 would break monotonicity in x.
    """
    n, x, w = float(q.n), q.x, q.v * q.v
    if x > n:
        return -math.inf
    if x == n:
        return n * (math.log(w) - math.log(n + w))
    term_var = (x + w) * (math.log(w) - math.log(x + w))
    term_count = (n - x) * (math.log(n) - math.log(n - x))
    return (n / (n + w)) * (term_var + term_count)


def H(q: BoundQuery) -> float:
    """The bound itself, exp(log_H); 0 beyond the indicator."""
    lh = log_H(q)
    return 0.0 if lh == -math.inf else math.exp(lh)


def H_upper(x: float, v: float) -> float:
    """Relaxation e^x * (v^2/(x+v^2))^(x+v^2), an upper bound for every H_n."""
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"x={x!r} must be finite and >= 0")
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"v={v!r} must be finite and > 0")
    w = v * v
    return math.exp(x + (x + w) * (math.log(w) - math.log(x + w)))


def dH_dx(q: BoundQuery) -> float:
    """Partial derivative of H in x on [0, n): (n/(n+v^2)) * H * log(...).

    Zero only at x = 0, strictly negative on (0, n); undefined at x >= n.
    """
    n, x, w = float(q.n), q.x, q.v * q.v
    if x >= n:
        raise ValueError(f"dH_dx needs 0 <= x < n, got x={x:g}, n={q.n}")
    ratio = (w * (n - x)) / (n * (w + x))
    return (n / (n + w)) * H(q) * math.log(ratio)


def sn_tail_bound(n: int, x: float, sigma: float, M: float) -> float:
    """Certified upper bound H_n(x, v_n) on P((S_n - n*mu)/M >= x), with
    v_n = sqrt(n) * sigma / M."""
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma={sigma!r} must be finite and > 0")
    if not (math.isfinite(M) and M > 0.0):
        raise ValueError(f"M={M!r} must be finite and > 0")
    v = math.sqrt(n) * sigma / M
    return H(BoundQuery(n=n, x=x, v=v))


def _log_H_rounding(n: float, x: float, w: float) -> float:
    """A bound on |log_H as computed - log H_n(x, v)| at w = v^2 as given,
    from the roundings log_H takes in turn. Each step's error is bounded
    by its computed value: one arithmetic rounding by gamma_1 of it, a log
    (taken within one ulp) by gamma_2 of it, and log of a rounded sum by
    gamma_1 more, since log(1 + d) <= gamma_1 for |d| <= u."""
    g1, g2 = gamma(1), gamma(2)
    lw = math.log(w)
    if x == n:
        ls = math.log(n + w)
        d = lw - ls
        return g1 * abs(n * d) + n * (g1 * abs(d) + g2 * (abs(lw) + abs(ls))
                                      + g1)

    def term(s: float, la: float, lb: float) -> float:
        # s * (la - lb), la exact up to g2 |la|, lb = log of a rounded sum
        d = la - lb
        e = g1 * abs(d) + g2 * (abs(la) + abs(lb)) + g1
        return g1 * abs(s * d) + g1 * s * abs(d) + (1.0 + g1) * s * e

    lxw = math.log(x + w)
    ln, lnx = math.log(n), math.log(n - x)
    tv = (x + w) * (lw - lxw)
    tc = (n - x) * (ln - lnx)
    e_sum = g1 * abs(tv + tc) + term(x + w, lw, lxw) + term(n - x, ln, lnx)
    # the factor n / (n + w) <= 1 adds gamma_3 of |tv + tc|
    return gamma(3) * abs(tv + tc) + e_sum


def sn_tail_bound_eps(n: int, x: float, sigma2: float, M: float,
                      sigma2_err: float, M_err: float) -> float:
    """eps_H: the relative rounding bound of bound = sn_tail_bound(n, x,
    sqrt(sigma2), M). sigma2 and M are moments as env.compute_moments gives
    them, within sigma2_err and M_err of the exact moments
    (env.moment_rounding), and H_n(x, v_n) at the exact moments is at most
    bound * (1.0 + eps_H) as float64 computes it: a tail at or below that
    is certified dominated.

    Derivation. H is nondecreasing in w = v^2, and
    d log H / d log w = (w L + n (x - w log(1 + x/w))) / (n + w) with
    L = -log H >= 0, which is at most n x / (n + w): equality at x = n.
    - w = n sigma2 / M^2 as computed carries gamma_9 (two square roots,
      a product, a quotient, the square), and the exact w is at most
      w (1 + r_s) / ((1 - r_M)^2 (1 - gamma_9)) with r_s = sigma2_err /
      sigma2 and r_M = M_err / M. So log H at the exact w is at most
      log H at the computed w plus E_w = n x / (n + w) * lam, lam the log
      of that factor.
    - log_H's own roundings add E_log (_log_H_rounding), exp one ulp
      (gamma_2), and the product bound * (1.0 + eps_H) two more roundings,
      with one to spare for this function's own float64 arithmetic, whose
      error is O(u eps_H): gamma_3 in all.
    So 1 + eps_H = exp(E_w + E_log) (1 + gamma_2) (1 + gamma_3). Past the
    indicator (x > n) H is exactly 0 and eps_H is 0. A bound that underflows
    below the normal range has no relative bound: eps_H is inf.
    """
    q = BoundQuery(n=n, x=x, v=math.sqrt(n) * math.sqrt(sigma2) / M)
    if x > n:
        return 0.0
    if H(q) < 2.0 ** -1022:
        return math.inf
    nf, w = float(n), q.v * q.v
    lam = (math.log1p(sigma2_err / sigma2) - 2.0 * math.log1p(-M_err / M)
           - math.log1p(-gamma(9)))
    e_w = nf * x / (nf + w) * lam
    return math.expm1(e_w + _log_H_rounding(nf, x, w) + math.log1p(gamma(2))
                      + math.log1p(gamma(3)))


def theorem1_bound(p: Theorem1Params) -> float:
    """C * delta^m / (M * sqrt(n)); independent of the threshold x >= 3."""
    return p.C * p.delta ** p.m / (p.M * math.sqrt(p.n))
