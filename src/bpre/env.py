"""Random environment model: states, offspring laws, moments, assumption checks.

An environment is a finite-support law over states, each state carrying a
finite-support offspring pmf. Everything downstream (simulation, bounds,
oracles) is driven by the per-state mean m = sum(k * p_k) and its log X.
All checks here are exact evaluations over the finite support, up to float
rounding; no sampling is involved.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

MASS_TOL = 1e-12

DEFAULT_P = 2.0
DEFAULT_Q = 3.0

# unit roundoff of float64: one rounding moves a value by at most this,
# relative
UNIT_ROUNDOFF = 2.0 ** -53


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), which bounds the relative error of k
    compounded roundings (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, Lemma 3.1)."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


class ConfigError(ValueError):
    """Malformed or invalid environment configuration."""


class ResourceCapError(RuntimeError):
    """A hard resource cap was hit: state-count compositions, kernel work or
    population."""


@dataclass(frozen=True)
class OffspringPmf:
    """Finite-support offspring distribution: family size k -> probability.
    Masses that sum to 1 within MASS_TOL are stored divided by their fsum,
    so every route reads one probability vector."""

    entries: dict[int, float]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ConfigError("offspring pmf is empty")
        clean: dict[int, float] = {}
        for k, mass in sorted(self.entries.items()):
            if not isinstance(k, int) or isinstance(k, bool) or k < 0:
                raise ConfigError(f"offspring size {k!r} is not a nonnegative integer")
            if not (mass >= 0.0) or not math.isfinite(mass):
                raise ConfigError(f"offspring mass for k={k} is {mass!r}, must be >= 0")
            clean[k] = float(mass)
        total = math.fsum(clean.values())
        if abs(total - 1.0) > MASS_TOL:
            raise ConfigError(f"offspring masses sum to {total:g}")
        if not any(k >= 1 and p > 0.0 for k, p in clean.items()):
            raise ConfigError("offspring pmf has no positive mass on k >= 1")
        object.__setattr__(self, "entries",
                           {k: mass / total for k, mass in clean.items()})

    @property
    def support(self) -> tuple[int, ...]:
        """Family sizes with positive mass, ascending."""
        return tuple(k for k, p in self.entries.items() if p > 0.0)

    @property
    def mean(self) -> float:
        return math.fsum(k * p for k, p in self.entries.items())

    @property
    def p0(self) -> float:
        return self.entries.get(0, 0.0)


@dataclass(frozen=True)
class EnvState:
    """One realized environment value: a label and its offspring law."""

    label: str
    pmf: OffspringPmf

    def __post_init__(self) -> None:
        if not self.label:
            raise ConfigError("state label is empty")


@dataclass(frozen=True)
class EnvDistribution:
    """Finite-support law over environment states, drawn i.i.d. per generation.
    Masses that sum to 1 within MASS_TOL are stored divided by their fsum,
    like OffspringPmf's."""

    states: tuple[tuple[EnvState, float], ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise ConfigError("environment has no states")
        object.__setattr__(self, "states", tuple(self.states))
        labels = [s.label for s, _ in self.states]
        if len(set(labels)) != len(labels):
            raise ConfigError("state labels are not unique")
        for state, mass in self.states:
            if not (0.0 < mass <= 1.0):
                raise ConfigError(f"state {state.label!r} has mass {mass:g}, must be in (0,1]")
        total = math.fsum(mass for _, mass in self.states)
        if abs(total - 1.0) > MASS_TOL:
            raise ConfigError(f"masses sum to {total:g}")
        object.__setattr__(self, "states", tuple(
            (state, mass / total) for state, mass in self.states))

    @property
    def k_max(self) -> int:
        """Largest family size with positive mass across all states."""
        return max(max(s.pmf.support) for s, _ in self.states)


def require_no_extinction(env: EnvDistribution) -> None:
    """Raise ConfigError if any state has p0 > 0."""
    bad = [s.label for s, _ in env.states if s.pmf.p0 > 0.0]
    if bad:
        raise ConfigError(
            f"extinction possible (p0 > 0) in states: {', '.join(bad)}; "
            "all tail/martingale claims assume p0 = 0")


@dataclass(frozen=True)
class ModelMoments:
    """Moments of X = log m(state) under the environment law, plus H1 constants.

    M_tight is ess-sup(X) - mu, the tightest constant satisfying H1; M_paper
    is log(k_max) - mu, always valid since m <= k_max.
    """

    mu: float
    sigma2: float
    M_tight: float
    M_paper: float
    per_state: tuple[tuple[str, float, float], ...]  # (label, m, X)

    def __post_init__(self) -> None:
        if self.sigma2 > 0.0 and not self.M_tight > 0.0:
            raise ValueError("sigma2 > 0 requires M_tight > 0")


@dataclass(frozen=True)
class CheckResult:
    check: str
    passed: bool
    value: float
    message: str

    def to_json(self) -> dict:
        return {"check": self.check, "pass": self.passed, "value": self.value,
                "message": self.message}


@dataclass(frozen=True)
class AssumptionReport:
    """Exactly six checks: A1, A2, A3, P0_ZERO, H1, H2, each with a witness."""

    checks: tuple[CheckResult, ...]

    def __post_init__(self) -> None:
        ids = [c.check for c in self.checks]
        if ids != ["A1", "A2", "A3", "P0_ZERO", "H1", "H2"]:
            raise ValueError(f"report must contain the six standard checks, got {ids}")

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> list[dict]:
        return [c.to_json() for c in self.checks]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json object_pairs_hook: the object of pairs, refusing a repeated key,
    which json.loads would otherwise resolve to its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config repeats the key {key!r} in one object")
        obj[key] = value
    return obj


def _number(value: object, what: str) -> float:
    """value as a float if it is a JSON number (an int or a float, not a
    bool) that a double holds; ConfigError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} is {value!r}, not a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{what} is {value!r}, past a double") from exc


def parse_env_config(document: str | bytes | dict) -> EnvDistribution:
    """Parse and validate an environment config (JSON text or parsed dict).

    Two forms are accepted. The binary shorthand expands each support point
    {"p": a, "mass": w} into a state labelled f"p={a!r}" with offspring pmf
    {1: a, 2: 1-a}; the generic form lists explicit states with string-keyed
    offspring maps, each family size once. JSON text may not repeat a key
    within an object.
    """
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    model = doc.get("model")
    if model == "binary":
        points = doc.get("support")
        if not isinstance(points, list) or not points:
            raise ConfigError("binary config needs a nonempty 'support' list")
        states = []
        for point in points:
            if not isinstance(point, dict) or "p" not in point or "mass" not in point:
                raise ConfigError("each binary support point needs 'p' and 'mass'")
            p = _number(point["p"], "binary p")
            if not (0.0 < p < 1.0):
                raise ConfigError(f"binary p={p:g} outside (0,1)")
            pmf = OffspringPmf({1: p, 2: 1.0 - p})
            mass = _number(point["mass"], f"mass of p={p!r}")
            states.append((EnvState(f"p={p!r}", pmf), mass))
        return EnvDistribution(tuple(states))
    if model == "generic":
        raw_states = doc.get("states")
        if not isinstance(raw_states, list) or not raw_states:
            raise ConfigError("generic config needs a nonempty 'states' list")
        states = []
        for raw in raw_states:
            if not isinstance(raw, dict):
                raise ConfigError("each state must be an object")
            try:
                label = str(raw["label"])
                mass = _number(raw["mass"], f"mass of state {label!r}")
                offspring = raw["offspring"]
            except KeyError as exc:
                raise ConfigError(f"state is missing field {exc}") from exc
            if not isinstance(offspring, dict) or not offspring:
                raise ConfigError(f"state {label!r} needs a nonempty 'offspring' map")
            entries = {}
            for key, mass_k in offspring.items():
                try:
                    k = int(key)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"offspring key {key!r} is not an integer") from exc
                if k in entries:
                    raise ConfigError(f"state {label!r} gives family size {k} twice")
                entries[k] = _number(mass_k, f"mass for k={k} of state {label!r}")
            states.append((EnvState(label, OffspringPmf(entries)), mass))
        return EnvDistribution(tuple(states))
    raise ConfigError(f"unknown model {model!r}, expected 'binary' or 'generic'")


def state_mean(state: EnvState) -> float:
    """Conditional mean family size m = sum(k * p_k) for one state."""
    return state.pmf.mean


def state_log_mean(state: EnvState) -> float:
    """X = log m for one state, correctly rounded, wherever X is read."""
    return math.log(state_mean(state))


def compute_moments(env: EnvDistribution) -> ModelMoments:
    """Exact moments of X = log m over the finite support."""
    # every mean is > 0: OffspringPmf puts positive mass on some k >= 1
    per_state = [(state.label, state_mean(state), state_log_mean(state))
                 for state, _ in env.states]
    log_means = {x for _, _, x in per_state}
    if len(log_means) == 1:
        # A weighted sum can round one ulp off the common value, which would
        # leave sigma2 > 0 with M_tight <= 0.
        mu = log_means.pop()
    else:
        mu = math.fsum(mass * x for (_, _, x), (_, mass) in zip(per_state, env.states))
    sigma2 = math.fsum(mass * (x - mu) ** 2 for (_, _, x), (_, mass) in zip(per_state, env.states))
    m_tight = max(x for _, _, x in per_state) - mu
    return ModelMoments(mu=mu, sigma2=sigma2, M_tight=m_tight,
                        M_paper=math.log(env.k_max) - mu,
                        per_state=tuple(per_state))


def moment_rounding(env: EnvDistribution,
                    moments: ModelMoments) -> tuple[float, float, float]:
    """Bounds on the absolute rounding error of moments.sigma2, M_tight and
    M_paper, for moments = compute_moments(env) with sigma2 > 0.

    They compare with the exact values of compute_moments's formulas on the
    stored masses and the exact X_s = log m_s of the stored pmfs, with
    u = UNIT_ROUNDOFF and libm's log and pow taken within one ulp:
    - m_s is an fsum of rounded k * p_k >= 0, so it is off by at most
      gamma_2 relative and log m_s by gamma_3; log is then off by one ulp,
      at most gamma_2 |X_s|. So X_s is off by a_s = gamma_2 |X_s| + gamma_3.
    - mu, an fsum of rounded mass * X_s, is off by
      a_mu = gamma_2 sum(mass |X_s|) + sum(mass a_s).
    - M = X_top - mu, one subtraction: off by gamma_1 |M| + a_top + a_mu,
      a_top = max a_s for M_tight and gamma_2 log k_max for M_paper.
    - d_s = X_s - mu is off by b_s = gamma_1 |d_s| + a_s + a_mu, so
      d_s^2 by b_s (2 |d_s| + b_s). The square, the product with the mass
      and the fsum add gamma_4 relative, so sigma2 is off by at most
      gamma_5 sigma2 + sum(mass b_s (2 |d_s| + b_s)).
    This matters where a bound is compared with an exact tail that equals
    it in exact arithmetic (bounds.sn_tail_bound_eps).
    """
    masses = [mass for _, mass in env.states]
    xs = [x for _, _, x in moments.per_state]
    a = [gamma(2) * abs(x) + gamma(3) for x in xs]
    a_mu = (gamma(2) * math.fsum(mass * abs(x) for x, mass in zip(xs, masses))
            + math.fsum(mass * a_s for a_s, mass in zip(a, masses)))
    d = [x - moments.mu for x in xs]
    b = [gamma(1) * abs(d_s) + a_s + a_mu for d_s, a_s in zip(d, a)]
    sigma2_err = gamma(5) * moments.sigma2 + math.fsum(
        mass * b_s * (2.0 * abs(d_s) + b_s) for b_s, d_s, mass in zip(b, d, masses))
    return (sigma2_err,
            gamma(1) * abs(moments.M_tight) + max(a) + a_mu,
            gamma(1) * abs(moments.M_paper) + gamma(2) * math.log(env.k_max)
            + a_mu)


def check_assumptions(env: EnvDistribution, p: float = DEFAULT_P,
                      q: float = DEFAULT_Q) -> AssumptionReport:
    """Evaluate the six standing assumptions exactly on the finite support.

    A1: mu > 0 (supercriticality; E|log(1-p0)| is finite because states with
        p0 = 1 cannot be constructed, and is 0 whenever P0_ZERO holds).
    A2: sigma2 > 0 (genuine environment randomness).
    A3: E(Z_1 log+ Z_1 / m_0) finite; always true on finite support, the value
        is reported as the witness.
    P0_ZERO: every positive-mass state has p_0 = 0 (extinction impossible).
    H1: M_tight > 0, so a positive a.s. bound M on (X - mu) exists.
    H2: E(Z_1/m_0)^p, E|log m_0|^q; finite on finite support, always passes.
    Failures are reported, never raised. An order that is not finite, or
    whose witness overflows a double, raises ValueError.
    """
    if not 1.0 < p < math.inf:
        raise ValueError(f"p={p:g} must be finite and > 1")
    if not 2.0 < q < math.inf:
        raise ValueError(f"q={q:g} must be finite and > 2")
    moments = compute_moments(env)
    masses = [mass for _, mass in env.states]
    states = [state for state, _ in env.states]

    e_log1p0 = math.fsum(w * abs(math.log(1.0 - s.pmf.p0))
                         for w, s in zip(masses, states))
    a1 = CheckResult(
        "A1", moments.mu > 0.0, moments.mu,
        f"mu={moments.mu:.12g} (need > 0); E|log(1-p0)|={e_log1p0:.12g}")

    a2 = CheckResult("A2", moments.sigma2 > 0.0, moments.sigma2,
                     f"sigma2={moments.sigma2:.12g} (need > 0)")

    # Z_1 = N_{0,1}, so E(Z_1 log+ Z_1 / m_0) mixes the one-individual law.
    a3_val = math.fsum(
        w * math.fsum(pk * k * max(math.log(k), 0.0) for k, pk in s.pmf.entries.items() if k >= 1) / m
        for w, s, (_, m, _) in zip(masses, states, moments.per_state))
    a3 = CheckResult("A3", math.isfinite(a3_val), a3_val,
                     f"E(Z1 log+ Z1 / m0)={a3_val:.12g}, finite on finite support")

    worst_p0 = max(s.pmf.p0 for s in states)
    offenders = [s.label for s in states if s.pmf.p0 > 0.0]
    p0_msg = "all states have p0 = 0" if not offenders else \
        f"states with p0 > 0: {', '.join(offenders)}"
    p0_zero = CheckResult("P0_ZERO", worst_p0 == 0.0, worst_p0, p0_msg)

    h1 = CheckResult("H1", moments.M_tight > 0.0, moments.M_tight,
                     f"M_tight=ess-sup(X)-mu={moments.M_tight:.12g} (need > 0)")

    try:
        h2_p = math.fsum(
            w * math.fsum(pk * (k / m) ** p for k, pk in s.pmf.entries.items())
            for w, s, (_, m, _) in zip(masses, states, moments.per_state))
    except OverflowError:
        raise ValueError(f"E(Z1/m0)^p overflows a double at p={p:g}") from None
    try:
        h2_q = math.fsum(w * abs(x) ** q
                         for w, (_, _, x) in zip(masses, moments.per_state))
    except OverflowError:
        raise ValueError(f"E|log m0|^q overflows a double at q={q:g}") from None
    h2 = CheckResult(
        "H2", True, h2_p,
        f"E(Z1/m0)^p={h2_p:.12g} (p={p:g}), E|log m0|^q={h2_q:.12g} (q={q:g})")

    return AssumptionReport((a1, a2, a3, p0_zero, h1, h2))
