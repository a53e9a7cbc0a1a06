"""Command-line front end tying configuration, simulation, bounds, oracles,
and estimation into reproducible experiments with machine-readable reports.

Every command is deterministic given (config bytes, flags, seed); main
reads the config once, resolves the seed and worker count once, and hands
the command its environment. _check decides every bound check: each exact
tail against its bound and each verify mode's verdict. _decay_fit is the
one decay fit, _exact_or_null the one capped exact reference. Each record
ends in emit: with --out DIR the CSVs (result.csv, or one per simulated
trajectory), then result.json, then manifest.json, the mark of a complete
run, then a verify mode's verdict line; without --out the JSON result goes
to stdout. Then the exit code: 0 pass, 1 verdict or assumption failure,
2 usage or parse error, 3 resource cap. A model outside a command's
assumptions raises Refusal before any sampling or file: exit 1, with the
reason on stderr.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import math
import json
import os
import platform
import shlex
import sys
from collections.abc import Callable, Iterable
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (BoundQuery, H, H_upper, Theorem1Params, log_H,
                     sn_tail_bound, sn_tail_bound_eps, theorem1_bound)
from .env import (DEFAULT_P, DEFAULT_Q, ConfigError, EnvDistribution,
                  ModelMoments, ResourceCapError, check_assumptions,
                  compute_moments, moment_rounding, parse_env_config)
from .estimate import (TailEstimate, convergence_report,
                       fit_geometric_decay, mc_logw_increments, mc_tail_logzn,
                       mc_tail_sn, theorem1_candidates)
from .oracle import exact_logZn_tail, exact_sn_tail, exact_sn_tails
from .simulate import (DOMAIN_SIMULATE, RNG_ID, SEED_MAX, EnvTables,
                       block_records, simulate_block, stream)

# simulate writes one CSV per trajectory; keep runs to a sane file count.
# A run is then no larger than one estimator block (estimate.BLOCK_TRIALS),
# and simulate steps it as one block on one stream.
_MAX_TRAJECTORY_FILES = 1024

TAIL_CSV_HEADER = "n,x,M_kind,hits,trials,point,ci_low,ci_high,bound_H,bound_thm1"
INCREMENT_CSV_HEADER = "k,mean_abs_increment,stderr"
ORACLE_CSV_HEADER = "n,x,M_kind,exact_tail,bound_H,dominated"
CONVERGE_CSV_HEADER = "n,y,hits,trials,point,ci_low,ci_high"
TRAJECTORY_CSV_HEADER = "gen,Z,log2_Z,S,logW"


def fmt(value: float) -> str:
    """17 significant digits: doubles survive a text round-trip exactly."""
    return f"{value:.17g}"


def render_json(value, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits.

    Non-finite floats become the strings "inf"/"-inf"/"nan" since JSON has
    no number for them.
    """
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {render_json(v, indent + 2)}"
            for k, v in value.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}  {render_json(v, indent + 2)}" for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, float):
        return fmt(value) if math.isfinite(value) else json.dumps(fmt(value))
    if isinstance(value, (bool, int, str)) or value is None:
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _csv(header: str, rows: list[list[str]]) -> str:
    return "\n".join([header] + [",".join(cells) for cells in rows]) + "\n"


def emit(args, result: dict | Callable[[], dict],
         files: Iterable[tuple[str, str]] = (), passed: bool = True,
         mode: str | None = None) -> int:
    """Write the --out directory convention, or print the JSON to stdout;
    return the exit code, 0 if passed else 1.

    files yields each CSV's (name, text), each written as it arrives, so a
    run holds one file's text at a time. result is the JSON result, or a
    callable that builds it once every file is written. result.json, then
    manifest.json (with main's config hash and the result's seed) follow
    the files, and a stale pair is removed before the first, so a directory
    has them exactly when its run completed. Last, with --out only, comes
    the `verify MODE: PASS|FAIL` line of a verify mode.
    """
    if args.out is None:
        print(render_json(result() if callable(result) else result))
        return 0 if passed else 1
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for stale in ("manifest.json", "result.json"):
        (outdir / stale).unlink(missing_ok=True)
    names = []
    for name, text in files:
        (outdir / name).write_text(text, encoding="utf-8")
        names.append(name)
    if callable(result):
        result = result()
    (outdir / "result.json").write_text(
        render_json({**result, "manifest": "manifest.json"}) + "\n",
        encoding="utf-8")
    manifest = {
        "command": "bpre " + shlex.join(args.argv),
        "env_config_sha256": args.config_sha,
        "seed": result.get("seed"),
        "rng_id": RNG_ID,
        "version": __version__,
        # numpy's binomial and normal streams may change across releases
        "python": platform.python_version(),
        "numpy": np.__version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "outputs": ["result.json", *sorted(names)],
    }
    (outdir / "manifest.json").write_text(render_json(manifest) + "\n",
                                          encoding="utf-8")
    if mode is not None:
        print(f"verify {mode}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


class Refusal(Exception):
    """A model outside the command's assumptions; main prints the reason to
    stderr and exits 1."""


def load_env(path: str) -> tuple[EnvDistribution, str]:
    data = Path(path).read_bytes()
    return parse_env_config(data), hashlib.sha256(data).hexdigest()


def _by_M_kind(kind: str, tight, paper):
    """The --M-kind choice of a (tight, paper) pair."""
    return tight if kind == "tight" else paper


def _M(kind: str, moments: ModelMoments) -> float:
    """The --M-kind constant M of H1. Where it is not > 0, neither is
    M_tight (M_paper >= M_tight), so H1 fails and the command refuses: its
    bound and tail events need M > 0."""
    M = _by_M_kind(kind, moments.M_tight, moments.M_paper)
    if not M > 0.0:
        raise Refusal("env-check failed: H1")
    return M


def cmd_env_check(args, env: EnvDistribution) -> int:
    report = check_assumptions(env, p=args.p, q=args.q)
    result = {"checks": report.to_json(), "all_pass": report.all_pass}
    return emit(args, result, passed=report.all_pass)


def cmd_bound(args, env: None) -> int:
    if args.v is not None:
        if args.sigma is not None or args.M is not None:
            raise ValueError("give either --v or the pair --sigma/--M, not both")
        v = args.v
    else:
        if args.sigma is None or args.M is None:
            raise ValueError("give either --v or both --sigma and --M")
        if not args.M > 0.0:
            raise ValueError(f"M={args.M!r} must be > 0")
        v = math.sqrt(args.n) * args.sigma / args.M
    query = BoundQuery(n=args.n, x=args.x, v=v)
    result = {"n": args.n, "x": args.x, "v": v, "log_H": log_H(query),
              "H": H(query), "H_upper": H_upper(args.x, v)}
    return emit(args, result)


def cmd_simulate(args, env: EnvDistribution) -> int:
    # Simulation itself relies on supercriticality and no-extinction; the
    # variance checks A2/H1 matter for bounds, not for stepping populations,
    # and would wrongly reject deterministic models.
    report = check_assumptions(env)
    failed = [c.check for c in report.checks
              if not c.passed and c.check in ("A1", "P0_ZERO")]
    if failed:
        raise Refusal(f"env-check failed: {', '.join(failed)}")
    if args.trials > _MAX_TRAJECTORY_FILES:
        raise ValueError(
            f"simulate writes one CSV per trajectory; --trials {args.trials} "
            f"exceeds {_MAX_TRAJECTORY_FILES}")
    tables = EnvTables(env)
    names = (["result.csv"] if args.trials == 1
             else [f"result_{t:04d}.csv" for t in range(args.trials)])
    approx = []

    def trajectories():
        # the whole block is stepped before the first file is written, so a
        # run stopped at the population cap writes no trajectory
        block, states, approx_used = simulate_block(
            tables, args.n, args.trials, stream(args.seed, DOMAIN_SIMULATE, 0))
        approx.append(approx_used)
        # One %-format per row, its generation number in the template,
        # writes what fmt() and _csv() would.
        templates = [f"{gen},%.0f,%.17g,%.17g,%.17g\n"
                     for gen in range(args.n + 1)]
        for t, name in enumerate(names):
            rows = "".join(
                [row % (z, math.log2(z), s, w) for row, (z, s, w) in
                 zip(templates, block_records(tables, block, states, t))])
            yield name, f"{TRAJECTORY_CSV_HEADER}\n{rows}"

    def result() -> dict:
        return {"env_config_sha256": args.config_sha, "seed": args.seed,
                "rng_id": RNG_ID, "n": args.n, "trials": args.trials,
                "approx_sampling_used": any(approx), "files": names}

    return emit(args, result, trajectories())


def _check(bound: float | None, eps: float, exact: float | None,
           mc: float | None = None) -> tuple[bool | None, bool]:
    """(dominated, passed): every exact-vs-bound comparison and verify
    verdict.

    An exact tail is dominated at or below bound * (1 + eps), eps the
    bound's rounding bound (eps_H for H, 0 for the fitted Theorem 1 bound):
    where the two are equal in exact arithmetic, H may round below the tail.
    An infinite eps (H below the normal range) bounds nothing, so there a
    tail is dominated only at or below bound. dominated is None without an
    exact tail. The check passes when the exact tail, if any, is dominated
    and the Monte Carlo quantity mc, if any, is at or below bound; with no
    bound (None: a failed fit) it fails.
    """
    if bound is None:
        return None, False
    dominated = None if exact is None else (
        exact <= bound or (math.isfinite(eps) and exact <= bound * (1.0 + eps)))
    return dominated, dominated is not False and (mc is None or mc <= bound)


def _sn_rows(env: EnvDistribution, moments: ModelMoments, n: int, kind: str,
             xs: list[float], exacts: list[float | None] | None = None,
             mc: float | None = None) -> list[tuple]:
    """(x, exact walk tail, H, eps_H, dominated, passed) at each x, at n
    and M kind: H_n(x, v_n) at the model's moments, its rounding bound
    eps_H (bounds.sn_tail_bound_eps), and _check's verdict on the exact
    tail and mc. The exact tails, where not given, come from one
    composition pass."""
    M = _M(kind, moments)
    sigma2_err, *M_errs = moment_rounding(env, moments)
    M_err = _by_M_kind(kind, *M_errs)
    if exacts is None:
        exacts = exact_sn_tails(env, n, xs, M, moments.mu)
    rows = []
    for x, exact in zip(xs, exacts):
        bound = sn_tail_bound(n, x, math.sqrt(moments.sigma2), M)
        eps = sn_tail_bound_eps(n, x, moments.sigma2, M, sigma2_err, M_err)
        rows.append((x, exact, bound, eps, *_check(bound, eps, exact, mc)))
    return rows


def _within_eps(rows: list[tuple]) -> dict:
    """result.json's label of the _sn_rows rows dominated only through
    eps_H, under "dominated_within_eps_H"; no key where every dominated tail
    is at or below its bound."""
    points = [{"x": x, "exact_tail": e, "bound_H": b, "eps_H": eps}
              for x, e, b, eps, dominated, _ in rows if dominated and e > b]
    return {"dominated_within_eps_H": points} if points else {}


def cmd_oracle(args, env: EnvDistribution) -> int:
    rows = _sn_rows(env, compute_moments(env), args.n, args.m_kind, [args.x])
    [(_, exact, bound, _, dominated, passed)] = rows
    result = {"n": args.n, "x": args.x, "M": args.m_kind,
              "exact_tail": exact, "bound": bound, "dominated": dominated,
              **_within_eps(rows)}
    return emit(args, result, passed=passed)


def _exact_or_null(exact: Callable[..., float], *args) -> float | None:
    """exact(*args), an exact reference, or None past its resource cap:
    the run goes on without it and writes `"exact_tail": null`."""
    try:
        return exact(*args)
    except ResourceCapError:
        return None


def _estimate_cells(est: TailEstimate) -> list[str]:
    """A TailEstimate's CSV cells: hits, trials, point, ci_low, ci_high."""
    return [str(est.hits), str(est.trials), fmt(est.point), fmt(est.ci_low),
            fmt(est.ci_high)]


def _estimate_fields(est: TailEstimate) -> dict:
    """A TailEstimate's result.json fields, in their written order."""
    return {"hits": est.hits, "trials": est.trials, "point": est.point,
            "ci_low": est.ci_low, "ci_high": est.ci_high, "level": est.level}


def _fit_window(env: EnvDistribution, n: int, lo: int, hi: int) -> None:
    """Check the decay fit before any estimator runs: its window [lo, hi]
    at horizon n inside [0, n-1] and holding the 4 points
    fit_geometric_decay needs, and a model with an increment to fit. Where
    every state's offspring law is a point mass, Z_{k+1} = m Z_k and every
    log W increment is 0: a fit would see only rounding, so the command
    refuses."""
    if not 0 <= lo < hi <= n - 1:
        raise ValueError(f"fit window [{lo}, {hi}] outside [0, {n - 1}]")
    if hi - lo < 3:
        raise ValueError(f"fit window [{lo}, {hi}] has fewer than the 4 "
                         "points the decay fit needs")
    if all(len(state.pmf.support) == 1 for state, _ in env.states):
        raise Refusal("every state's offspring law is a point mass: the "
                      "log W increments vanish, so there is no decay to fit")


def _decay_fit(args, env: EnvDistribution, trials: int, lo: int, hi: int):
    """(increments, fit, C_hat, failure): the increment means at args.n from
    trials trials, their geometric-decay fit over k = lo..hi (a _fit_window),
    and the fit's Theorem 1 candidate C_hat (theorem1_candidates). Where
    delta_hat is outside (0, 1), C_hat is None and failure the reason."""
    incs = mc_logw_increments(env, args.n, trials, args.seed,
                              workers=args.workers)
    fit = fit_geometric_decay(
        [(k, mean) for k, mean, _ in incs if lo <= k <= hi])
    try:
        return incs, fit, theorem1_candidates(fit)[0], None
    except ValueError as exc:
        return incs, fit, None, str(exc)


def cmd_verify_sn(args, env: EnvDistribution) -> int:
    moments = compute_moments(env)
    M = _M(args.m_kind, moments)
    est = mc_tail_sn(env, args.n, args.x, M, args.trials, args.seed,
                     level=args.level, workers=args.workers)
    exact = _exact_or_null(exact_sn_tail, env, args.n, args.x, M, moments.mu)
    rows = _sn_rows(env, moments, args.n, args.m_kind, [args.x], [exact],
                    est.ci_low)
    [(_, _, bound, _, dominated, passed)] = rows

    row = [str(args.n), fmt(args.x), args.m_kind, *_estimate_cells(est),
           fmt(bound), ""]
    result = {"mode": "sn", "n": args.n, "x": args.x, "M_kind": args.m_kind,
              **_estimate_fields(est), "bound_H": bound, "exact_tail": exact,
              "dominated": dominated, **_within_eps(rows), "pass": passed,
              "seed": args.seed, "rng_id": RNG_ID}
    return emit(args, result, [("result.csv", _csv(TAIL_CSV_HEADER, [row]))],
                passed, "sn")


def cmd_verify_theorem1(args, env: EnvDistribution) -> int:
    moments = compute_moments(env)
    m = args.n if args.m is None else args.m
    if m > args.n:
        raise ValueError(f"--m {m} must be in [1, n={args.n}]")
    M = _M(args.m_kind, moments)
    _fit_window(env, args.n, 2, args.n - 1)
    est = mc_tail_logzn(env, args.n, args.x, M, args.trials, args.seed,
                        level=args.level, workers=args.workers)

    # Constants are fitted from increment decay at the same horizon; the
    # fit needs far fewer trials than the tail estimate.
    fit_trials = min(args.trials, 10 ** 5)
    incs, fit, C_hat, failure = _decay_fit(args, env, fit_trials, 2,
                                          args.n - 1)
    bound = None if C_hat is None else theorem1_bound(
        Theorem1Params(n=args.n, m=m, M=M, C=C_hat, delta=fit.delta_hat))
    exact = _exact_or_null(exact_logZn_tail, env, args.n, args.x, moments, M)
    _, passed = _check(bound, 0.0, exact, est.point)

    row = [str(args.n), fmt(args.x), args.m_kind, *_estimate_cells(est), "",
           fmt(bound) if bound is not None else ""]
    result = {"mode": "theorem1", "n": args.n, "x": args.x, "m": m,
              "M_kind": args.m_kind, **_estimate_fields(est),
              "bound_thm1": bound, "C_hat": C_hat,
              "delta_hat": fit.delta_hat, "fit_r2": fit.r2,
              "fit_trials": fit_trials,
              "increment_head_depth": incs.head_depth, "exact_tail": exact,
              "failure": failure, "pass": passed,
              "approx_sampling_used": (est.approx_sampling_used
                                       or incs.approx_sampling_used),
              "seed": args.seed, "rng_id": RNG_ID}
    return emit(args, result, [("result.csv", _csv(TAIL_CSV_HEADER, [row]))],
                passed, "theorem1")


def cmd_verify_increments(args, env: EnvDistribution) -> int:
    lo, hi = args.fit_lo, args.n - 1 if args.fit_hi is None else args.fit_hi
    _fit_window(env, args.n, lo, hi)
    incs, fit, C_hat, _ = _decay_fit(args, env, args.trials, lo, hi)
    passed = C_hat is not None

    rows = [[str(k), fmt(mean), fmt(stderr)] for k, mean, stderr in incs]
    result = {"mode": "increments", "n": args.n, "trials": args.trials,
              "delta_hat": fit.delta_hat, "c_hat": fit.c_hat, "r2": fit.r2,
              "C_hat": C_hat, "fit_k_lo": lo, "fit_k_hi": hi,
              "increment_head_depth": incs.head_depth, "pass": passed,
              "approx_sampling_used": incs.approx_sampling_used,
              "seed": args.seed, "rng_id": RNG_ID}
    return emit(args, result, [("result.csv", _csv(INCREMENT_CSV_HEADER, rows))],
                passed, "increments")


def cmd_verify_oracle(args, env: EnvDistribution) -> int:
    xs = [args.n * i / (args.grid_points - 1) for i in range(args.grid_points)]
    rows = _sn_rows(env, compute_moments(env), args.n, args.m_kind, xs)
    violations = sum(not dominated for *_, dominated, _ in rows)
    passed = all(ok for *_, ok in rows)
    result = {"mode": "oracle", "n": args.n, "M_kind": args.m_kind,
              "grid_points": args.grid_points, "violations": violations,
              **_within_eps(rows), "pass": passed}
    csv_rows = [[str(args.n), fmt(x), args.m_kind, fmt(exact), fmt(bound),
                 "true" if dominated else "false"]
                for x, exact, bound, _, dominated, _ in rows]
    return emit(args, result, [("result.csv", _csv(ORACLE_CSV_HEADER, csv_rows))],
                passed, "oracle")


def cmd_converge(args, env: EnvDistribution) -> int:
    rows = convergence_report(env, args.n_values, args.y_values, args.trials,
                              args.seed, level=args.level,
                              workers=args.workers)
    csv_rows = [[str(r.n), fmt(r.threshold_x), *_estimate_cells(r)]
                for r in rows]
    result = {"n_values": list(args.n_values), "y_values": list(args.y_values),
              "trials": args.trials, "level": args.level,
              "approx_sampling_used": any(r.approx_sampling_used
                                          for r in rows),
              "seed": args.seed, "rng_id": RNG_ID,
              "rows": [{"n": r.n, "y": r.threshold_x, "hits": r.hits,
                        "point": r.point, "ci_low": r.ci_low,
                        "ci_high": r.ci_high} for r in rows]}
    return emit(args, result, [("result.csv", _csv(CONVERGE_CSV_HEADER, csv_rows))])


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} must be >= {low}")
        return value
    return parse


_positive_int = _int_at_least(1)


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None


def _trials(text: str) -> int:
    # accepts scientific notation: --trials 1e6
    value = _number(text)
    if not value.is_integer() or value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be a positive integer")
    return int(value)


def _level(text: str) -> float:
    value = _number(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} must be in (0, 1)")
    return value


def _finite(text: str) -> float:
    """A moment order; inf and NaN are bad input, not failed assumptions."""
    value = _number(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} must be finite")
    return value


def _threshold(text: str) -> float:
    """A tail threshold x or deviation y: no statistic reaches a NaN or
    infinite one, so a run against it would pass by vacuity."""
    value = _number(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} must be finite and >= 0")
    return value


def _seed(text: str) -> int:
    value = _int_at_least(0)(text)
    if value >= SEED_MAX:
        raise argparse.ArgumentTypeError(f"{text!r} outside the unsigned 64-bit range")
    return value


def _list_of(parse):
    def parse_list(text: str) -> list:
        values = [parse(part) for part in text.split(",") if part]
        if not values:
            raise argparse.ArgumentTypeError(f"{text!r} lists no values")
        return values
    return parse_list


def _add_m_kind(p: argparse.ArgumentParser, default: str) -> None:
    p.add_argument("--M-kind", dest="m_kind", choices=["tight", "paper"],
                   default=default, help=f"H1 constant (default {default})")


def _add_sampling(p: argparse.ArgumentParser, trials: int,
                  level: float | None) -> None:
    """The Monte Carlo flags, with the command's defaults; --level only
    where a confidence interval is reported."""
    p.add_argument("--trials", type=_trials, default=trials,
                   help=f"number of trials (default {trials:g})")
    p.add_argument("--seed", type=_seed, default=None,
                   help="master seed (default: $BPRE_SEED, else 0)")
    if level is not None:
        p.add_argument("--level", type=_level, default=level,
                       help=f"confidence level (default {level:g})")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="worker threads (default: available parallelism); "
                        "results are identical for any value")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The bpre argument parser, built once per process: parse_args keeps no
    state between calls, so in-process callers (tests, library use) reuse it."""
    parser = argparse.ArgumentParser(
        prog="bpre",
        description="Branching processes in random environments: simulation, "
                    "tail bounds, exact oracles, Monte Carlo verification.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("env-check", help="validate a model config against the "
                                         "six standing assumptions")
    p.add_argument("config")
    p.add_argument("--p", type=_finite, default=DEFAULT_P,
                   help=f"moment order for the offspring check (default {DEFAULT_P:g})")
    p.add_argument("--q", type=_finite, default=DEFAULT_Q,
                   help=f"moment order for the log-mean check (default {DEFAULT_Q:g})")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_env_check)

    p = sub.add_parser("bound", help="evaluate the Hoeffding-type tail bound")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--x", type=_threshold, required=True)
    p.add_argument("--v", type=float, help="variance parameter, given directly")
    p.add_argument("--sigma", type=float,
                   help="with --M, forms v = sqrt(n)*sigma/M")
    p.add_argument("--M", type=float, help="scale constant, used with --sigma")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="simulate trajectories to CSV")
    p.add_argument("config")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--trials", type=_trials, default=1,
                   help="number of trajectories (default 1)")
    p.add_argument("--seed", type=_seed, default=None,
                   help="master seed (default: $BPRE_SEED, else 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="exact walk tail vs the H bound at one point")
    p.add_argument("config")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--x", type=_threshold, required=True)
    _add_m_kind(p, "tight")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    verify = sub.add_parser("verify", help="Monte Carlo / exact verification "
                                           "runs; see bpre verify MODE --help")
    modes = verify.add_subparsers(dest="mode", required=True)

    def mode(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = modes.add_parser(name, help=help_text)
        p.add_argument("config")
        p.add_argument("--n", type=_positive_int, required=True)
        p.add_argument("--out")
        p.set_defaults(func=func)
        return p

    p = mode("sn", cmd_verify_sn, "walk tail, Monte Carlo and exact, vs H")
    p.add_argument("--x", type=_threshold, required=True, help="tail threshold")
    _add_m_kind(p, "tight")
    _add_sampling(p, trials=10 ** 5, level=0.99)

    p = mode("theorem1", cmd_verify_theorem1,
             "log Z_n far tail vs the fitted Theorem 1 bound")
    p.add_argument("--x", type=_threshold, default=3.0,
                   help="tail threshold (default 3)")
    p.add_argument("--m", type=_positive_int, default=None,
                   help="exponent, 1 <= m <= n (default n)")
    _add_m_kind(p, "paper")
    _add_sampling(p, trials=10 ** 5, level=0.99)

    p = mode("increments", cmd_verify_increments,
             "geometric decay of the log W increments")
    p.add_argument("--fit-lo", dest="fit_lo", type=int, default=2,
                   help="first k in the decay fit (default 2)")
    p.add_argument("--fit-hi", dest="fit_hi", type=int, default=None,
                   help="last k in the decay fit (default n-1)")
    _add_sampling(p, trials=10 ** 5, level=None)

    p = mode("oracle", cmd_verify_oracle, "exact walk tail vs H on an x-grid")
    p.add_argument("--grid-points", dest="grid_points", type=_int_at_least(2),
                   default=101, help="x-grid size on [0, n] (default 101)")
    _add_m_kind(p, "tight")

    p = sub.add_parser("converge", help="tail of |log Z_n / n - mu| over an "
                                        "(n, y) grid")
    p.add_argument("config")
    p.add_argument("--n-values", dest="n_values", type=_list_of(_positive_int),
                   required=True, help="comma-separated horizons, e.g. 8,16,32")
    p.add_argument("--y-values", dest="y_values", type=_list_of(_threshold),
                   required=True, help="comma-separated deviations")
    _add_sampling(p, trials=10 ** 4, level=0.95)
    p.add_argument("--out")
    p.set_defaults(func=cmd_converge)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        env, args.config_sha = (load_env(args.config) if "config" in args
                                else (None, None))
        if "seed" in args and args.seed is None:
            try:
                args.seed = _seed(os.environ.get("BPRE_SEED") or "0")
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"$BPRE_SEED {exc}") from None
        if "workers" in args and args.workers is None:
            args.workers = os.cpu_count() or 1
        return args.func(args, env)
    except Refusal as exc:
        print(exc, file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
