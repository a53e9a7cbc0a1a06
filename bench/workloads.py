"""The benchmark's three workloads as lists of operations.

An operation is one `bpre` command run in-process through `cli.main` (with
`--out` to a scratch directory) or one library call, together with the checks
on its output. Checks compare against the independent values in
`reference.py` and against properties the output must have; none compares
against a stored copy of earlier output.

In a traced run each command is followed by its mirror: the library calls
`cli.main` makes internally, made directly with the same arguments inside
their own spans, so that the time of each layer can be told apart from the
command's own overhead.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from bpre import cli
from bpre.bounds import Theorem1Params, sn_tail_bound, theorem1_bound
from bpre.env import check_assumptions, compute_moments, parse_env_config
from bpre.estimate import (binomial_ci, convergence_report, fit_geometric_decay,
                           mc_logw_increments, mc_tail_logzn, mc_tail_sn,
                           theorem1_candidates)
from bpre.oracle import exact_EWn, exact_logZn_tail, exact_sn_tail
from bpre.simulate import DOMAIN_SIMULATE, SimConfig, simulate_trajectory, stream

import reference as ref

# The README's binary model, and a generic model whose two states both have
# offspring support {1, 2, 3}, so the chain sampler and the convolution-ladder
# DP run.
MODELS = {
    "binary": {"model": "binary",
               "support": [{"p": 0.25, "mass": 0.5}, {"p": 0.75, "mass": 0.5}]},
    "generic": {"model": "generic",
                "states": [{"label": "low", "mass": 0.5,
                            "offspring": {"1": 0.5, "2": 0.3, "3": 0.2}},
                           {"label": "high", "mass": 0.5,
                            "offspring": {"1": 0.2, "2": 0.3, "3": 0.5}}]},
}
WORKLOAD_MODELS = {"mc_verify": ("binary", "generic"),
                   "exact_oracle": ("binary", "generic"),
                   "big_population": ("binary",)}

# Intervals that are checked against an independent value are computed at
# this level, so that a correct program fails a check by chance with
# probability about 1e-6 per interval rather than 1-5 %.
LEVEL = 0.999999

# Large-horizon sizes: 2^70 > 2^62 puts converge and mc_tail_logzn on the
# per-trial bigint path; two full 16384-trial blocks give two workers work.
BIG_N = 70
BIG_TRIALS = 2 * 16384
SIM_N = 200
SIM_TRAJECTORIES = 512


@dataclass
class Model:
    name: str
    path: str
    text: bytes
    ref: ref.Model


class Output:
    """What one operation produced: the exit code or return value, and the
    files of its --out directory."""

    def __init__(self, value, outdir: Path | None):
        self.value = value
        self.outdir = outdir

    @property
    def json(self) -> dict:
        return json.loads((self.outdir / "result.json").read_text())

    def csv(self, name: str = "result.csv") -> list[dict[str, str]]:
        lines = (self.outdir / name).read_text().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    def digest(self) -> str:
        """Hash of the result files; manifest.json carries a timestamp."""
        if self.outdir is None:
            return repr(self.value)
        h = hashlib.sha256()
        for path in sorted(self.outdir.iterdir()):
            if path.name != "manifest.json":
                h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    def bytes_written(self) -> int:
        if self.outdir is None:
            return 0
        return sum(p.stat().st_size for p in self.outdir.iterdir())


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[Output], list[str]]
    span: str = "cli.main"
    counts: dict = field(default_factory=dict)
    outdir: Path | None = None
    mirror: Callable[[object, Output], list[str]] | None = None
    argv: list[str] | None = None

    def prepare(self) -> None:
        if self.outdir is not None:
            shutil.rmtree(self.outdir, ignore_errors=True)


class Context:
    """Inputs of one run, all derived from the workload seed."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed % (1 << 64)
        self.rng = random.Random(seed)
        self.workdir = workdir
        # cli.main's worker count when --workers is not given.
        self.workers = os.cpu_count() or 1
        workdir.mkdir(parents=True, exist_ok=True)
        self.models: dict[str, Model] = {}
        for name in WORKLOAD_MODELS[workload]:
            doc = MODELS[name]
            text = json.dumps(doc).encode()
            path = workdir / f"{name}.json"
            path.write_bytes(text)
            self.models[name] = Model(name, str(path), text, ref.Model.from_config(doc))

    def cli_op(self, name: str, argv: list[str], check, mirror=None) -> Op:
        outdir = self.workdir / name
        full = argv + ["--out", str(outdir)]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(full)
        return Op(name, run, check, outdir=outdir, mirror=mirror, argv=argv)


# --- check helpers ---------------------------------------------------------

def near(value, expected: float, what: str, rel: float = 1e-9,
         abs_tol: float = 1e-15) -> list[str]:
    if isinstance(value, (int, float)) and abs(value - expected) <= abs_tol + rel * abs(expected):
        return []
    return [f"{what}: {value!r} vs independent {expected!r}"]


def brackets(low: float, high: float, expected: float, what: str) -> list[str]:
    if low <= expected <= high:
        return []
    return [f"{what}: interval [{low!r}, {high!r}] misses independent {expected!r}"]


def passed(out: Output) -> list[str]:
    return [] if out.json.get("pass") is True else ["verdict FAIL"]


def unreachable_logzn_tail(model: ref.Model, n: int, x: float, M: float) -> bool:
    """Z_n <= k_max^n, so the normalized log Z_n never exceeds this bound."""
    return (n * math.log(model.k_max) - n * model.mu) / (n * M) < x


# --- mirror helpers (traced runs only) ---------------------------------------

def parse(tr, model: Model):
    with tr.span("env.parse_env_config"):
        env = parse_env_config(model.text)
    with tr.span("env.compute_moments"):
        moments = compute_moments(env)
    return env, moments


def ci(tr, hits: int, trials: int, level: float) -> None:
    with tr.span("estimate.binomial_ci"):
        binomial_ci(hits, trials, level)


def tail_and_bound(tr, env, moments, n: int, x: float) -> float:
    """exact_sn_tail and sn_tail_bound as the oracle commands call them."""
    with tr.span("oracle.exact_sn_tail", sequences=len(env.states) ** n):
        exact = exact_sn_tail(env, n, x, moments.M_tight, moments.mu)
    with tr.span("bounds.sn_tail_bound"):
        sn_tail_bound(n, x, math.sqrt(moments.sigma2), moments.M_tight)
    return exact


def same(what: str, mirrored, reported) -> list[str]:
    return [] if mirrored == reported else [f"mirror {what}: {mirrored!r} != {reported!r}"]


# --- commands ----------------------------------------------------------------

def verify_sn(ctx: Context, model: Model, n: int, x: float, trials: int) -> Op:
    M = model.ref.M("tight")
    tail = ref.sn_tail_two_state(model.ref, n, x, M)
    bound = ref.H_paper(n, x, math.sqrt(n) * model.ref.sigma / M)

    def check(out: Output) -> list[str]:
        r = out.json
        problems = passed(out) + brackets(r["ci_low"], r["ci_high"], tail, "S_n tail")
        if r["exact_tail"] is None:
            return problems + near(r["bound_H"], bound, "bound_H")
        return problems + check_tail_and_bound(model, n, x, r["exact_tail"], r["bound_H"])

    def mirror(tr, out: Output) -> list[str]:
        env, moments = parse(tr, model)
        with tr.span("estimate.mc_tail_sn", trials=trials):
            est = mc_tail_sn(env, n, x, moments.M_tight, trials, ctx.seed,
                             level=LEVEL, workers=ctx.workers)
        ci(tr, est.hits, trials, LEVEL)
        with tr.span("bounds.sn_tail_bound"):
            sn_tail_bound(n, x, math.sqrt(moments.sigma2), moments.M_tight)
        if out.json["exact_tail"] is not None:
            with tr.span("oracle.exact_sn_tail", sequences=len(env.states) ** n):
                exact_sn_tail(env, n, x, moments.M_tight, moments.mu)
        return same("hits", est.hits, out.json["hits"])

    return ctx.cli_op(
        f"verify_sn.{model.name}",
        ["verify", "sn", model.path, "--n", str(n), "--x", repr(x),
         "--trials", str(trials), "--seed", str(ctx.seed), "--level", repr(LEVEL)],
        check, mirror)


def verify_theorem1(ctx: Context, model: Model, n: int, trials: int) -> Op:
    x = 3.0  # the command's default threshold

    def check(out: Output) -> list[str]:
        r = out.json
        problems = passed(out)
        if unreachable_logzn_tail(model.ref, n, x, model.ref.M("paper")):
            problems += brackets(r["ci_low"], r["ci_high"], 0.0, "log Z_n tail")
            problems += [] if r["hits"] == 0 else [f"{r['hits']} hits on an unreachable tail"]
        if not 0.0 < r["delta_hat"] < 1.0:
            problems.append(f"delta_hat={r['delta_hat']!r} outside (0, 1)")
        return problems

    def mirror(tr, out: Output) -> list[str]:
        r = out.json
        env, moments = parse(tr, model)
        M = moments.M_paper
        with tr.span("estimate.mc_tail_logzn", trials=trials, bigint=0):
            est = mc_tail_logzn(env, n, x, M, trials, ctx.seed, workers=ctx.workers)
        ci(tr, est.hits, trials, est.level)
        with tr.span("estimate.mc_logw_increments", trials=r["fit_trials"]):
            incs = mc_logw_increments(env, n, r["fit_trials"], ctx.seed,
                                      workers=ctx.workers)
        with tr.span("estimate.fit_geometric_decay"):
            fit = fit_geometric_decay([(k, m) for k, m, _ in incs if 2 <= k <= n - 1])
        with tr.span("bounds.theorem1_bound"):
            C, delta = theorem1_candidates(fit)
            theorem1_bound(Theorem1Params(n=n, m=n, M=M, C=C, delta=delta))
        if r["exact_tail"] is not None:
            with tr.span("oracle.exact_logZn_tail", sequences=len(env.states) ** n):
                exact_logZn_tail(env, n, x, moments, M)
        return same("hits", est.hits, r["hits"]) + same("delta_hat", fit.delta_hat,
                                                        r["delta_hat"])

    return ctx.cli_op(
        f"verify_theorem1.{model.name}",
        ["verify", "theorem1", model.path, "--n", str(n), "--trials", str(trials),
         "--seed", str(ctx.seed)],
        check, mirror)


def verify_increments(ctx: Context, model: Model, n: int, trials: int) -> Op:
    first = ref.first_increment_mean(model.ref)

    def check(out: Output) -> list[str]:
        rows = out.csv()
        k0 = rows[0]
        mean0, se0 = float(k0["mean_abs_increment"]), float(k0["stderr"])
        problems = passed(out)
        if abs(mean0 - first) > 6.0 * se0 + 1e-12:
            problems.append(f"k=0 increment mean {mean0!r} is more than 6 stderr "
                            f"({se0!r}) from independent {first!r}")
        if not float(rows[-1]["mean_abs_increment"]) < float(rows[2]["mean_abs_increment"]):
            problems.append("increment means do not decay from k=2 to k=n-1")
        return problems

    def mirror(tr, out: Output) -> list[str]:
        env, _ = parse(tr, model)
        with tr.span("estimate.mc_logw_increments", trials=trials):
            incs = mc_logw_increments(env, n, trials, ctx.seed, workers=ctx.workers)
        with tr.span("estimate.fit_geometric_decay"):
            fit = fit_geometric_decay([(k, m) for k, m, _ in incs if 2 <= k <= n - 1])
        return same("delta_hat", fit.delta_hat, out.json["delta_hat"])

    return ctx.cli_op(
        f"verify_increments.{model.name}",
        ["verify", "increments", model.path, "--n", str(n), "--trials", str(trials),
         "--seed", str(ctx.seed)],
        check, mirror)


def converge(ctx: Context, model: Model, n_values: list[int], y_values: list[float],
             trials: int, exact_n: int | None) -> Op:
    """exact_n: the horizon whose rows are checked against the annealed law."""
    expected = {} if exact_n is None else {
        y: ref.deviation_tail(model.ref, exact_n, y) for y in y_values}

    def check(out: Output) -> list[str]:
        problems = []
        rows = out.csv()
        for n in n_values:
            hits = [int(r["hits"]) for r in rows if int(r["n"]) == n]
            if hits != sorted(hits, reverse=True):
                problems.append(f"n={n}: hits {hits} increase with y")
        for r in rows:
            low, point, high = float(r["ci_low"]), float(r["point"]), float(r["ci_high"])
            if not (low <= point <= high and point == int(r["hits"]) / trials):
                problems.append(f"n={r['n']} y={r['y']}: inconsistent row {r}")
            if int(r["n"]) == exact_n:
                problems += brackets(low, high, expected[float(r["y"])],
                                     f"n={exact_n} y={r['y']} deviation tail")
        return problems

    def mirror(tr, out: Output) -> list[str]:
        env = parse(tr, model)[0]
        bigint = int(env.k_max ** max(n_values) > 1 << 62)
        with tr.span("estimate.convergence_report", trials=trials * len(n_values),
                     bigint=bigint):
            rows = convergence_report(env, n_values, y_values, trials, ctx.seed,
                                      level=LEVEL, workers=ctx.workers)
        for row in rows:
            ci(tr, row.hits, trials, LEVEL)
        return same("hits", [r.hits for r in rows], [r["hits"] for r in out.json["rows"]])

    return ctx.cli_op(
        f"converge.{model.name}",
        ["converge", model.path, "--n-values", ",".join(map(str, n_values)),
         "--y-values", ",".join(map(repr, y_values)), "--trials", str(trials),
         "--seed", str(ctx.seed), "--level", repr(LEVEL)],
        check, mirror)


def check_tail_and_bound(model: Model, n: int, x: float, exact, bound) -> list[str]:
    """An exact S_n tail and its H bound against the independent values; the
    tail must not exceed H."""
    M = model.ref.M("tight")
    tail = ref.sn_tail_two_state(model.ref, n, x, M)
    H = ref.H_paper(n, x, math.sqrt(n) * model.ref.sigma / M)
    problems = near(exact, tail, f"x={x} exact_tail", rel=1e-12)
    problems += near(bound, H, f"x={x} bound_H")
    return problems + ([] if exact <= H else [f"x={x}: exact tail above H"])


def verify_oracle(ctx: Context, model: Model, n: int, grid_points: int) -> Op:
    xs = [n * i / (grid_points - 1) for i in range(grid_points)]

    def check(out: Output) -> list[str]:
        problems = passed(out)
        rows = out.csv()
        if len(rows) != grid_points:
            problems.append(f"{len(rows)} grid rows, expected {grid_points}")
        for row, x in zip(rows, xs):
            problems += check_tail_and_bound(model, n, x, float(row["exact_tail"]),
                                             float(row["bound_H"]))
        return problems

    def mirror(tr, out: Output) -> list[str]:
        env, moments = parse(tr, model)
        tails = [tail_and_bound(tr, env, moments, n, x) for x in xs]
        return same("exact tails", tails, [float(r["exact_tail"]) for r in out.csv()])

    return ctx.cli_op(
        f"verify_oracle.{model.name}",
        ["verify", "oracle", model.path, "--n", str(n),
         "--grid-points", str(grid_points)],
        check, mirror)


def oracle_point(ctx: Context, model: Model, n: int, x: float) -> Op:
    def check(out: Output) -> list[str]:
        r = out.json
        problems = check_tail_and_bound(model, n, x, r["exact_tail"], r["bound"])
        return problems + ([] if r["dominated"] is True else ["verdict not dominated"])

    def mirror(tr, out: Output) -> list[str]:
        exact = tail_and_bound(tr, *parse(tr, model), n, x)
        return same("exact tail", exact, out.json["exact_tail"])

    return ctx.cli_op(f"oracle.{model.name}",
                      ["oracle", model.path, "--n", str(n), "--x", repr(x)],
                      check, mirror)


def simulate(ctx: Context, model: Model, n: int, trajectories: int) -> Op:
    log_means = model.ref.log_means

    def check(out: Output) -> list[str]:
        r = out.json
        problems = []
        if len(r["files"]) != trajectories:
            problems.append(f"{len(r['files'])} trajectory files, expected {trajectories}")
        binary = model.ref.k_max == 2 and all(min(p) >= 1 for p in model.ref.pmfs)
        w_final = []
        for name in r["files"]:
            rows = out.csv(name)
            z = [int(row["Z"]) for row in rows]
            s = [float(row["S"]) for row in rows]
            if len(rows) != n + 1 or z[0] != 1:
                problems.append(f"{name}: {len(rows)} rows, Z_0={z[0]}")
                continue
            if binary and not all(a <= b <= 2 * a for a, b in zip(z, z[1:])):
                problems.append(f"{name}: some Z_(k+1) outside [Z_k, 2 Z_k]")
            steps = [min(log_means, key=lambda x: abs(x - (b - a)))
                     for a, b in zip(s, s[1:])]
            if abs(s[-1] - math.fsum(steps)) > 1e-9 or any(
                    abs((b - a) - x) > 1e-9 for a, b, x in zip(s, s[1:], steps)):
                problems.append(f"{name}: S is not a sum of the model's log means")
            log_w = float(rows[-1]["logW"])
            if abs(log_w - (math.log(z[-1]) - s[-1])) > 1e-9:
                problems.append(f"{name}: logW != log Z - S")
            w_final.append(math.exp(log_w))
        if len(w_final) > 1:
            mean, se = statistics.fmean(w_final), statistics.stdev(w_final) / math.sqrt(len(w_final))
            if abs(mean - 1.0) > 5.0 * se:
                problems.append(f"mean W_n = {mean!r} is more than 5 stderr ({se!r}) from 1")
        return problems

    def mirror(tr, out: Output) -> list[str]:
        with tr.span("env.parse_env_config"):
            env = parse_env_config(model.text)
        with tr.span("env.check_assumptions"):
            check_assumptions(env)
        approx = 0
        for t in range(trajectories):
            with tr.span("simulate.simulate_trajectory") as span:
                traj = simulate_trajectory(env, SimConfig(n=n, seed=ctx.seed),
                                           rng=stream(ctx.seed, DOMAIN_SIMULATE, t))
            span["counts"]["approx"] = int(traj.approx_sampling_used)
            approx += traj.approx_sampling_used
        return same("approx_sampling_used", approx > 0, out.json["approx_sampling_used"])

    return ctx.cli_op(
        f"simulate.{model.name}",
        ["simulate", model.path, "--n", str(n), "--trials", str(trajectories),
         "--seed", str(ctx.seed)],
        check, mirror)


# --- library calls -------------------------------------------------------------

def lib_exact_logzn_tail(ctx: Context, model: Model, n: int, x: float) -> Op:
    env = parse_env_config(model.text)
    moments = compute_moments(env)
    expected = ref.logzn_tail(model.ref, n, x, model.ref.M("tight"))
    return Op(f"exact_logZn_tail.{model.name}",
              lambda: exact_logZn_tail(env, n, x, moments, moments.M_tight),
              lambda out: near(out.value, expected, "log Z_n tail", rel=1e-12),
              span="oracle.exact_logZn_tail",
              counts={"sequences": len(env.states) ** n})


def lib_exact_EWn(ctx: Context, model: Model, n: int) -> Op:
    env = parse_env_config(model.text)
    reference = ref.mean_W(model.ref, n)

    def check(out: Output) -> list[str]:
        return (near(out.value, 1.0, "E W_n", rel=0.0, abs_tol=1e-9)
                + near(reference, 1.0, "annealed-kernel E W_n", rel=0.0, abs_tol=1e-9))
    return Op(f"exact_EWn.{model.name}", lambda: exact_EWn(env, n), check,
              span="oracle.exact_EWn", counts={"sequences": len(env.states) ** n})


def lib_mc_tail_logzn_big(ctx: Context, model: Model, n: int, trials: int) -> Op:
    env = parse_env_config(model.text)
    moments = compute_moments(env)
    x = 3.0

    def check(out: Output) -> list[str]:
        est = out.value
        if not unreachable_logzn_tail(model.ref, n, x, model.ref.M("paper")):
            return ["log Z_n tail is reachable; no independent value"]
        return (brackets(est.ci_low, est.ci_high, 0.0, "log Z_n tail")
                + ([] if est.hits == 0 else [f"{est.hits} hits on an unreachable tail"]))
    return Op(f"mc_tail_logzn_big.{model.name}",
              lambda: mc_tail_logzn(env, n, x, moments.M_paper, trials, ctx.seed,
                                    workers=ctx.workers),
              check, span="estimate.mc_tail_logzn",
              counts={"trials": trials, "bigint": 1})


# --- workloads -------------------------------------------------------------------

def build(ctx: Context) -> tuple[list[Op], str | None]:
    """The operations of one round, and the name of the operation whose bytes
    are compared at --workers 1 (None when the workload runs no Monte Carlo)."""
    m = ctx.models
    if ctx.workload == "mc_verify":
        ops = []
        for model in m.values():
            ops += [verify_sn(ctx, model, 10, 0.5, 10 ** 6),
                    verify_theorem1(ctx, model, 16, 10 ** 6),
                    verify_increments(ctx, model, 20, 10 ** 5),
                    converge(ctx, model, [8, 16, 32], [0.05, 0.1, 0.2], 10 ** 4, 8)]
        return ops, "verify_increments.generic"
    if ctx.workload == "exact_oracle":
        x_point = round(ctx.rng.uniform(0.05, 0.95), 6)
        x_logzn = round(ctx.rng.uniform(0.0, 0.9), 6)
        return [verify_oracle(ctx, m["binary"], 16, 5),
                oracle_point(ctx, m["binary"], 16, x_point),
                lib_exact_logzn_tail(ctx, m["binary"], 8, x_logzn),
                lib_exact_EWn(ctx, m["generic"], 6)], None
    if ctx.workload == "big_population":
        return [converge(ctx, m["binary"], [BIG_N], [0.05, 0.1, 0.2], BIG_TRIALS, None),
                lib_mc_tail_logzn_big(ctx, m["binary"], BIG_N, 2000),
                simulate(ctx, m["binary"], SIM_N, SIM_TRAJECTORIES)], "converge.binary"
    raise ValueError(f"unknown workload {ctx.workload!r}")


def warm_call(ctx: Context) -> None:
    """The first call a user of the workload makes, at a small size: it loads
    every code path the workload's timed calls need."""
    binary = parse_env_config(ctx.models["binary"].text)
    for model in ctx.models.values():
        check_assumptions(parse_env_config(model.text))
    moments = compute_moments(binary)
    if ctx.workload == "mc_verify":
        mc_tail_sn(binary, 10, 0.5, moments.M_tight, 1000, ctx.seed)
    elif ctx.workload == "exact_oracle":
        exact_logZn_tail(binary, 3, 0.5, moments, moments.M_tight)
    else:
        simulate_trajectory(binary, SimConfig(n=BIG_N, seed=ctx.seed))


def oracle_alloc_calls(ctx: Context) -> list[Callable[[], object]]:
    """Oracle calls for the tracemalloc pass: each oracle function the
    workload calls, once. Traced allocation runs about ten times slower, so
    the DP oracles run two generations short of the timed size."""
    if ctx.workload == "big_population":
        return []
    binary = parse_env_config(ctx.models["binary"].text)
    mb = compute_moments(binary)
    if ctx.workload == "mc_verify":
        return [lambda: exact_sn_tail(binary, 10, 0.5, mb.M_tight, mb.mu)]
    generic = parse_env_config(ctx.models["generic"].text)
    return [lambda: exact_sn_tail(binary, 16, 0.5, mb.M_tight, mb.mu),
            lambda: exact_logZn_tail(binary, 6, 0.5, mb, mb.M_tight),
            lambda: exact_EWn(generic, 4)]
