"""Timed rounds of one workload, their checks, and the metrics derived from them.

Imported by run.py once bpre's sources are on the path.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import spans
import workloads


class Runner:
    """Runs whole rounds of a workload's operations and checks their outputs."""

    def __init__(self, args: argparse.Namespace, workdir: Path):
        self.args = args
        self.ctx = workloads.Context(args.workload, args.seed, workdir)
        self.ops, self.pair = workloads.build(self.ctx)
        self.tracer = spans.Tracer() if args.trace else spans.NullTracer()
        self.rounds: list[dict[str, tuple[float, float]]] = []
        self.digests: dict[str, str] = {}
        self.outputs: dict[str, workloads.Output] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run_op(self, op, tracer=None):
        """One operation: its (wall, cpu) times, or None if it failed. Spans
        go to the run's tracer unless another is given."""
        tracer = tracer or self.tracer
        self.attempted += 1
        op.prepare()
        gc.collect()
        with tracer.span("op", op=op.name):
            try:
                with tracer.span(op.span, **op.counts) as call:
                    cpu0, t0 = time.process_time(), time.perf_counter()
                    value = op.run()
                    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            except Exception:
                traceback.print_exc()
                self.failed += 1
                return None
            out = workloads.Output(value, op.outdir)
            if op.outdir is not None and value != 0:
                print(f"bench: {op.name} exited with code {value}", file=sys.stderr)
                self.failed += 1
                return None
            digest = out.digest()
            if self.digests.setdefault(op.name, digest) != digest:
                self.problems.append(f"{op.name}: output differs from the first round")
            self.outputs[op.name] = out
            if self.args.trace:
                call["counts"]["bytes"] = out.bytes_written()
                if op.mirror is not None:
                    self.problems += [f"{op.name}: {p}" for p in op.mirror(tracer, out)]
        return wall, cpu

    def run_rounds(self) -> None:
        start = time.perf_counter()
        # At least two rounds: the median then never rests on the first
        # round alone, and peak_rss_mb includes the allocator state a repeated
        # round runs in (a second big_population round peaks 8 MB higher
        # than the first, a third no higher than the second).
        while len(self.rounds) < 2 or time.perf_counter() - start < self.args.seconds:
            times = {}
            for op in self.ops:
                result = self.run_op(op)
                if result is not None:
                    times[op.name] = result
            self.rounds.append(times)

    def check_outputs(self) -> None:
        """Full checks on each operation's last output. They run after the
        rounds so that their own memory stays out of peak_rss_mb; every round
        already had to reproduce the first round's output bytes."""
        for op in self.ops:
            if op.name in self.outputs:
                self.problems += [f"{op.name}: {p}" for p in op.check(self.outputs[op.name])]

    def round_medians(self) -> tuple[float, float]:
        walls = [sum(w for w, _ in r.values()) for r in self.rounds]
        cpus = [sum(c for _, c in r.values()) for r in self.rounds]
        return statistics.median(walls), statistics.median(cpus)

    def workers_pair(self) -> float | None:
        """Rerun the pair operation at --workers 1; its result.csv must be
        byte-identical to the default run's. Returns the 1-worker time over
        the default time."""
        if self.pair is None:
            return None
        op = next(o for o in self.ops if o.name == self.pair)
        default_csv = (op.outdir / "result.csv").read_bytes()
        single = self.ctx.cli_op(op.name + ".workers1", op.argv + ["--workers", "1"],
                                 op.check)
        result = self.run_op(single, spans.NullTracer())
        if result is None:
            return None
        if (single.outdir / "result.csv").read_bytes() != default_csv:
            self.problems.append(f"{op.name}: result.csv differs at --workers 1")
        return result[0] / statistics.median(r[op.name][0] for r in self.rounds
                                             if op.name in r)


def alloc_peak_mb(runner: Runner) -> float:
    """Largest tracemalloc peak over the workload's oracle calls."""
    peak = 0
    for call in workloads.oracle_alloc_calls(runner.ctx):
        tracemalloc.start()
        try:
            call()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2 ** 20


def layer_metrics(runner: Runner, speedup: float | None, alloc_mb: float) -> dict:
    """Per-round per-layer figures from the spans of the timed rounds."""
    recorded = runner.tracer.spans
    self_time = runner.tracer.self_times()
    rounds = len(runner.rounds)

    def named(name, **match):
        return [s for s in recorded if s["name"] == name
                and all(s["counts"].get(k) == v for k, v in match.items())]

    def seconds(prefix):
        return sum(self_time[s["id"]] for s in recorded
                   if s["name"].startswith(prefix)) / rounds

    def count(name, key=None):
        found = named(name)
        return sum(s["counts"].get(key, 0) if key else 1 for s in found) / rounds

    def rate(name, key, **match):
        found = named(name, **match)
        busy = sum(self_time[s["id"]] for s in found)
        return sum(s["counts"][key] for s in found) / busy if busy else 0.0

    def duration(s):
        return s["end"] - s["start"]

    # cli.main's own time: the command's span minus the same library calls
    # made directly right after it (the op's other child spans).
    overhead = 0.0
    for op in named("op"):
        kids = [s for s in recorded if s["parent"] == op["id"]]
        if any(s["name"] == "cli.main" for s in kids):
            overhead += sum(duration(s) if s["name"] == "cli.main" else -duration(s)
                            for s in kids)

    metrics = {
        "env.parse_s": (seconds("env."), "s"),
        "bounds.H_s": (seconds("bounds.sn_tail_bound"), "s"),
        "bounds.H_evals": (count("bounds.sn_tail_bound"), "count"),
        "simulate.trajectory_s": (seconds("simulate.simulate_trajectory"), "s"),
        "simulate.trajectories": (count("simulate.simulate_trajectory"), "count"),
        "simulate.approx_trajectories": (count("simulate.simulate_trajectory", "approx"), "count"),
        "oracle.exact_sn_tail_s": (seconds("oracle.exact_sn_tail"), "s"),
        "oracle.sequences_per_s": (rate("oracle.exact_sn_tail", "sequences"), "1/s"),
        "oracle.exact_logZn_tail_s": (seconds("oracle.exact_logZn_tail"), "s"),
        "oracle.exact_EWn_s": (seconds("oracle.exact_EWn"), "s"),
        "oracle.alloc_peak_mb": (alloc_mb, "MB"),
        "estimate.mc_tail_sn_trials_per_s": (rate("estimate.mc_tail_sn", "trials"), "1/s"),
        "estimate.mc_tail_logzn_trials_per_s":
            (rate("estimate.mc_tail_logzn", "trials", bigint=0), "1/s"),
        "estimate.mc_logw_increments_trials_per_s":
            (rate("estimate.mc_logw_increments", "trials"), "1/s"),
        "estimate.mc_tail_logzn_big_trials_per_s":
            (rate("estimate.mc_tail_logzn", "trials", bigint=1), "1/s"),
        "estimate.convergence_report_s": (seconds("estimate.convergence_report"), "s"),
        "estimate.binomial_ci_s": (seconds("estimate.binomial_ci"), "s"),
        "estimate.parallel_speedup": (speedup or 0.0, "ratio"),
        "cli.overhead_s": (overhead / rounds, "s"),
        "cli.bytes_written": (count("cli.main", "bytes"), "bytes"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run(args, setup_s: float | None, out: Path) -> dict:
    """Warm up, run the timed rounds and the workers pair, and return the
    run's result; the result and (traced) the spans are also written to out."""
    workdir = out / f"run-{args.workload}-{os.getpid()}"
    try:
        runner = Runner(args, workdir)
        workloads.warm_call(runner.ctx)
        runner.run_rounds()
        wall_s, cpu_s = runner.round_medians()
        speedup = runner.workers_pair()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runner.check_outputs()
        if args.trace:
            metrics = layer_metrics(runner, speedup, alloc_peak_mb(runner))
            runner.tracer.write(out / f"spans-{args.workload}-seed{args.seed}.json",
                                {"workload": args.workload, "seed": args.seed})
        else:
            metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                       "wall_s": {"value": wall_s, "unit": "s"},
                       "cpu_s": {"value": cpu_s, "unit": "s"},
                       "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_wall = {op.name: [r[op.name][0] for r in runner.rounds if op.name in r]
               for op in runner.ops}
    for name, times in op_wall.items():
        print(f"{name}: " + " ".join(f"{t:.4f}" for t in times))
    print(f"rounds: {len(runner.rounds)}, round wall median {wall_s:.4f} s, "
          f"cpu median {cpu_s:.4f} s")
    for problem in runner.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    result = {"correct": not runner.problems, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    (out / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "round_wall_s": wall_s, "round_cpu_s": cpu_s, "op_wall_s": op_wall,
                    "result": result}, indent=1) + "\n", encoding="utf-8")
    return result
