#!/usr/bin/env python3
"""Benchmark of bpre's two verification routes, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload mc_verify --seed 1 --seconds 16 --trace 0

Workloads: mc_verify, exact_oracle, big_population (see bench/README.md).
The program is imported from the checkout's src/ directory; nothing needs to
be installed. With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics (setup_s, wall_s, cpu_s, peak_rss_mb);
with --trace 1 it holds the per-layer metrics, and the spans are written to
bench/out/. Exit code 0 means the run finished and printed its result; the
result's "correct" field says whether every output check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("mc_verify", "exact_oracle", "big_population")

# Fresh interpreters launched per run to time set-up; the median is reported,
# so neither a cold file cache nor one slow launch sets the figure.
SETUP_LAUNCHES = 5

# The only compute threads are bpre's own workers; native pools stay at one.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=16.0,
                   help="length of the timed phase; whole rounds start until it is spent")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_program() -> None:
    """Put the checkout's src/ first on the path and import bpre from it."""
    if not (SRC / "bpre" / "__init__.py").is_file():
        sys.exit(f"bench: no bpre sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import bpre
    if Path(bpre.__file__).resolve().parent != (SRC / "bpre").resolve():
        sys.exit(f"bench: imported bpre from {bpre.__file__}, not from {SRC}")


def setup_probe(args: argparse.Namespace) -> None:
    """Child process: import bpre, parse and validate the workload's configs,
    make the first warm call, then report ready."""
    load_program()
    import workloads
    ctx = workloads.Context(args.workload, args.seed, OUT / f"probe-{os.getpid()}")
    workloads.warm_call(ctx)
    print("ready", flush=True)
    shutil.rmtree(ctx.workdir, ignore_errors=True)


def measure_setup(args: argparse.Namespace) -> float:
    """Median time from launching a fresh interpreter to its ready line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit code {code})")
        times.append(elapsed)
    return statistics.median(times)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    load_program()
    setup_s = None if args.trace else measure_setup(args)
    import measure
    print(json.dumps(measure.run(args, setup_s, OUT)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
