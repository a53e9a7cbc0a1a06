#!/usr/bin/env python3
"""Paired benchmark runs of two revisions, and their summary.

    python3 tools/bench_pairs.py BASE CHANGE --workload mc_verify --pairs 10

BASE and CHANGE are git revisions of the checkout this script sits in. Each
is unpacked with `git archive` into a temporary directory, removed
afterwards, and each pair runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

once in each copy, pair i (counting from 0) at seed S = 1 + i, T the
run_seconds of BENCHMARK.json. Even pairs run BASE first, odd pairs CHANGE first, so
neither side always runs on a cooler machine. The script then prints, for
each end-to-end metric of BENCHMARK.json, both sides' medians and quartiles
and the number of pairs in which CHANGE read better (by the metric's
"better" direction), and then both sides' counts of correct runs and failed
operations. A run that exits non-zero or prints no result counts as an
incorrect run with no metrics. Nothing is written into the repository.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by statistics.quantiles'
    default (exclusive) method, as `bench/figures.py spread` reads them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(pairs: list[tuple[dict | None, dict | None]],
            better: dict[str, str]) -> list[str]:
    """The report lines of pairs of bench/run.py results, (base, change)
    each, a result None for a run that gave none. better maps each metric
    to "lower" or "higher"; a pair counts for a metric only where both
    sides report it."""
    lines = [f"{'metric':<12} {'base median (q1-q3)':>28} "
             f"{'change median (q1-q3)':>28}  change better"]
    for name, direction in better.items():
        sides = []
        for side in (0, 1):
            values = [pair[side]["metrics"][name]["value"] for pair in pairs
                      if pair[side] is not None and name in pair[side]["metrics"]]
            if not values:
                sides.append("no runs")
                continue
            q1, median, q3 = quartiles(values)
            sides.append(f"{median:.4g} ({q1:.4g}-{q3:.4g})")
        both = [(base["metrics"][name]["value"], change["metrics"][name]["value"])
                for base, change in pairs if base is not None and change is not None
                and name in base["metrics"] and name in change["metrics"]]
        wins = sum(c < b if direction == "lower" else c > b for b, c in both)
        lines.append(f"{name:<12} {sides[0]:>28} {sides[1]:>28}  "
                     f"{wins} of {len(both)} pairs")
    for side, label in ((0, "base"), (1, "change")):
        results = [pair[side] for pair in pairs]
        correct = sum(r is not None and r["correct"] for r in results)
        failed = sum(r["failed"] for r in results if r is not None)
        attempted = sum(r["attempted"] for r in results if r is not None)
        lines.append(f"{label}: {correct} of {len(results)} runs correct, "
                     f"{failed} of {attempted} operations failed")
    return lines


def unpack(revision: str, dest: Path) -> Path:
    """A `git archive` of revision, extracted into dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision],
                             capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def bench(copy: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result of one bench/run.py run in copy, or None if it gave none."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{copy.name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as top:
        copies = (unpack(args.base, Path(top) / "base"),
                  unpack(args.change, Path(top) / "change"))
        pairs = []
        for i in range(args.pairs):
            seed = 1 + i
            order = (0, 1) if i % 2 == 0 else (1, 0)
            results = {side: bench(copies[side], args.workload, seed, seconds)
                       for side in order}
            pairs.append((results[0], results[1]))
            print(f"pair {i + 1} of {args.pairs}, seed {seed}, "
                  f"{'base' if order[0] == 0 else 'change'} first", file=sys.stderr)
    print(f"{args.workload}: {args.base} -> {args.change}, {args.pairs} pairs, "
          f"--seconds {seconds:g}")
    print("\n".join(summary(pairs, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
