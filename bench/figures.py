#!/usr/bin/env python3
"""Reference figures for bench/README.md.

    python3 bench/figures.py spread    # spread of the saved run results
    python3 bench/figures.py imports   # where `import bpre` spends its time
    python3 bench/figures.py workers   # each Monte Carlo command at 1 and at all workers

`spread` reads the result files that bench/run.py leaves in bench/out/: for
each workload and end-to-end metric it prints the median and the distance
between the first and third quartile as a share of the median, and for
traced runs the traced round time next to the untraced one.
"""
from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import run


def spread() -> None:
    results = defaultdict(list)
    for path in sorted(run.OUT.glob("result-*.json")):
        doc = json.loads(path.read_text())
        results[(doc["workload"], doc["trace"])].append(doc)
    for (workload, traced), docs in sorted(results.items()):
        print(f"{workload} trace={traced}: {len(docs)} runs, "
              f"correct={all(d['result']['correct'] for d in docs)}, "
              f"failed={sum(d['result']['failed'] for d in docs)}")
        names = ["round_wall_s"] + ([] if traced else list(docs[0]["result"]["metrics"]))
        for name in names:
            values = [d["round_wall_s"] if name == "round_wall_s"
                      else d["result"]["metrics"][name]["value"] for d in docs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print(f"  {name:14s} median {med:10.4f}  (q3-q1)/median {(q3 - q1) / med:.4f}  "
                  f"min {min(values):.4f}  max {max(values):.4f}")


def imports() -> None:
    env = {**os.environ, "PYTHONPATH": str(run.SRC)}
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bpre"],
                         env=env, capture_output=True, text=True, check=True).stderr
    cumulative = {}
    for line in err.splitlines():
        if line.startswith("import time:") and "cumulative" not in line:
            _, cum, name = line[len("import time:"):].split("|")
            cumulative[name.strip()] = int(cum) / 1e6
    for name in ("bpre", "bpre.estimate", "scipy.stats", "scipy", "numpy", "bpre.cli"):
        if name in cumulative:
            print(f"  {name:14s} {cumulative[name]:.3f} s (cumulative)")


def workers() -> None:
    run.load_program()
    import workloads
    for name in ("mc_verify", "big_population"):
        ctx = workloads.Context(name, 1, run.OUT / f"figures-{os.getpid()}")
        ops, _ = workloads.build(ctx)
        for op in ops:
            if op.argv is None or op.argv[0] == "simulate":
                continue
            times = []
            for extra in (["--workers", "1"], []):
                single = ctx.cli_op(op.name, op.argv + extra, op.check)
                single.prepare()
                start = time.perf_counter()
                single.run()
                times.append(time.perf_counter() - start)
            print(f"  {op.name:28s} 1 worker {times[0]:7.3f} s   "
                  f"{ctx.workers} workers {times[1]:7.3f} s   ratio {times[0] / times[1]:.2f}")
        shutil.rmtree(ctx.workdir, ignore_errors=True)


if __name__ == "__main__":
    {"spread": spread, "imports": imports, "workers": workers}[sys.argv[1]]()
