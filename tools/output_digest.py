#!/usr/bin/env python3
"""sha256 digest of the output files of a fixed list of bpre commands.

Run from anywhere; bpre is imported from src/ of the checkout this script
sits in:

    python3 tools/output_digest.py > digest.txt

Each command runs in-process through bpre.cli.main, at seed 3 where it
takes one, with --out in a temporary directory. The script prints one
`exit CODE  RUN` line per command and one `SHA256  RUN/FILE` line per
result* file. manifest.json is skipped: it carries a timestamp. A refactor
that must keep every output byte gives the same digest on the old and the
new tree, so `diff` the two. For every run that exits 0 the script asserts
that manifest.json lists exactly the result* files of its directory.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bpre.cli import main  # noqa: E402

SEED = "3"
# The exact oracles draw nothing and take no --seed.
EXACT = ("oracle", "verify oracle")

# The README model (offspring {1, 2}), the bench's {1, 2, 3} model, a
# {1,2} / deterministic {2} / {1,2,3} chain mix, and a four-state {1, 2}
# model.
MODELS = {
    "binary": {"model": "binary",
               "support": [{"p": 0.25, "mass": 0.5}, {"p": 0.75, "mass": 0.5}]},
    "generic": {"model": "generic", "states": [
        {"label": "low", "mass": 0.5, "offspring": {"1": 0.5, "2": 0.3, "3": 0.2}},
        {"label": "high", "mass": 0.5, "offspring": {"1": 0.2, "2": 0.3, "3": 0.5}}]},
    "mixed": {"model": "generic", "states": [
        {"label": "bin", "mass": 0.4, "offspring": {"1": 0.6, "2": 0.4}},
        {"label": "double", "mass": 0.3, "offspring": {"2": 1.0}},
        {"label": "chain", "mass": 0.3,
         "offspring": {"1": 0.3, "2": 0.5, "3": 0.2}}]},
    "four": {"model": "binary",
             "support": [{"p": p, "mass": 0.25} for p in (0.2, 0.4, 0.6, 0.8)]},
}

# (run name, command, model, flags)
RUNS = [
    ("simulate-binary-n200", "simulate", "binary", "--n 200 --trials 512"),
    ("simulate-binary-n30", "simulate", "binary",
     "--n 30 --trials 8 --exact-threshold 1000"),
    ("simulate-generic-n30", "simulate", "generic",
     "--n 30 --trials 8 --exact-threshold 1000"),
    ("simulate-generic-n120", "simulate", "generic", "--n 120 --trials 8"),
    ("simulate-mixed-n60", "simulate", "mixed",
     "--n 60 --trials 8 --exact-threshold 100"),
    ("simulate-mixed-n150", "simulate", "mixed", "--n 150 --trials 16"),
    # single trajectories: Z_60 passes 2^32, so Gaussian draws, but stays
    # below 2^53; the chain states of the mixed run take Gaussian draws
    ("simulate-binary-n60", "simulate", "binary", "--n 60"),
    ("simulate-mixed-n40", "simulate", "mixed", "--n 40 --exact-threshold 100"),
    ("verify-sn", "verify sn", "binary",
     "--n 10 --x 0.5 --trials 1e5 --workers 2"),
    ("verify-sn-generic", "verify sn", "generic",
     "--n 10 --x 0.5 --trials 1e5 --workers 2"),
    # x = 1 under M_tight: only the all-high sequence, on the threshold
    ("verify-sn-tie", "verify sn", "binary",
     "--n 10 --x 1 --M-kind tight --trials 1e5 --workers 2"),
    ("verify-sn-paper", "verify sn", "binary",
     "--n 10 --x 0.5 --M-kind paper --level 0.9 --trials 1e5 --workers 2"),
    # four states at n = 50: 23,426 state-count compositions
    ("verify-sn-four", "verify sn", "four",
     "--n 50 --x 0.2 --trials 1e5 --workers 2"),
    ("verify-theorem1", "verify theorem1", "generic",
     "--n 16 --trials 1e5 --workers 2"),
    ("verify-theorem1-reachable", "verify theorem1", "binary",
     "--n 16 --x 0.2 --M-kind tight --trials 1e5 --workers 2"),
    # binary n = 10: writes the cut kernel's exact_tail
    ("verify-theorem1-kernel", "verify theorem1", "binary",
     "--n 10 --x 0.2 --M-kind tight --trials 1e4"),
    # the exact tail of a {1, 2, 3} model at n = 6
    ("verify-theorem1-kernel-generic", "verify theorem1", "generic",
     "--n 6 --x 0.2 --M-kind tight --trials 1e4"),
    # a {1, 2, 3} model at n = 10, the last horizon whose whole kernel work
    # is within oracle.MAX_KERNEL_WORK
    ("verify-theorem1-cut-generic", "verify theorem1", "generic",
     "--n 10 --x 0.2 --M-kind tight --trials 1e4"),
    # the mixed model's exact tail at n = 8, through the kernel step of its
    # deterministic {2} state as well as its {1, 2} and {1, 2, 3} states
    ("verify-theorem1-kernel-mixed", "verify theorem1", "mixed",
     "--n 8 --x 0.2 --M-kind tight --trials 1e4"),
    # three states, one deterministic: state indices above 1 in the open
    # trials' rows; the exact tail's cut work is past oracle.MAX_KERNEL_WORK,
    # so exact_tail is null
    ("verify-theorem1-mixed", "verify theorem1", "mixed",
     "--n 20 --x 0.2 --M-kind tight --trials 1e5 --workers 2"),
    ("verify-increments", "verify increments", "generic",
     "--n 20 --trials 1e4 --workers 2"),
    ("verify-increments-window", "verify increments", "binary",
     "--n 12 --fit-lo 3 --fit-hi 9 --trials 1e4"),
    # a horizon short enough for every increment mean to come from the
    # annealed kernel law
    ("verify-increments-exact", "verify increments", "binary",
     "--n 8 --trials 1e4"),
    ("verify-oracle", "verify oracle", "binary", "--n 8 --grid-points 11"),
    ("verify-oracle-paper", "verify oracle", "generic",
     "--n 6 --grid-points 5 --M-kind paper"),
    # four states at n = 50: the grid's 21 tails over 23,426 compositions
    ("verify-oracle-four", "verify oracle", "four",
     "--n 50 --grid-points 21"),
    ("converge", "converge", "binary",
     "--n-values 8,16,32,70 --y-values 0.05,0.1,0.2 --trials 1e4 --workers 2"),
    ("converge-mixed", "converge", "mixed",
     "--n-values 8,20,60 --y-values 0.05,0.1,0.2 --trials 2e4 --workers 2"),
    ("oracle", "oracle", "binary", "--n 16 --x 0.5"),
]


def digest(root: Path) -> list[str]:
    for name, config in MODELS.items():
        (root / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
    lines = []
    for run, command, model, flags in RUNS:
        argv = [*command.split(), str(root / f"{model}.json"), *flags.split(),
                "--out", str(root / run)]
        if command not in EXACT:
            argv += ["--seed", SEED]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        lines.append(f"exit {code}  {run}")
        results = sorted((root / run).glob("result*"))
        if code == 0:
            manifest = json.loads((root / run / "manifest.json").read_text())
            assert sorted(manifest["outputs"]) == [p.name for p in results], run
        for path in results:
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{sha}  {run}/{path.name}")
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(digest(Path(tmp))))
