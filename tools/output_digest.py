#!/usr/bin/env python3
"""sha256 digest of the output files of a fixed list of bpre commands.

Run from anywhere; bpre is imported from src/ of the checkout this script
sits in. Its output is committed as tools/digest.txt, which the tier-1 test
tests/test_cli.py::test_output_digest_matches_digest_txt compares line by
line; a change that moves output bytes regenerates the file in the same
commit, so the file's diff shows which runs moved:

    python3 tools/output_digest.py > tools/digest.txt

The first line, `# python VERSION  numpy VERSION  openblas CORE`, names
what the digest was made under: the manifests record both versions, numpy's
streams may change across releases, and the float64 dot products of
np.convolve sum in the order of the OpenBLAS core (the kernel OpenBLAS
picks for the CPU, or OPENBLAS_CORETYPE).
Each command runs in-process through bpre.cli.main, at seed 3 where it
takes one, with --out in a temporary directory. The script prints one
`exit CODE  RUN` line per command and one `SHA256  RUN/FILE` line per
result* file. Where the run wrote manifest.json, a `SHA256  RUN/manifest.json`
line follows: the digest of the manifest without its `created_utc` line
(a timestamp) and with the temporary directory written as ROOT. Last come
`stdout  RUN  TEXT` and `stderr  RUN  TEXT` lines for what the run printed,
TEXT as a JSON string, one line each where the stream is not empty. A
kernel section follows, which calls the exact log Z_n kernel directly: one
`SHA256  kernel/MODEL-nN[-cutC]` line per propagation, the digest of the
bytes of every law oracle._annealed_laws returns, then
`exact_EWn  MODEL  n=6  VALUE` and `exact_logw_increments  MODEL  g=7
VALUES` lines, each VALUE a repr. A refactor that must keep every output
byte leaves tools/digest.txt as it is.
Every manifest.json must list exactly the result* files of its directory;
the script asserts it.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bpre.cli import main  # noqa: E402
from bpre.env import parse_env_config  # noqa: E402
from bpre.oracle import (_annealed_laws, exact_EWn,  # noqa: E402
                         exact_logw_increments)

SEED = "3"
# The exact oracles and the assumption and bound checks draw nothing and
# take no --seed.
EXACT = ("oracle", "verify oracle", "env-check", "bound")

# The README model (offspring {1, 2}), the bench's {1, 2, 3} model, a
# {1,2} / deterministic {2} / {1,2,3} chain mix, and a four-state {1, 2}
# model, and a model with p0 > 0, which env-check fails and simulate refuses;
# then two models of point masses alone, {2} (H1 fails) and {2} / {3} (H1
# holds, every log W increment is 0), which the verify modes refuse.
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
    "extinct": {"model": "generic", "states": [
        {"label": "risky", "mass": 0.5, "offspring": {"0": 0.2, "2": 0.8}},
        {"label": "safe", "mass": 0.5, "offspring": {"1": 0.5, "2": 0.5}}]},
    "doubling": {"model": "generic", "states": [
        {"label": "double", "mass": 1.0, "offspring": {"2": 1.0}}]},
    "two-or-three": {"model": "generic", "states": [
        {"label": "two", "mass": 0.5, "offspring": {"2": 1.0}},
        {"label": "three", "mass": 0.5, "offspring": {"3": 1.0}}]},
}

# (run name, command, model or None for no config, flags)
RUNS = [
    # populations pass 2^62, so Gaussian draws: approx_sampling_used is true
    ("simulate-binary-n200", "simulate", "binary", "--n 200 --trials 512"),
    ("simulate-binary-n30", "simulate", "binary", "--n 30 --trials 8"),
    ("simulate-generic-n30", "simulate", "generic", "--n 30 --trials 8"),
    ("simulate-generic-n120", "simulate", "generic", "--n 120 --trials 8"),
    ("simulate-mixed-n60", "simulate", "mixed", "--n 60 --trials 8"),
    ("simulate-mixed-n150", "simulate", "mixed", "--n 150 --trials 16"),
    # single trajectories, each Z below 2^53 and every draw exact
    ("simulate-binary-n60", "simulate", "binary", "--n 60"),
    ("simulate-mixed-n40", "simulate", "mixed", "--n 40"),
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
    ("env-check", "env-check", "binary", ""),
    ("env-check-extinct", "env-check", "extinct", "--p 3"),
    ("bound-v", "bound", None, "--n 10 --x 0.5 --v 1.5"),
    ("bound-sigma", "bound", None, "--n 10 --x 0.5 --sigma 0.3 --M 0.6"),
    # refused before any file: exit 1
    ("simulate-extinct", "simulate", "extinct", "--n 8"),
    ("verify-theorem1-doubling", "verify theorem1", "doubling", "--n 16"),
    ("verify-oracle-doubling", "verify oracle", "doubling", "--n 8"),
    ("verify-increments-two-or-three", "verify increments", "two-or-three",
     "--n 16"),
]


# (model, n, cut) of each propagation the kernel section digests. Binary
# n = 15 uncut ends in blocks of 646 atoms, past f^481, from which the binary
# offspring powers drop entries below 2^-960; binary n = 18 is cut at 5,214,
# the first atom of the x = 0.5 tail under M_tight.
KERNEL_LAWS = [("binary", 15, None), ("binary", 18, 5214), ("generic", 9, None),
               ("mixed", 8, None)]
KERNEL_MODELS = ("binary", "generic", "mixed")


def kernel_digest() -> list[str]:
    lines = []
    for model, n, cut in KERNEL_LAWS:
        laws = _annealed_laws(parse_env_config(MODELS[model]), n, cut=cut)
        sha = hashlib.sha256(b"".join(law.tobytes() for law in laws)).hexdigest()
        tag = "" if cut is None else f"-cut{cut}"
        lines.append(f"{sha}  kernel/{model}-n{n}{tag}")
    for model in KERNEL_MODELS:
        env = parse_env_config(MODELS[model])
        lines.append(f"exact_EWn  {model}  n=6  {exact_EWn(env, 6)!r}")
        lines.append(f"exact_logw_increments  {model}  g=7  "
                     f"{exact_logw_increments(env, 7)!r}")
    return lines


def manifest_digest(path: Path, root: Path) -> str:
    text = path.read_text(encoding="utf-8").replace(str(root), "ROOT")
    kept = "".join(line for line in text.splitlines(keepends=True)
                   if '"created_utc":' not in line)
    return hashlib.sha256(kept.encode()).hexdigest()


def digest(root: Path) -> list[str]:
    for name, config in MODELS.items():
        (root / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
    lines = []
    for run, command, model, flags in RUNS:
        config = [] if model is None else [str(root / f"{model}.json")]
        argv = [*command.split(), *config, *flags.split(),
                "--out", str(root / run)]
        if command not in EXACT:
            argv += ["--seed", SEED]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines.append(f"exit {code}  {run}")
        results = sorted((root / run).glob("result*"))
        for path in results:
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{sha}  {run}/{path.name}")
        manifest = root / run / "manifest.json"
        assert code != 0 or manifest.exists(), run
        if manifest.exists():
            outputs = json.loads(manifest.read_text())["outputs"]
            assert sorted(outputs) == [p.name for p in results], run
            lines.append(f"{manifest_digest(manifest, root)}  {run}/manifest.json")
        for stream, text in (("stdout", out), ("stderr", err)):
            if text.getvalue():
                lines.append(f"{stream}  {run}  {json.dumps(text.getvalue())}")
    return lines


def openblas_core() -> str:
    """The core of the OpenBLAS library numpy loaded, read through ctypes,
    or "unknown" where that library exports no core name."""
    core = getattr(np, "_core", None) or np.core
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
        corename = getattr(lib, name, None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def header() -> str:
    return (f"# python {platform.python_version()}  numpy {np.__version__}  "
            f"openblas {openblas_core()}")


def all_lines(root: Path) -> list[str]:
    """The whole digest: the header, the runs in root, the kernel section."""
    return [header(), *digest(root), *kernel_digest()]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(all_lines(Path(tmp))))
