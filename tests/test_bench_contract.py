"""The library calls and result fields the benchmark relies on.

A traced bench run (`bench/run.py --trace 1`) follows each command with its
mirror: the library calls the command makes, made directly, then a
comparison with keys of the command's result.json. Mirrors and the set-up
probe's warm call run outside the harness's per-operation exception guard,
so a renamed function, argument or result field ends the whole run. These
tests import bench/workloads.py read-only and make those calls at small
sizes.
"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """bench/ on the path, with bytecode writes off so nothing lands in it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads
    return workloads, spans


def small_ops(workloads, ctx):
    """One operation of each command kind the workloads build, at a size
    that runs in well under a second."""
    b, g = ctx.models["binary"], ctx.models["generic"]
    return [workloads.verify_sn(ctx, b, 6, 0.5, 2000),
            workloads.verify_theorem1(ctx, g, 8, 2000),
            workloads.verify_increments(ctx, g, 8, 2000),
            workloads.converge(ctx, b, [4, 8], [0.1, 0.2], 1000, None),
            workloads.verify_oracle(ctx, b, 6, 3),
            workloads.oracle_point(ctx, b, 6, 0.5),
            workloads.simulate(ctx, b, 12, 4)]


def test_each_mirror_agrees_with_its_command(bench, tmp_path):
    workloads, spans = bench
    ctx = workloads.Context("mc_verify", 5, tmp_path / "work")
    for op in small_ops(workloads, ctx):
        op.prepare()
        out = workloads.Output(op.run(), op.outdir)
        assert out.value == 0, op.name
        tracer = spans.Tracer()
        assert op.mirror(tracer, out) == [], op.name
        assert tracer.spans and all(s["end"] is not None for s in tracer.spans)
        # the full checks read result fields too; at these sizes their
        # statistical verdicts are not asserted, only that they run
        assert isinstance(op.check(out), list), op.name


@pytest.mark.parametrize("workload", ["mc_verify", "exact_oracle",
                                      "big_population"])
def test_warm_call(bench, tmp_path, workload):
    workloads, _ = bench
    workloads.warm_call(workloads.Context(workload, 0, tmp_path / workload))
