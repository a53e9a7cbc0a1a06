import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
pairs_tool = runpy.run_path(str(ROOT / "tools" / "bench_pairs.py"),
                            run_name="bench_pairs")


def result(wall_s, rss, correct=True, failed=0, attempted=10):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_quartiles_match_bench_figures_spread():
    # statistics.quantiles' default (exclusive) method: the p-quantile sits
    # at position p (n + 1) of the sorted values
    assert pairs_tool["quartiles"]([4.0, 1.0, 3.0, 2.0, 5.0]) == (1.5, 3.0, 4.5)
    assert pairs_tool["quartiles"]([7.0]) == (7.0, 7.0, 7.0)


def test_summary_of_made_up_pairs():
    # wall_s: the change is lower in pairs 1, 2 and 4; peak_rss_mb is lower
    # better too and higher on the change in every pair; the change's third
    # run gave no result
    pairs = [(result(1.0, 40.0), result(0.9, 41.0)),
             (result(2.0, 40.0), result(1.5, 41.0)),
             (result(3.0, 40.0, failed=1), None),
             (result(4.0, 40.0, correct=False), result(3.0, 41.0, failed=2))]
    lines = pairs_tool["summary"](pairs, {"wall_s": "lower",
                                          "peak_rss_mb": "lower"})
    assert len(lines) == 5
    wall, rss, base, change = (line.split() for line in lines[1:])
    assert wall == ["wall_s", "2.5", "(1.25-3.75)", "1.5", "(0.9-3)",
                    "3", "of", "3", "pairs"]
    assert rss == ["peak_rss_mb", "40", "(40-40)", "41", "(41-41)",
                   "0", "of", "3", "pairs"]
    assert " ".join(base) == "base: 3 of 4 runs correct, 1 of 40 operations failed"
    assert " ".join(change) == ("change: 3 of 4 runs correct, "
                                "2 of 30 operations failed")


def test_higher_is_better_counts_the_larger_value():
    pairs = [(result(1.0, 40.0), result(2.0, 40.0)),
             (result(1.0, 40.0), result(1.0, 40.0))]
    lines = pairs_tool["summary"](pairs, {"wall_s": "higher"})
    assert lines[1].split()[-4:] == ["1", "of", "2", "pairs"]
