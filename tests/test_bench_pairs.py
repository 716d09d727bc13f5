"""The verdicts and totals that ``tools/bench_pairs.py`` prints, on
synthetic run records."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402

METRICS = [{"name": "problems_per_s", "better": "higher", "bound": 0.25},
           {"name": "latency_p50_s", "better": "lower", "bound": 0.25}]


def _runs(parent, change, failed=(0, 0)):
    """One pair per seed, each side with its ``problems_per_s`` value
    and the reciprocal as ``latency_p50_s``."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        for side, value, fails in (("parent", p, failed[0]),
                                   ("change", c, failed[1])):
            runs.append({"side": side, "seed": seed, "attempted": 100,
                         "failed": fails, "metrics": {
                             "problems_per_s": {"value": value},
                             "latency_p50_s": {"value": 1.0 / value}}})
    return runs


def _verdicts(runs):
    return [line.rsplit(", ", 1)[1] for line in bench_pairs.summary(runs, METRICS)[4:]]


def test_a_change_inside_its_bound_is_within():
    assert _verdicts(_runs([100, 101, 99, 100], [95, 96, 94, 97])) == ["within"] * 2


def test_a_median_worse_by_more_than_the_bound_is_worse():
    # 70 against 100 is 30% fewer problems a second, and 43% more latency.
    assert _verdicts(_runs([100, 101, 99, 100], [70, 71, 69, 70])) == ["worse"] * 2


def test_a_wide_parent_is_unresolved_unless_every_change_run_wins():
    parent = [50, 100, 150, 200]
    assert _verdicts(_runs(parent, [60, 110, 160, 210])) == ["unresolved"] * 2
    assert _verdicts(_runs(parent, [201, 202, 203, 204])) == ["within"] * 2


def test_worse_is_told_before_unresolved():
    assert _verdicts(_runs([50, 100, 150, 200], [10, 20, 30, 40])) == ["worse"] * 2


def test_each_side_prints_its_failed_and_attempted_totals():
    lines = bench_pairs.summary(_runs([100, 100, 100], [100, 100, 100],
                                      failed=(1, 2)), METRICS)
    assert lines[:3] == ["3 pairs", "parent: failed 3 of 300 attempted",
                         "change: failed 6 of 300 attempted"]


def test_a_larger_failed_share_is_worse():
    def share_line(failed):
        return bench_pairs.summary(_runs([100] * 3, [100] * 3, failed), METRICS)[3]

    assert share_line((1, 2)) == "failed share: parent 1.000%, change 2.000%, worse"
    assert share_line((2, 1)).endswith(", within")
    assert share_line((0, 0)) == "failed share: parent 0.000%, change 0.000%, within"
