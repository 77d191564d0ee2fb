"""The gain, no-regression and failed-share rules of tools/ab_pairs.py on
hand-made paired runs, and the src_lines it reads from a run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

# ten parent runs with quartiles 10.25 and 12.75 (inclusive method)
PARENT = [10.0, 11.0, 12.0, 13.0, 10.0, 11.0, 12.0, 13.0, 10.0, 13.0]


def test_quartiles_interpolate_between_order_statistics():
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert ab_pairs.quartiles(PARENT) == (10.25, 11.5, 12.75)


def test_nine_wins_and_a_gap_past_the_iqr_is_a_gain():
    change = [p - 5.0 for p in PARENT]
    change[3] = PARENT[3] + 1.0  # one loss
    v = ab_pairs.verdict(PARENT, change, "lower")
    assert v["wins"] == 9 and v["pairs"] == 10
    assert v["parent_iqr"] == 2.5 and v["gap"] > 2.5
    assert v["gap_exceeds_iqr"] and v["gain"]


def test_eight_wins_is_no_gain():
    change = [p - 5.0 for p in PARENT]
    change[3] = change[7] = 20.0
    v = ab_pairs.verdict(PARENT, change, "lower")
    assert v["wins"] == 8 and v["gap_exceeds_iqr"] and not v["gain"]


def test_ties_count_for_neither_side():
    change = [p - 5.0 for p in PARENT]
    change[0] = PARENT[0]
    v = ab_pairs.verdict(PARENT, change, "lower")
    assert v["wins"] == 9 and v["gain"]
    change[1] = PARENT[1]
    v = ab_pairs.verdict(PARENT, change, "lower")
    assert v["wins"] == 8 and not v["gain"]


def test_a_gap_inside_the_iqr_is_no_gain():
    change = [p - 1.0 for p in PARENT]  # wins every pair by less than 2.5
    v = ab_pairs.verdict(PARENT, change, "lower")
    assert v["wins"] == 10 and v["gap"] == 1.0
    assert not v["gap_exceeds_iqr"] and not v["gain"]


def test_higher_is_better_turns_the_rule_around():
    up = [p + 5.0 for p in PARENT]
    assert ab_pairs.verdict(PARENT, up, "higher")["gain"]
    v = ab_pairs.verdict(PARENT, up, "lower")
    assert v["wins"] == 0 and v["gap"] == -5.0 and not v["gain"]


def test_unpaired_runs_are_rejected():
    with pytest.raises(ValueError, match="same positive number"):
        ab_pairs.verdict(PARENT, PARENT[:-1], "lower")
    with pytest.raises(ValueError, match="same positive number"):
        ab_pairs.verdict([], [], "lower")


def test_a_median_worse_past_the_bound_regresses():
    # parent median 11.5: a bound of 0.1 allows the change up to 12.65
    for shift, bound, worse in [(1.0, 0.1, False), (1.2, 0.1, True),
                                (-3.0, 0.1, False), (1.2, 0.25, False)]:
        v = ab_pairs.verdict(PARENT, [p + shift for p in PARENT], "lower")
        assert ab_pairs.regressed(v, bound) is worse
    # higher is better: a drop is the regression
    down = ab_pairs.verdict(PARENT, [p - 1.2 for p in PARENT], "higher")
    assert ab_pairs.regressed(down, 0.1)
    up = ab_pairs.verdict(PARENT, [p + 1.2 for p in PARENT], "higher")
    assert not ab_pairs.regressed(up, 0.1)


def test_failed_share_sums_over_a_sides_runs():
    parent = [{"failed": 1, "attempted": 10}, {"failed": 1, "attempted": 90}]
    change = [{"failed": 0, "attempted": 10}, {"failed": 3, "attempted": 90}]
    # the mean of per-run shares would fall (0.056 to 0.017); the summed
    # share rises, from 2/100 to 3/100
    assert ab_pairs.failed_share(parent) == 0.02
    assert ab_pairs.failed_share(change) == 0.03
    assert ab_pairs.failed_share([{"failed": 0, "attempted": 0}]) == 0.0


def test_bench_reads_src_lines_from_the_meta_line(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        "print(json.dumps({'meta': {'src_lines': 3210}}))\n"
        "print(' slack setup_s 0.3 s')\n"
        "print(json.dumps({'correct': True, 'failed': 0, 'metrics': {}}))\n")
    run = ab_pairs.bench(tmp_path, "slack", 1, 1)
    assert run == {"correct": True, "failed": 0, "metrics": {},
                   "src_lines": 3210}
