"""The gain rule of tools/ab_pairs.py on hand-made paired runs."""

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
