"""Tests for figure baselines and comparison."""

import pytest

from repro.errors import ConfigError
from repro.harness.figures import FigureResult
from repro.harness.regression import (
    compare_to_baseline,
    figure_from_dict,
    figure_to_dict,
)


def make_figure(values=(0.1, 0.5, 1.0)):
    figure = FigureResult("figZ", "Test", xlabel="threads", ylabel="norm")
    series = figure.new_series("1us")
    for x, y in zip((1, 4, 10), values):
        series.add(x, y)
    other = figure.new_series("4us")
    other.add(1, 0.05)
    return figure


def test_roundtrip_through_dict():
    figure = make_figure()
    clone = figure_from_dict(figure_to_dict(figure))
    assert clone.figure_id == figure.figure_id
    assert clone.get("1us").points == figure.get("1us").points
    assert clone.get("4us").points == figure.get("4us").points


def test_bad_format_rejected():
    with pytest.raises(ConfigError):
        figure_from_dict({"format": "something-else"})


def test_identical_runs_have_no_deviations():
    assert compare_to_baseline(make_figure(), make_figure()) == []


def test_small_drift_within_tolerance():
    baseline = make_figure((0.1, 0.5, 1.0))
    current = make_figure((0.102, 0.51, 1.02))
    assert compare_to_baseline(current, baseline, rtol=0.05) == []


def test_large_drift_reported():
    baseline = make_figure((0.1, 0.5, 1.0))
    current = make_figure((0.1, 0.8, 1.0))
    deviations = compare_to_baseline(current, baseline)
    assert len(deviations) == 1
    assert deviations[0].kind == "value"
    assert deviations[0].x == 4
    assert "0.5000 -> 0.8000" in deviations[0].describe()


def test_structural_changes_reported():
    baseline = make_figure()
    current = make_figure()
    current.series.pop()  # drop "4us"
    extra = current.new_series("8us")
    extra.add(1, 0.01)
    current.get("1us").points.pop()  # drop x=10
    deviations = compare_to_baseline(current, baseline)
    kinds = {d.kind for d in deviations}
    assert kinds == {"missing-series", "new-series", "missing-point"}


def test_mismatched_figures_rejected():
    baseline = make_figure()
    other = FigureResult("figQ", "Other", xlabel="x", ylabel="y")
    with pytest.raises(ConfigError):
        compare_to_baseline(other, baseline)


# ---------------------------------------------------------------------------
# Nested-mapping comparison (kernel stats, metrics snapshots)
# ---------------------------------------------------------------------------

def test_flatten_numeric_dotted_keys():
    from repro.harness.regression import flatten_numeric

    flat = flatten_numeric({
        "kernel": {"events": 10, "nested": {"deep": 2.5}},
        "label": "ignored",
        "flag": True,
        "empty": None,
        "listy": [1, 2],
        "top": 7,
    })
    assert flat == {
        "kernel.events": 10,
        "kernel.nested.deep": 2.5,
        "top": 7,
    }


def test_compare_mappings_exact_by_default():
    from repro.harness.regression import compare_mappings

    base = {"kernel": {"events": 100, "pops": 40}}
    assert compare_mappings(dict(base), base) == []
    moved = {"kernel": {"events": 101, "pops": 40}}
    deviations = compare_mappings(moved, base, label="stats")
    assert len(deviations) == 1
    assert deviations[0].series == "stats.kernel.events"
    assert deviations[0].kind == "value"
    assert "100.0000 -> 101.0000" in deviations[0].describe()


def test_compare_mappings_tolerance_and_structure():
    from repro.harness.regression import compare_mappings

    base = {"a": 100, "gone": 1}
    current = {"a": 104, "new": 2}
    loose = compare_mappings(current, base, rtol=0.05)
    kinds = sorted(d.kind for d in loose)
    assert kinds == ["missing-point", "new-point"]  # a is within 5%
    strict = compare_mappings(current, base)
    assert sorted(d.kind for d in strict) == [
        "missing-point", "new-point", "value",
    ]
