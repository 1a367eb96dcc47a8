"""Figure-result comparison: diff a run against a recorded one.

A simulator's results should not drift silently under refactoring.
This module serializes a :class:`FigureResult` to JSON (the form the
run ledger records) and compares a fresh run against a baseline point
by point, reporting every deviation beyond a tolerance; nested numeric
mappings (kernel counters, result numbers) compare the same way.

CLI: ``repro figure fig3`` twice, then ``repro runs diff -2 -1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Union

from repro.errors import ConfigError
from repro.harness.figures import FigureResult

__all__ = [
    "Deviation",
    "compare_mappings",
    "compare_to_baseline",
    "figure_from_dict",
    "figure_to_dict",
    "flatten_numeric",
]

_FORMAT = "repro-figure-baseline-v1"


def figure_to_dict(figure: FigureResult) -> dict:
    return {
        "format": _FORMAT,
        "figure_id": figure.figure_id,
        "title": figure.title,
        "xlabel": figure.xlabel,
        "ylabel": figure.ylabel,
        "series": {
            series.label: [[x, y] for x, y in series.points]
            for series in figure.series
        },
    }


def figure_from_dict(payload: dict) -> FigureResult:
    if payload.get("format") != _FORMAT:
        raise ConfigError(
            f"not a figure baseline (format={payload.get('format')!r})"
        )
    figure = FigureResult(
        payload["figure_id"], payload["title"],
        payload["xlabel"], payload["ylabel"],
    )
    for label, points in payload["series"].items():
        series = figure.new_series(label)
        for x, y in points:
            series.add(x, y)
    return figure


@dataclass(frozen=True)
class Deviation:
    """One point that moved beyond tolerance (or appeared/vanished)."""

    series: str
    x: Union[float, None]
    baseline_y: Union[float, None]
    current_y: Union[float, None]
    kind: str  # "value" | "missing-point" | "new-point" | "missing-series" | "new-series"

    def describe(self) -> str:
        at = "" if self.x is None else f" @ x={self.x:g}"
        if self.kind == "value":
            return (
                f"{self.series}{at}: {self.baseline_y:.4f} -> "
                f"{self.current_y:.4f}"
            )
        if self.kind in ("missing-point", "new-point"):
            return f"{self.series}{at}: {self.kind}"
        return f"{self.series}: {self.kind}"


def _compare_points(
    base: dict, current: dict, rtol: float, atol: float,
    deviation: Callable[..., Deviation],
) -> list[Deviation]:
    """The one tolerance rule: every point of ``base`` (a mapping of
    point to value) that vanished, appeared or moved by more than
    ``atol + rtol * |base|`` in ``current``, each reported as
    ``deviation(point, base_y, current_y, kind)``."""
    found = [deviation(p, base[p], None, "missing-point") for p in base.keys() - current.keys()]
    found += [deviation(p, None, current[p], "new-point") for p in current.keys() - base.keys()]
    found += [
        deviation(p, base[p], current[p], "value")
        for p in base.keys() & current.keys()
        if abs(current[p] - base[p]) > atol + rtol * abs(base[p])
    ]
    return found


def compare_to_baseline(
    figure: FigureResult,
    baseline: FigureResult,
    rtol: float = 0.05,
    atol: float = 0.01,
) -> list[Deviation]:
    """Every point of ``figure`` vs ``baseline``, within tolerance.

    A point deviates when ``|current - base| > atol + rtol * |base|``.
    Structural differences (series or points added/removed) are always
    reported.
    """
    if figure.figure_id != baseline.figure_id:
        raise ConfigError(
            f"comparing {figure.figure_id} against a {baseline.figure_id} "
            "baseline"
        )
    deviations: list[Deviation] = []
    current = {series.label: dict(series.points) for series in figure.series}
    expected = {series.label: dict(series.points) for series in baseline.series}
    for label in expected.keys() - current.keys():
        deviations.append(Deviation(label, None, None, None, "missing-series"))
    for label in current.keys() - expected.keys():
        deviations.append(Deviation(label, None, None, None, "new-series"))
    for label in expected.keys() & current.keys():
        deviations += _compare_points(
            expected[label], current[label], rtol, atol, partial(Deviation, label)
        )
    deviations.sort(key=lambda d: (d.series, d.x if d.x is not None else -1))
    return deviations


def flatten_numeric(payload, prefix: str = "") -> dict[str, float]:
    """Dotted-key view of every number in a nested dict.

    Non-numeric leaves (strings, None, lists) are skipped: the run
    ledger mixes deterministic counters with metadata like digests and
    timestamps, and only the numbers are point-comparable.  Booleans
    are skipped too -- ``True == 1`` would make flag flips look like
    off-by-one counter drift.
    """
    flat: dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            flat.update(flatten_numeric(value, f"{prefix}{key}."))
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        flat[prefix[:-1]] = payload
    return flat


def compare_mappings(
    current: dict,
    baseline: dict,
    rtol: float = 0.0,
    atol: float = 0.0,
    label: str = "",
) -> list[Deviation]:
    """Diff two nested numeric mappings (kernel stats, metrics
    snapshots) with the same tolerance rule as figure baselines.

    The default tolerance is exact: these are event counts, and two
    runs of the same model version on the same config must agree
    bit-for-bit.  Pass ``rtol``/``atol`` when diffing across model
    changes.  ``label`` prefixes every reported key (e.g. ``"metrics"``).
    """
    stem = f"{label}." if label else ""
    deviations = _compare_points(
        flatten_numeric(baseline), flatten_numeric(current), rtol, atol,
        lambda key, base_y, new_y, kind: Deviation(stem + key, None, base_y, new_y, kind),
    )
    deviations.sort(key=lambda d: d.series)
    return deviations
