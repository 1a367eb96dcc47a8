"""Golden grid digests for every figure and every trace scenario.

``test_golden_fig3`` pins one figure's values; this pins what every
figure *asks for*.  Each figure function runs against a recording
engine that returns fixed payloads (no simulation), and the digest of
its sweep -- the sweep name, the ordered ``job_digest`` of every job,
the figure header, the series labels and each series' x values -- must
match ``tests/golden/figure_grids.json``.  Job digests use the fixed
salt ``"grid"`` rather than ``MODEL_VERSION``, so a model-version bump
does not churn the file; any moved, added, dropped or reordered job
does.  The trace scenarios are pinned the same way, by digest and
label.

Regenerate (only when a grid is meant to change) with::

    PYTHONPATH=src python tests/integration/test_golden_grids.py
"""

import json
import pathlib

import pytest

from repro.harness.figures import ALL_FIGURES
from repro.harness.sweep import JobOutcome, SweepSpec, job_digest
from repro.obs.runlog import digest_of
from repro.obs.scenarios import TRACE_SCENARIOS

GOLDEN = pathlib.Path(__file__).parent.parent / "golden" / "figure_grids.json"

SCALES = ("quick", "full")

#: Enough for every figure to finish: a normalized microbenchmark or
#: application point (``work_ipc``, ``ticks``/``operations``) and a
#: service point's sojourn quantiles.
_PAYLOAD = {
    "work_ipc": 1.0, "ticks": 1, "operations": 1,
    "p50_ns": 1000.0, "p99_ns": 2000.0, "p999_ns": 3000.0,
}


class RecordingEngine:
    """Stands in for :class:`~repro.harness.sweep.SweepEngine`: keeps
    every submitted sweep and answers each job with ``_PAYLOAD``."""

    def __init__(self):
        self.sweeps: list[SweepSpec] = []

    def run(self, sweep):
        self.sweeps.append(sweep)
        return [JobOutcome(job, "", dict(_PAYLOAD), cached=False) for job in sweep.jobs]


def _grid_digest(name: str, scale: str) -> str:
    engine = RecordingEngine()
    figure = ALL_FIGURES[name](scale, engine=engine)
    (sweep,) = engine.sweeps
    return digest_of({
        "sweep": sweep.name,
        "jobs": [job_digest(job, salt="grid") for job in sweep.jobs],
        "header": [figure.figure_id, figure.title, figure.xlabel, figure.ylabel],
        "labels": [line.label for line in figure.series],
        "xs": [[x for x, _y in line.points] for line in figure.series],
    })


def _scenarios() -> dict:
    return {
        name: {"digest": job_digest(job, salt="grid"), "label": job.label}
        for name, job in TRACE_SCENARIOS.items()
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", sorted(ALL_FIGURES))
def test_figure_grid_is_unchanged(name, scale):
    assert _grid_digest(name, scale) == _golden()["grids"][f"{name}/{scale}"]


def test_golden_file_covers_every_figure_and_scale():
    assert sorted(_golden()["grids"]) == sorted(
        f"{name}/{scale}" for name in ALL_FIGURES for scale in SCALES
    )


def test_trace_scenarios_are_unchanged():
    assert _scenarios() == _golden()["scenarios"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({
        "grids": {
            f"{name}/{scale}": _grid_digest(name, scale)
            for name in sorted(ALL_FIGURES) for scale in SCALES
        },
        "scenarios": _scenarios(),
    }, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
