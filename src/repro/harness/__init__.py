"""Experiment harness: runners, normalization, figures, reports."""

from repro.harness.analytic import (
    predict_on_demand_ipc,
    predict_prefetch_bounds,
    predict_prefetch_ipc,
    predict_swq_peak_ipc,
)
from repro.harness.applications import APPLICATIONS
from repro.harness.experiment import MeasureWindow, run_microbench
from repro.harness.figures import ALL_FIGURES, FigureResult, Series
from repro.harness.sweep import (
    MODEL_VERSION,
    JobOutcome,
    JobRun,
    ResultCache,
    SweepEngine,
    SweepJob,
    SweepSpec,
    baseline_job,
    job_digest,
    normalized,
    run_job,
)
from repro.harness.regression import (
    compare_to_baseline,
    load_baseline,
    save_baseline,
)
from repro.harness.report import render_chart, render_summary, render_table, to_csv

__all__ = [
    "ALL_FIGURES",
    "MODEL_VERSION",
    "JobOutcome",
    "JobRun",
    "ResultCache",
    "SweepEngine",
    "SweepJob",
    "SweepSpec",
    "baseline_job",
    "compare_to_baseline",
    "job_digest",
    "load_baseline",
    "predict_on_demand_ipc",
    "predict_prefetch_bounds",
    "predict_prefetch_ipc",
    "predict_swq_peak_ipc",
    "render_chart",
    "save_baseline",
    "APPLICATIONS",
    "FigureResult",
    "MeasureWindow",
    "Series",
    "normalized",
    "render_summary",
    "render_table",
    "run_job",
    "run_microbench",
    "to_csv",
]
