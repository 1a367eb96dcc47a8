"""Experiment harness: runners, normalization, figures, reports."""

from repro.harness.analytic import (
    predict_on_demand_ipc,
    predict_prefetch_bounds,
    predict_prefetch_ipc,
    predict_swq_peak_ipc,
)
from repro.harness.applications import (
    APPLICATIONS,
    AppRun,
    normalized_application,
    run_application,
)
from repro.harness.experiment import (
    MeasureWindow,
    MicrobenchResult,
    normalized_microbench,
    run_microbench,
)
from repro.harness.figures import ALL_FIGURES, FigureResult, Series
from repro.harness.sweep import (
    MODEL_VERSION,
    JobOutcome,
    ResultCache,
    SweepEngine,
    SweepJob,
    SweepSpec,
    baseline_job,
    job_digest,
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
    "AppRun",
    "FigureResult",
    "MeasureWindow",
    "MicrobenchResult",
    "Series",
    "normalized_application",
    "normalized_microbench",
    "render_summary",
    "render_table",
    "run_application",
    "run_microbench",
    "to_csv",
]
