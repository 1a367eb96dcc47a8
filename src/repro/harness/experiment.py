"""Experiment driver: the measurement window and the microbenchmark run.

Implements the paper's measurement protocol (section IV-C):

* microbenchmark performance is "normalized work IPC" -- work
  instructions retired per cycle, divided by the work IPC of a
  single-threaded on-demand DRAM baseline at the same work-count (and
  the same MLP for the MLP experiments);
* application performance is baseline execution time / device
  execution time for the same operation count.

Every job kind runs through :func:`~repro.harness.sweep.run_job`; the
baseline run and the ratio come from :mod:`repro.harness.sweep`
(:func:`~repro.harness.sweep.baseline_job`,
:func:`~repro.harness.sweep.normalize`,
:func:`~repro.harness.sweep.normalized`), the same rule the figures use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.units import us
from repro.workloads.microbench import MicrobenchSpec

__all__ = ["MeasureWindow", "run_microbench"]


@dataclass(frozen=True)
class MeasureWindow:
    """Warmup + steady-state measurement durations."""

    warmup_us: float = 30.0
    measure_us: float = 120.0

    @property
    def warmup_ticks(self) -> int:
        return us(self.warmup_us)

    @property
    def measure_ticks(self) -> int:
        return us(self.measure_us)


def run_microbench(
    config: SystemConfig,
    spec: MicrobenchSpec,
    window: MeasureWindow = MeasureWindow(),
    tracer=None,
):
    """Run the (free-running) microbenchmark and measure one window:
    the :class:`~repro.harness.sweep.JobRun` of the microbench job."""
    from repro.harness.sweep import SweepJob, run_job

    return run_job(SweepJob(config=config, spec=spec, window=window), tracer)
