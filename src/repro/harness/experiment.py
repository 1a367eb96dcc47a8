"""Experiment driver: build a system, run it, normalize to baselines.

Implements the paper's measurement protocol (section IV-C):

* microbenchmark performance is "normalized work IPC" -- work
  instructions retired per cycle, divided by the work IPC of a
  single-threaded on-demand DRAM baseline at the same work-count (and
  the same MLP for the MLP experiments);
* application performance is baseline execution time / device
  execution time for the same operation count.

The baseline run and the ratio come from :mod:`repro.harness.sweep`
(:func:`~repro.harness.sweep.baseline_job`,
:func:`~repro.harness.sweep.normalize`), the same rule the figures use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.obs import invariants
from repro.host.system import System, WindowStats
from repro.units import us
from repro.workloads.microbench import MicrobenchSpec, install_microbench

__all__ = [
    "MeasureWindow",
    "MicrobenchResult",
    "run_microbench",
    "normalized_microbench",
]


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


@dataclass
class MicrobenchResult:
    """One microbenchmark run, plus the system's diagnostics."""

    config: SystemConfig
    spec: MicrobenchSpec
    stats: WindowStats
    report: dict = field(repr=False, default_factory=dict)

    @property
    def work_ipc(self) -> float:
        return self.stats.work_ipc


def run_microbench(
    config: SystemConfig,
    spec: MicrobenchSpec,
    window: MeasureWindow = MeasureWindow(),
    tracer=None,
    collect_metrics: bool = False,
    check_invariants: bool = False,
) -> MicrobenchResult:
    """Run the (free-running) microbenchmark and measure one window.

    ``tracer`` (a :class:`repro.obs.Tracer`) records a structured
    timeline of the run; ``collect_metrics`` adds the full registry
    snapshot to the result's report under ``"metrics"``;
    ``check_invariants`` runs the online sanitizer
    (:class:`repro.obs.invariants.InvariantMonitor`) alongside the
    simulation -- a passive observer, so results are bit-for-bit
    unchanged, but a broken conservation law raises an
    :class:`~repro.obs.invariants.InvariantViolation`.
    """
    monitor = None
    if check_invariants:
        monitor = invariants.InvariantMonitor()
        tracer = monitor.tee(tracer)
    system = System(config, tracer=tracer)
    if monitor is not None:
        monitor.attach(system)
    install_microbench(system, spec, config.threads_per_core)
    stats = system.run_window(window.warmup_ticks, window.measure_ticks)
    report = system.report()
    if monitor is not None:
        monitor.check_now()
        report["invariants"] = monitor.summary()
    if collect_metrics:
        report["metrics"] = system.metrics_snapshot()
    return MicrobenchResult(config, spec, stats, report)


def normalized_microbench(
    config: SystemConfig,
    spec: MicrobenchSpec,
    window: MeasureWindow = MeasureWindow(),
    collect_metrics: bool = False,
    check_invariants: bool = False,
) -> tuple[float, MicrobenchResult]:
    """Normalized work IPC (the paper's headline metric) plus the run.

    The baseline matches the run's work-count *and* MLP: "the
    microsecond-latency device results are normalized to the DRAM
    baseline with a matching degree of MLP" (section V-B).
    ``check_invariants`` sanitizes the measured run (the baseline runs
    the same model, so checking it too would only double the cost).
    """
    from repro.harness.sweep import SweepJob, baseline_job, normalize

    job = SweepJob(config=config, spec=spec, window=window)
    result = run_microbench(
        config,
        spec,
        window,
        collect_metrics=collect_metrics,
        check_invariants=check_invariants,
    )
    base = baseline_job(job)
    baseline = run_microbench(base.config, base.spec, base.window)
    value = normalize(job, {"work_ipc": result.work_ipc}, {"work_ipc": baseline.work_ipc})
    return value, result
