"""Service-mode experiment driver: open-loop load, SLO accounting.

Where :mod:`repro.harness.experiment` measures closed-loop work IPC,
this driver runs the memcached workload as a *service* under an
open-loop arrival process (:mod:`repro.workloads.loadgen`) and reports
the SLO quantities: p50/p99/p999 end-to-end sojourn time, queue-wait
tail, jitter, and achieved vs offered throughput, all over the
steady-state measurement window (warmup excluded -- the probes'
windowed reservoirs guarantee it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.harness.experiment import MeasureWindow
from repro.host.system import System
from repro.obs import invariants
from repro.units import US, to_ns
from repro.workloads.loadgen import OpenLoopSpec, install_service
from repro.workloads.memcached import MemcachedParams

__all__ = ["ServiceParams", "ServiceResult", "run_service"]


@dataclass(frozen=True)
class ServiceParams:
    """Everything the service run consumes beyond the system config."""

    open_loop: OpenLoopSpec = OpenLoopSpec()
    #: Store sizing (mirrors :class:`MemcachedParams`).
    items: int = 2048
    buckets: int = 2048
    value_bytes: int = 256
    work_count: int = 200
    #: Polling worker uthreads per logical core.
    workers_per_core: int = 8
    #: Request-scoped latency attribution (:mod:`repro.obs.spans`):
    #: every request carries a span tree, conservation is asserted at
    #: each completion, and the result payload gains the per-layer
    #: attribution table plus exemplar span trees.  Off by default --
    #: the disabled path is bit-for-bit passive (no ledger object
    #: exists; see ``benchmarks/test_attrib_overhead.py``).
    spans: bool = False
    #: K-slowest exemplar reservoir size (span runs only).
    span_exemplars: int = 8

    def __post_init__(self) -> None:
        if self.workers_per_core < 1:
            raise ConfigError("need at least one service worker per core")
        if self.span_exemplars < 1:
            raise ConfigError("need at least one span exemplar slot")

    def store_params(self) -> MemcachedParams:
        return MemcachedParams(
            items=self.items,
            buckets=self.buckets,
            value_bytes=self.value_bytes,
            work_count=self.work_count,
        )


@dataclass
class ServiceResult:
    """One service run: SLO stats plus the system's diagnostics."""

    config: SystemConfig
    params: ServiceParams
    #: Offered load per core over the measurement window (requests/us).
    offered_per_core_us: float
    #: Windowed arrival / completion counts.
    arrivals: int
    completions: int
    #: Windowed sojourn stats, nanoseconds.
    p50_ns: float
    p99_ns: float
    p999_ns: float
    mean_ns: float
    max_ns: float
    jitter_ns: float
    #: Windowed queue-wait tail, nanoseconds.
    wait_p99_ns: float
    #: Host-queue depth over the whole run (mean is time-weighted).
    queue_depth_mean: float
    queue_depth_max: float
    #: Achieved service rate over the window (requests/us, all cores).
    achieved_per_us: float
    report: dict = field(repr=False, default_factory=dict)
    #: Per-layer attribution table (``SpanLedger.attribution()``) when
    #: the run had spans enabled, else ``None``.
    attribution: Optional[dict] = None
    #: Exemplar span trees (``SpanLedger.exemplar_payload()``) when the
    #: run had spans enabled, else ``None``.
    exemplars: Optional[dict] = None

    def payload(self) -> dict:
        """JSON-able summary (cached by the sweep engine, diffed by
        the run ledger)."""
        payload = {
            "offered_per_core_us": self.offered_per_core_us,
            "arrivals": self.arrivals,
            "completions": self.completions,
            "p50_ns": self.p50_ns,
            "p99_ns": self.p99_ns,
            "p999_ns": self.p999_ns,
            "mean_ns": self.mean_ns,
            "max_ns": self.max_ns,
            "jitter_ns": self.jitter_ns,
            "wait_p99_ns": self.wait_p99_ns,
            "queue_depth_mean": self.queue_depth_mean,
            "queue_depth_max": self.queue_depth_max,
            "achieved_per_us": self.achieved_per_us,
        }
        if self.attribution is not None:
            payload["attribution"] = self.attribution
            payload["exemplars"] = self.exemplars
        return payload


def run_service(
    config: SystemConfig,
    params: ServiceParams,
    window: MeasureWindow = MeasureWindow(),
    tracer=None,
    collect_metrics: bool = False,
    check_invariants: bool = False,
) -> ServiceResult:
    """Run the open-loop service and measure one steady-state window.

    Requests keep arriving during warmup (filling queues to steady
    state); every SLO statistic below is *windowed* -- computed only
    from observations recorded inside the measurement window, never
    from warmup.  ``tracer`` / ``collect_metrics`` /
    ``check_invariants`` behave exactly as in
    :func:`repro.harness.experiment.run_microbench`.
    """
    monitor = None
    if check_invariants:
        monitor = invariants.InvariantMonitor()
        tracer = monitor.tee(tracer)
    system = System(config, tracer=tracer)
    ledger = None
    if params.spans:
        from repro.obs.spans import SpanLedger

        ledger = SpanLedger(system.probes, k_slowest=params.span_exemplars)
        # Per-core stats must exist before the measurement window
        # toggles probe activation (see SpanLedger.prepare_cores).
        ledger.prepare_cores(range(config.cores))
        # Hang the ledger before the monitor attaches so its checker
        # list includes the span-bookkeeping law.
        system.spans = ledger
    if monitor is not None:
        monitor.attach(system)
    state = install_service(
        system,
        params.store_params(),
        params.open_loop,
        params.workers_per_core,
        spans=ledger,
    )
    stats = system.run_window(window.warmup_ticks, window.measure_ticks)
    report = system.report()
    if monitor is not None:
        monitor.check_now()
        report["invariants"] = monitor.summary()
    if collect_metrics:
        report["metrics"] = system.metrics_snapshot()

    sojourn = state.sojourn
    measure_ticks = stats.ticks
    measure_us = measure_ticks / US if measure_ticks else 0.0
    completions = state.completions.windowed
    attribution = ledger.attribution() if ledger is not None else None
    exemplars = ledger.exemplar_payload() if ledger is not None else None
    return ServiceResult(
        config=config,
        params=params,
        offered_per_core_us=params.open_loop.arrivals.rate_per_us,
        arrivals=state.arrivals.windowed,
        completions=completions,
        p50_ns=to_ns(sojourn.windowed_percentile(50)),
        p99_ns=to_ns(sojourn.windowed_percentile(99)),
        p999_ns=to_ns(sojourn.windowed_percentile(99.9)),
        mean_ns=to_ns(sojourn.windowed_mean),
        max_ns=to_ns(sojourn.windowed_max or 0),
        jitter_ns=to_ns(sojourn.jitter),
        wait_p99_ns=to_ns(state.queue_wait.windowed_percentile(99)),
        queue_depth_mean=state.queue_depth.mean(system.sim.now),
        queue_depth_max=state.queue_depth.maximum,
        achieved_per_us=completions / measure_us if measure_us else 0.0,
        report=report,
        attribution=attribution,
        exemplars=exemplars,
    )
