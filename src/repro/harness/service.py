"""Service-mode experiments: open-loop load, SLO accounting.

Where a microbenchmark job measures closed-loop work IPC, a service
job (:class:`~repro.harness.sweep.SweepJob` with ``service=``) runs the
memcached workload as a *service* under an open-loop arrival process
(:mod:`repro.workloads.loadgen`), and :func:`service_payload` reports
the SLO quantities: p50/p99/p999 end-to-end sojourn time, queue-wait
tail, jitter, and achieved vs offered throughput, all over the
steady-state measurement window (warmup excluded: the system resets
its probes when the window opens).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import US, to_ns
from repro.workloads.loadgen import OpenLoopSpec
from repro.workloads.memcached import MemcachedParams

__all__ = ["ServiceParams", "service_payload"]


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


def service_payload(params: ServiceParams, state, system, stats) -> dict:
    """The SLO summary of one service window (cached by the sweep
    engine, diffed by the run ledger).

    ``state`` is the installed service's
    :class:`~repro.workloads.loadgen.ServiceState` and ``stats`` the
    window's :class:`~repro.host.system.WindowStats`.  Counts and
    sojourn statistics cover the measurement window; latencies are in
    nanoseconds, rates in requests/us (``offered_per_core_us`` per
    core, ``achieved_per_us`` over all cores), and the host-queue depth
    is time-weighted over the whole run.  A span-enabled run adds the
    per-layer ``attribution`` table and the ``exemplars`` span trees of
    the system's :class:`~repro.obs.spans.SpanLedger`.
    """
    sojourn = state.sojourn
    measure_us = stats.ticks / US if stats.ticks else 0.0
    completions = state.completions.total
    payload = {
        "offered_per_core_us": params.open_loop.arrivals.rate_per_us,
        "arrivals": state.arrivals.total,
        "completions": completions,
        "p50_ns": to_ns(sojourn.percentile(50)),
        "p99_ns": to_ns(sojourn.percentile(99)),
        "p999_ns": to_ns(sojourn.percentile(99.9)),
        "mean_ns": to_ns(sojourn.mean),
        "max_ns": to_ns(sojourn.maximum or 0),
        "jitter_ns": to_ns(sojourn.jitter),
        "wait_p99_ns": to_ns(state.queue_wait.percentile(99)),
        "queue_depth_mean": state.queue_depth.mean(system.sim.now),
        "queue_depth_max": state.queue_depth.maximum,
        "achieved_per_us": completions / measure_us if measure_us else 0.0,
    }
    if system.spans is not None:
        payload["attribution"] = system.spans.attribution()
        payload["exemplars"] = system.spans.exemplar_payload()
    return payload
