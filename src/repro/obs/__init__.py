"""Unified observability layer: metrics, tracing, invariants, provenance.

* :class:`~repro.obs.registry.MetricsRegistry` -- hierarchical,
  pull-based export of every component's probes to one JSON snapshot.
* :class:`~repro.obs.tracer.Tracer` / ``TraceConfig`` -- tick-accurate
  Chrome-trace-event timelines (Perfetto-loadable), zero-cost no-ops
  when no tracer is attached.
* :class:`~repro.obs.invariants.InvariantMonitor` -- online sanitizer
  checking conservation laws (TLP, LFB, credit, µop balance) against
  live component state; raises :class:`InvariantViolation` with the
  tick, component and recent trace events on the first breach.
* :class:`~repro.obs.runlog.RunLedger` -- append-only provenance
  ledger (``.repro_runs/ledger.jsonl``) recording every CLI run's
  model version, git SHA, config digest and result digests.
* :mod:`~repro.obs.validate` -- standalone trace-format validator
  (``python -m repro.obs.validate trace.json``).
"""

from repro.obs.invariants import InvariantMonitor, InvariantViolation, TeeTracer
from repro.obs.registry import MetricsRegistry
from repro.obs.runlog import LEDGER_FORMAT, RunLedger
from repro.obs.spans import (
    SEGMENTS,
    RequestSpan,
    SpanConservationError,
    SpanLedger,
)
from repro.obs.tracer import (
    PID_CORES,
    PID_DEVICE,
    PID_PCIE,
    PID_SERVICE,
    PID_UNCORE,
    TRACKS,
    TraceConfig,
    Tracer,
)

__all__ = [
    "MetricsRegistry",
    "Tracer",
    "TraceConfig",
    "TRACKS",
    "PID_CORES",
    "PID_UNCORE",
    "PID_PCIE",
    "PID_DEVICE",
    "PID_SERVICE",
    "InvariantMonitor",
    "InvariantViolation",
    "TeeTracer",
    "RunLedger",
    "LEDGER_FORMAT",
    "SEGMENTS",
    "RequestSpan",
    "SpanConservationError",
    "SpanLedger",
]
