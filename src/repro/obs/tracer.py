"""Tick-accurate structured tracing to Chrome-trace-event JSON.

The tracer records *duration* events (``ph: "X"``) for ROB stalls, LFB
fills, TLP serialization/propagation, SWQ descriptor lifecycles, and
uthread scheduling slices, plus *counter* tracks (``ph: "C"``) for
queue depths and link utilization.  The output loads directly into
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

Design constraints, in order:

1. **Zero cost when disabled.**  Components hold a ``tracer``
   attribute that defaults to ``None``; every hook is guarded by a
   single ``if tracer is not None`` on an already-loaded local.  No
   tracer object exists in ordinary runs, so figures are bit-for-bit
   unchanged (tracing only ever *records* -- it never schedules or
   perturbs events).
2. **Cheap when enabled.**  Recording an event is one dict construction
   and a list append; ticks (integer picoseconds) convert to the trace
   format's microsecond ``ts`` by a float divide.

Track filtering (``TraceConfig.tracks``) and per-name sampling
(``TraceConfig.sample_every``) bound the output size; a hard
``max_events`` cap drops (and counts) the overflow rather than eating
the host's memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional

from repro.units import US

__all__ = [
    "TRACKS",
    "PID_CORES",
    "PID_UNCORE",
    "PID_PCIE",
    "PID_DEVICE",
    "PID_SERVICE",
    "TraceConfig",
    "Tracer",
]

#: Every track the instrumentation can emit.  A *track* is a semantic
#: stream of events, filterable independently of where it renders:
#:
#: * ``rob``    -- ROB dispatch-stall durations (Figure 2's mechanism)
#: * ``lfb``    -- line-fill durations + in-flight counters (Figure 3)
#: * ``queues`` -- shared uncore queue depths (Figure 5's 14-entry cap)
#: * ``pcie``   -- TLP serialization/propagation + link utilization
#: * ``device`` -- delay-module holds (request arrival to release)
#: * ``swq``    -- descriptor-fetch bursts, doorbells, ring depths
#: * ``sched``  -- uthread slices and completion polls (section IV-B)
#: * ``service`` -- open-loop request lifecycles (arrival to response)
#:   and host-queue depth counters (the SLO layer)
#: * ``spans`` -- per-request attribution exemplars rendered as async
#:   (``ph: b/e``) span trees (:mod:`repro.obs.spans`), overlaying the
#:   per-layer tracks above
TRACKS: FrozenSet[str] = frozenset(
    {"rob", "lfb", "queues", "pcie", "device", "swq", "sched", "service",
     "spans"}
)

#: Process-ID groups of the rendered timeline (named via metadata
#: events; Perfetto shows one expandable lane per pid).
PID_CORES = 1
PID_UNCORE = 2
PID_PCIE = 3
PID_DEVICE = 4
PID_SERVICE = 5

#: Ticks are integer picoseconds; trace-event ``ts``/``dur`` are
#: microseconds (floats allowed, so no precision is lost for display).
_TICKS_PER_US = float(US)


@dataclass(frozen=True)
class TraceConfig:
    """What to record and how aggressively to thin it."""

    #: Subset of :data:`TRACKS` to record.
    tracks: FrozenSet[str] = TRACKS
    #: Keep one in ``sample_every`` duration/instant events *per event
    #: name*.  Counters are never sampled -- a thinned counter track
    #: would draw wrong values, not fewer points.
    sample_every: int = 1
    #: Hard cap on recorded events; overflow is dropped and counted.
    max_events: int = 2_000_000

    def __post_init__(self) -> None:
        unknown = set(self.tracks) - TRACKS
        if unknown:
            raise ValueError(
                f"unknown trace tracks {sorted(unknown)}; "
                f"valid: {sorted(TRACKS)}"
            )
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")

    @classmethod
    def from_track_list(cls, tracks: Optional[str], **kwargs) -> "TraceConfig":
        """Build from a comma-separated track list (CLI helper);
        ``None`` or ``"all"`` selects every track."""
        if tracks is None or tracks.strip() in ("", "all"):
            return cls(**kwargs)
        selected = frozenset(
            part.strip() for part in tracks.split(",") if part.strip()
        )
        return cls(tracks=selected, **kwargs)


@dataclass
class _TracerState:
    events: list = field(default_factory=list)
    meta: list = field(default_factory=list)
    dropped: int = 0


class Tracer:
    """Collects trace events; :meth:`write` emits the JSON file."""

    def __init__(self, config: Optional[TraceConfig] = None) -> None:
        self.config = config if config is not None else TraceConfig()
        self._tracks = self.config.tracks
        self._sample = self.config.sample_every
        self._max = self.config.max_events
        self._state = _TracerState()
        self._name_counts: Dict[str, int] = {}
        self.track_counts: Dict[str, int] = {}

    # -- recording -----------------------------------------------------------

    def wants(self, track: str) -> bool:
        """True if ``track`` is being recorded (hooks may use this to
        skip building expensive args)."""
        return track in self._tracks

    def _admit(self, track: str, name: str, sampled: bool) -> bool:
        if track not in self._tracks:
            return False
        if sampled and self._sample > 1:
            seen = self._name_counts.get(name, 0)
            self._name_counts[name] = seen + 1
            if seen % self._sample:
                return False
        if len(self._state.events) >= self._max:
            self._state.dropped += 1
            return False
        self.track_counts[track] = self.track_counts.get(track, 0) + 1
        return True

    def complete(
        self,
        track: str,
        pid: int,
        tid: int,
        name: str,
        start_tick: int,
        end_tick: int,
        args: Optional[dict] = None,
    ) -> None:
        """A duration ("complete", ``ph: X``) event spanning
        ``[start_tick, end_tick]``."""
        if not self._admit(track, name, sampled=True):
            return
        event: Dict[str, Any] = {
            "name": name,
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": start_tick / _TICKS_PER_US,
            "dur": (end_tick - start_tick) / _TICKS_PER_US,
        }
        if args:
            event["args"] = args
        self._state.events.append(event)

    def instant(
        self,
        track: str,
        pid: int,
        tid: int,
        name: str,
        tick: int,
        args: Optional[dict] = None,
    ) -> None:
        """A zero-duration instant event (thread-scoped)."""
        if not self._admit(track, name, sampled=True):
            return
        event: Dict[str, Any] = {
            "name": name,
            "ph": "i",
            "s": "t",
            "pid": pid,
            "tid": tid,
            "ts": tick / _TICKS_PER_US,
        }
        if args:
            event["args"] = args
        self._state.events.append(event)

    def async_span(
        self,
        track: str,
        pid: int,
        tid: int,
        name: str,
        span_id: int,
        start_tick: int,
        end_tick: int,
        args: Optional[dict] = None,
    ) -> None:
        """An async span: a ``ph: b`` / ``ph: e`` event pair sharing
        ``span_id``.  Async events with the same (cat, id) group into
        one track regardless of tid, which is what lets request-scoped
        exemplar trees overlay the per-layer duration tracks.  Exempt
        from sampling: a thinned pair would leave an unmatched begin,
        which the validator rightly rejects."""
        if not self._admit(track, name, sampled=False):
            return
        begin: Dict[str, Any] = {
            "name": name,
            "cat": track,
            "ph": "b",
            "id": span_id,
            "pid": pid,
            "tid": tid,
            "ts": start_tick / _TICKS_PER_US,
        }
        if args:
            begin["args"] = args
        self._state.events.append(begin)
        self._state.events.append(
            {
                "name": name,
                "cat": track,
                "ph": "e",
                "id": span_id,
                "pid": pid,
                "tid": tid,
                "ts": end_tick / _TICKS_PER_US,
            }
        )

    def counter(
        self, track: str, pid: int, name: str, tick: int, values: dict
    ) -> None:
        """A counter sample: ``values`` maps series label -> number.
        Counter events are exempt from sampling (a thinned counter
        would be *wrong*, not merely coarse)."""
        if not self._admit(track, name, sampled=False):
            return
        self._state.events.append(
            {
                "name": name,
                "ph": "C",
                "pid": pid,
                "tid": 0,
                "ts": tick / _TICKS_PER_US,
                "args": values,
            }
        )

    # -- metadata ------------------------------------------------------------

    def process_name(self, pid: int, name: str) -> None:
        self._state.meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )

    def thread_name(self, pid: int, tid: int, name: str) -> None:
        self._state.meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )

    # -- output --------------------------------------------------------------

    @property
    def events(self) -> list:
        return self._state.events

    @property
    def dropped(self) -> int:
        return self._state.dropped

    def to_dict(self) -> dict:
        """The full trace as a Chrome-trace-format object."""
        return {
            "traceEvents": self._state.meta + self._state.events,
            "displayTimeUnit": "ns",
            "otherData": {
                "source": "repro trace",
                "clock": "1 tick = 1 ps; ts in us",
                "dropped_events": self._state.dropped,
            },
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle)
            handle.write("\n")

    def summary(self) -> dict:
        """Event counts per track (for CLI output and tests)."""
        return {
            "events": len(self._state.events),
            "dropped": self._state.dropped,
            "tracks": dict(sorted(self.track_counts.items())),
        }
