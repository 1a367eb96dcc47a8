"""Request-scoped latency attribution: span ledger and tail exemplars.

The metrics layer can say *that* p99 sojourn climbed; this module says
*why*.  Every open-loop request carries a :class:`RequestSpan` from
arrival injection to response, stamped at each layer transition with
the tick-exact boundary, so its lifetime decomposes into a contiguous
sequence of **segments**:

* ``queue``  -- host-queue wait (arrival to worker pickup);
* ``sq``     -- submission: enqueue software cost, ring-space credit
  stalls, doorbell MMIO (per device access);
* ``device`` -- doorbell/descriptor fetch through device service until
  the completion's DMA write commits in host DRAM;
* ``cq``     -- completion visible in the ring until the scheduler's
  poll delivers it and wakes the thread;
* ``work``   -- on-thread application time (hash-chain walking between
  accesses, the post-GET work loop, response bookkeeping).

Because segments tile the request's lifetime with no gaps or overlaps,
their durations must sum exactly to the measured sojourn; the ledger
asserts that **conservation law** online at every request completion
(and the invariant monitor re-checks the ledger's books).  A missed
transition, a backwards stamp, or a layer double-charged shows up as a
loud :class:`SpanConservationError` rather than a quietly wrong
attribution table.

Cost discipline matches the tracer: components hold a ``span`` /
``spans`` attribute defaulting to ``None`` and guard every emission
with ``if span is not None`` on an already-loaded local (simlint
SIM404).  With spans disabled no ledger object exists and figures are
bit-for-bit unchanged (``benchmarks/test_attrib_overhead.py`` gates
the disabled path and asserts passivity).

Aggregation is deterministic and windowed: per-segment
:class:`~repro.sim.trace.LatencyStat` probes ride the harness's
measurement window, the K-slowest exemplar reservoir keeps complete
span trees for the worst requests (ties broken by arrival order), and
stratified p50/p90/p99 exemplars are chosen from a deterministic
stride-subsampled retention buffer.  Exemplar trees render as
Chrome-trace async (``ph: b/e``) spans that overlay the existing
tracer tracks.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.sim.trace import LatencyStat, ProbeSet, percentile_of_sorted
from repro.units import to_ns

__all__ = [
    "SEGMENTS",
    "PID_SPANS_TID",
    "RequestSpan",
    "SpanConservationError",
    "SpanLedger",
    "emit_exemplar_trace",
]

#: The span taxonomy, in pipeline order.  Segments tile the request
#: lifetime: ``queue`` then an alternation of ``work`` with
#: ``sq``/``device``/``cq`` triples (queue mechanisms) or ``device``
#: (memory-mapped mechanisms, where submission is just a load/prefetch
#: and there is no completion ring).
SEGMENTS = ("queue", "sq", "device", "cq", "work")

#: tid used for exemplar async spans under ``PID_SERVICE`` (async
#: events group by (cat, id), so one tid suffices).
PID_SPANS_TID = 99

#: Retention cap for the stratified-exemplar buffer; beyond it the
#: buffer subsamples deterministically (keep-every-other, double the
#: stride), mirroring ``LatencyStat.MAX_SAMPLES``.  Must stay even.
_MAX_RETAINED = 4096


class SpanConservationError(SimulationError):
    """A request's segment durations failed to tile its sojourn."""


class RequestSpan:
    """One request's span tree: a contiguous run of (name, begin, end).

    The span is a cursor: :meth:`mark` closes the currently-open
    segment at ``tick`` and opens the next one, so by construction the
    segments partition ``[arrived_at, finished_at]`` -- the
    conservation check in :meth:`SpanLedger.close` then guards against
    missed or misordered stamps rather than arithmetic.
    """

    __slots__ = (
        "seq", "key", "core_id", "arrived_at", "finished_at",
        "segments", "_open_name", "_open_at",
    )

    def __init__(self, seq: int, key: int, core_id: int, arrived_at: int) -> None:
        self.seq = seq
        self.key = key
        self.core_id = core_id
        self.arrived_at = arrived_at
        self.finished_at = -1
        #: Closed segments as ``[name, begin_tick, end_tick]`` lists
        #: (lists, not tuples, so the JSON round-trip through the sweep
        #: cache is bit-identical to the fresh object).
        self.segments: list[list] = []
        self._open_name = "queue"
        self._open_at = arrived_at

    @property
    def sojourn(self) -> int:
        return self.finished_at - self.arrived_at

    @property
    def open_at(self) -> int:
        """Tick the currently-open segment began (stamp clamp floor)."""
        return self._open_at

    def mark(self, name: str, tick: int) -> None:
        """Close the open segment at ``tick`` and open ``name``."""
        if name not in _SEGMENT_SET:
            raise SpanConservationError(
                f"unknown span segment {name!r} (valid: {SEGMENTS})"
            )
        if tick < self._open_at:
            raise SpanConservationError(
                f"span stamp moved backwards: {self._open_name!r} opened at "
                f"{self._open_at}, {name!r} marked at {tick} (request "
                f"seq={self.seq} key={self.key})"
            )
        if tick > self._open_at:
            self.segments.append([self._open_name, self._open_at, tick])
        elif self.segments and self.segments[-1][0] == name:
            # Zero-width transition back into the previous segment:
            # keep the tree minimal by re-opening it instead of
            # recording an empty slice.
            self._open_name = name
            self._open_at = self.segments.pop()[1]
            return
        self._open_name = name
        self._open_at = tick

    def _close(self, tick: int) -> None:
        if tick < self._open_at:
            raise SpanConservationError(
                f"span closed before its open segment: {self._open_name!r} "
                f"opened at {self._open_at}, closed at {tick} (request "
                f"seq={self.seq} key={self.key})"
            )
        if tick > self._open_at:
            self.segments.append([self._open_name, self._open_at, tick])
        self.finished_at = tick

    def durations(self) -> dict:
        """Total ticks per segment name (taxonomy order, zeros kept)."""
        totals = dict.fromkeys(SEGMENTS, 0)
        for name, begin, end in self.segments:
            totals[name] += end - begin
        return totals

    def to_payload(self) -> dict:
        """JSON-able span tree (cached by the sweep engine)."""
        return {
            "seq": self.seq,
            "key": self.key,
            "core": self.core_id,
            "arrived_at": self.arrived_at,
            "finished_at": self.finished_at,
            "sojourn_ticks": self.sojourn,
            "segments": [list(segment) for segment in self.segments],
        }


_SEGMENT_SET = frozenset(SEGMENTS)


class _SegmentStats:
    """Per-scope (global or per-core) segment LatencyStats."""

    __slots__ = ("stats",)

    def __init__(self, probes: Optional[ProbeSet], prefix: str) -> None:
        if probes is not None:
            self.stats = {
                name: probes.latency(f"{prefix}-{name}") for name in SEGMENTS
            }
        else:
            self.stats = {name: LatencyStat(f"{prefix}-{name}") for name in SEGMENTS}

    def record(self, durations: dict) -> None:
        for name, ticks in durations.items():
            self.stats[name].record(ticks)


class SpanLedger:
    """Opens, closes, checks, and aggregates request spans.

    With ``probes`` given (the system's :class:`ProbeSet`), per-segment
    stats join that set, which the harness resets when the measurement
    window opens, so :meth:`attribution` reports that window -- an
    empty one as 0 requests.  A per-core stat first created inside the
    window starts empty and so covers it exactly.  Standalone ledgers
    (tests) aggregate over their lifetime.
    """

    def __init__(
        self,
        probes: Optional[ProbeSet] = None,
        k_slowest: int = 8,
    ) -> None:
        if k_slowest < 1:
            raise SimulationError("exemplar reservoir needs k_slowest >= 1")
        self.probes = probes
        self.k_slowest = k_slowest
        self.opened = 0
        self.closed = 0
        self.conservation_checks = 0
        self.sojourn = (
            probes.latency("span-sojourn") if probes is not None
            else LatencyStat("span-sojourn")
        )
        self._segments = _SegmentStats(probes, "span")
        self._per_core: dict[int, _SegmentStats] = {}
        #: The K slowest closed requests this window, keyed by
        #: ``(sojourn, -seq)`` -- on ties the earlier arrival wins, so
        #: selection is deterministic and order-free.  K is small; a
        #: linear min-replace beats a heap (and SIM210 reserves
        #: priority queues for the kernel scheduler).
        self._slowest: list[tuple[tuple[int, int], RequestSpan]] = []
        #: Stride-subsampled retention buffer feeding the stratified
        #: p50/p90/p99 exemplars (deterministic: same rule as
        #: ``LatencyStat`` reservoirs).
        self._retained: list[RequestSpan] = []
        self._retain_stride = 1
        self._retain_next = 1

    # -- request lifecycle ---------------------------------------------------

    def open(self, key: int, core_id: int, tick: int) -> RequestSpan:
        """Start a span at arrival injection (opens ``queue``)."""
        self.opened += 1
        return RequestSpan(self.opened, key, core_id, tick)

    def close(self, span: RequestSpan, tick: int) -> None:
        """Finish a span at response time and assert conservation."""
        span._close(tick)
        self._check_conservation(span)
        self.closed += 1
        durations = span.durations()
        self.sojourn.record(span.sojourn)
        self._segments.record(durations)
        per_core = self._per_core.get(span.core_id)
        if per_core is None:
            per_core = self._per_core[span.core_id] = _SegmentStats(
                self.probes, f"span-core{span.core_id}"
            )
        per_core.record(durations)
        self._reserve(span)

    def _check_conservation(self, span: RequestSpan) -> None:
        self.conservation_checks += 1
        total = 0
        cursor = span.arrived_at
        for name, begin, end in span.segments:
            if begin != cursor or end < begin:
                raise SpanConservationError(
                    f"span segments do not tile the request lifetime: "
                    f"{name!r} spans [{begin}, {end}] but the previous "
                    f"segment ended at {cursor} (request seq={span.seq} "
                    f"key={span.key})"
                )
            total += end - begin
            cursor = end
        if cursor != span.finished_at or total != span.sojourn:
            raise SpanConservationError(
                f"span conservation violated: segments sum to {total} ticks "
                f"but measured sojourn is {span.sojourn} (request "
                f"seq={span.seq} key={span.key}, arrived {span.arrived_at}, "
                f"finished {span.finished_at})"
            )

    def _reserve(self, span: RequestSpan) -> None:
        key = (span.sojourn, -span.seq)
        slowest = self._slowest
        if len(slowest) < self.k_slowest:
            slowest.append((key, span))
        else:
            floor = min(range(len(slowest)), key=lambda i: slowest[i][0])
            if key > slowest[floor][0]:
                slowest[floor] = (key, span)
        if self.closed == self._retain_next:
            self._retained.append(span)
            if len(self._retained) > _MAX_RETAINED:
                self._retained = self._retained[::2]
                self._retain_stride *= 2
            self._retain_next = self.closed + self._retain_stride

    def reset_window(self) -> None:
        """Drop exemplars retained before the measurement window (the
        per-segment LatencyStats are reset by the shared ProbeSet)."""
        self._slowest = []
        self._retained = []
        self._retain_stride = 1
        self._retain_next = self.closed + 1

    @property
    def open_count(self) -> int:
        return self.opened - self.closed

    # -- bookkeeping invariants (for the monitor) ------------------------------

    def check(self) -> Optional[str]:
        """Ledger bookkeeping law; None when the books balance."""
        if self.closed > self.opened:
            return f"{self.closed} spans closed but only {self.opened} opened"
        if self.conservation_checks != self.closed:
            return (
                f"{self.closed} spans closed but conservation checked "
                f"{self.conservation_checks} times"
            )
        if len(self._slowest) > self.k_slowest:
            return (
                f"exemplar heap holds {len(self._slowest)} > "
                f"{self.k_slowest} spans"
            )
        if len(self._retained) > _MAX_RETAINED:
            return (
                f"retention buffer holds {len(self._retained)} > "
                f"{_MAX_RETAINED} spans"
            )
        return None

    # -- aggregation -------------------------------------------------------------

    def attribution(self) -> dict:
        """The per-layer attribution table (JSON-able, windowed).

        ``share`` is each segment's fraction of total sojourn time --
        shares sum to 1 by the conservation law.  ``p99_ns`` is the
        segment's own tail (segments hit their tails on different
        requests, so p99 shares are reported against the segment's own
        p99, not as a decomposition of the sojourn p99).

        The aggregate conservation law is re-asserted here at tick
        precision: summed segment time must equal summed sojourn time
        over the same (windowed) population.  Per-request conservation
        at :meth:`close` makes this a tautology -- which is the point:
        it fails only if the aggregation itself loses or double-counts
        a request.
        """
        sojourn_count, sojourn_total = self.sojourn.count, self.sojourn.total
        segments_total = sum(stat.total for stat in self._segments.stats.values())
        if segments_total != sojourn_total:
            raise SpanConservationError(
                f"aggregate conservation violated: segment stats sum to "
                f"{segments_total} ticks but sojourn stats hold "
                f"{sojourn_total} ticks over {sojourn_count} requests"
            )
        table = {
            "requests": sojourn_count,
            "sojourn": self._render_stat(self.sojourn, sojourn_total),
            "segments": {
                name: self._render_stat(stat, sojourn_total)
                for name, stat in self._segments.stats.items()
            },
            "per_core": {
                f"core{core_id}": self._render_scope(per_core)
                for core_id, per_core in sorted(self._per_core.items())
            },
            "conservation": {
                "opened": self.opened,
                "closed": self.closed,
                "checked": self.conservation_checks,
                "in_flight": self.open_count,
                #: The aggregate law, in ticks (exact integers; the ns
                #: renders above are floats and would blur it).
                "sojourn_ticks": sojourn_total,
                "segments_ticks": segments_total,
            },
        }
        return table

    @classmethod
    def _render_scope(cls, scope: _SegmentStats) -> dict:
        """Render one core's segment stats.  The denominator is the
        core's own sojourn time (= the sum of its segment totals, by
        conservation), so each core's shares sum to 1 and cores with
        different loads stay comparable."""
        core_total = sum(stat.total for stat in scope.stats.values())
        return {
            name: cls._render_stat(stat, core_total)
            for name, stat in scope.stats.items()
        }

    @staticmethod
    def _render_stat(stat: LatencyStat, sojourn_total: int) -> dict:
        count, total = stat.count, stat.total
        mean = total / count if count else 0.0
        return {
            "count": count,
            "mean_ns": to_ns(mean),
            "p99_ns": to_ns(stat.percentile(99)) if count else 0.0,
            "total_ns": to_ns(total),
            "share": total / sojourn_total if sojourn_total else 0.0,
        }

    # -- exemplars ---------------------------------------------------------------

    def slowest(self) -> list[RequestSpan]:
        """The K slowest spans, worst first (deterministic ties)."""
        return [span for _key, span in sorted(self._slowest, reverse=True)]

    def stratified(self) -> dict:
        """One exemplar span nearest each of p50/p90/p99 sojourn."""
        if not self._retained:
            return {}
        ordered = sorted(
            self._retained, key=lambda span: (span.sojourn, span.seq)
        )
        sojourns = [span.sojourn for span in ordered]
        exemplars = {}
        for label, p in (("p50", 50.0), ("p90", 90.0), ("p99", 99.0)):
            target = percentile_of_sorted(sojourns, p)
            best = min(
                ordered, key=lambda span: (abs(span.sojourn - target), span.seq)
            )
            exemplars[label] = best
        return exemplars

    def exemplar_payload(self) -> dict:
        """JSON-able exemplar dump: K slowest trees + stratified trees."""
        return {
            "slowest": [span.to_payload() for span in self.slowest()],
            "stratified": {
                label: span.to_payload()
                for label, span in self.stratified().items()
            },
        }

    # -- export ------------------------------------------------------------------

    def register_metrics(self, registry, prefix: str) -> None:
        registry.register(f"{prefix}.opened", lambda: self.opened)
        registry.register(f"{prefix}.closed", lambda: self.closed)
        registry.register(f"{prefix}.in_flight", lambda: self.open_count)
        registry.register(
            f"{prefix}.conservation_checks", lambda: self.conservation_checks
        )
        registry.register(f"{prefix}.sojourn", self.sojourn)
        for name, stat in self._segments.stats.items():
            registry.register(f"{prefix}.{name}", stat)

    def summary(self) -> dict:
        return {
            "opened": self.opened,
            "closed": self.closed,
            "in_flight": self.open_count,
            "conservation_checks": self.conservation_checks,
            "retained": len(self._retained),
            "slowest": len(self._slowest),
        }


def emit_exemplar_trace(tracer, payload: dict, pid: int) -> int:
    """Render an exemplar payload as Chrome-trace async span trees.

    Works from the JSON-able :meth:`SpanLedger.exemplar_payload` shape
    (not live :class:`RequestSpan` objects) so exemplars cached by the
    sweep engine or read back from a ledger dump render identically.
    Each tree becomes one async group keyed by the request's ``seq``: a
    root ``request ...`` span over the whole sojourn plus one child
    span per segment, so in Perfetto the exemplars overlay the per-
    layer duration tracks tick for tick.  Returns the number of trees
    emitted; deduplicates trees that appear both among the K slowest
    and as a stratified exemplar (same async id twice would render as
    a corrupt nesting).
    """
    if tracer is None:
        return 0
    tracer.thread_name(pid, PID_SPANS_TID, "exemplar spans")
    trees = [("slow", tree) for tree in payload.get("slowest", ())]
    trees.extend(sorted(payload.get("stratified", {}).items()))
    emitted = 0
    seen = set()
    for label, tree in trees:
        span_id = tree["seq"]
        if span_id in seen:
            continue
        seen.add(span_id)
        tracer.async_span(
            "spans",
            pid,
            PID_SPANS_TID,
            f"request {label} seq={span_id}",
            span_id,
            tree["arrived_at"],
            tree["finished_at"],
            args={
                "key": tree["key"],
                "core": tree["core"],
                "sojourn_ns": to_ns(tree["sojourn_ticks"]),
            },
        )
        for name, begin, end in tree["segments"]:
            tracer.async_span(
                "spans", pid, PID_SPANS_TID, name, span_id, begin, end
            )
        emitted += 1
    return emitted
