"""Line-fill buffers (Intel's name for L1 miss-status holding registers).

"Once requests are issued with software prefetch instructions, the
outstanding device accesses are managed using a hardware queue called
Line Fill Buffers ... all state-of-the-art Xeon server processors have
at most 10 LFBs per core, severely limiting the number of in-flight
prefetches" (section V-B).  The 10-entry default here is the paper's
headline bottleneck; the queue-sizing ablation enlarges it.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import SimulationError
from repro.sim import Event, Resource, Simulator

__all__ = ["LineFillBuffers", "MissEntry"]


class MissEntry:
    """One outstanding line fill.

    ``data_ready`` fires with the line's byte content when the fill
    completes.  Loads to the same line while the entry is live *merge*:
    they wait on the same event without consuming another buffer.
    """

    __slots__ = ("line_addr", "data_ready", "issued_at", "merged_loads")

    def __init__(self, sim: Simulator, line_addr: int) -> None:
        self.line_addr = line_addr
        self.data_ready = Event(sim)
        self.issued_at = sim.now
        self.merged_loads = 0


class LineFillBuffers:
    """A bounded table of outstanding L1 misses for one core."""

    def __init__(self, sim: Simulator, entries: int, name: str = "lfb") -> None:
        self.sim = sim
        self.name = name
        self._slots = Resource(sim, capacity=entries, name=name)
        self._entries: dict[int, MissEntry] = {}
        self.merges = 0
        self.fills = 0
        self.dropped_prefetches = 0
        #: Optional observability hooks (None keeps hot paths untouched).
        self.tracer = None
        self._trace_pid = 0
        self._trace_tid = 0

    def attach_tracer(self, tracer, pid: int, tid: int) -> None:
        self.tracer = tracer
        self._trace_pid = pid
        self._trace_tid = tid

    def register_metrics(self, registry, prefix: str) -> None:
        registry.register(f"{prefix}.capacity", lambda: self.capacity)
        registry.register(f"{prefix}.in_flight", lambda: self.in_flight)
        registry.register(f"{prefix}.max_in_flight", lambda: self.max_in_flight)
        registry.register(f"{prefix}.fills", lambda: self.fills)
        registry.register(f"{prefix}.merges", lambda: self.merges)
        registry.register(
            f"{prefix}.dropped_prefetches", lambda: self.dropped_prefetches
        )

    def _trace_occupancy(self) -> None:
        """Counter sample of granted buffers + queued misses (called
        only from tracer-guarded sites)."""
        occupied = self._slots.in_use
        # simlint: disable-next-line=SIM401 -- helper is only reached from
        # call sites that already guard on 'tracer is not None' (zero-cost
        # contract holds at the caller)
        self.tracer.counter(
            "lfb",
            self._trace_pid,
            f"{self.name}.occupancy",
            self.sim.now,
            {"buffers": occupied, "waiting": len(self._entries) - occupied},
        )

    @property
    def capacity(self) -> int:
        return self._slots.capacity

    @property
    def in_flight(self) -> int:
        return len(self._entries)

    @property
    def occupied(self) -> int:
        """Buffers actually granted (``in_flight`` additionally counts
        misses still queued for a buffer); never exceeds capacity."""
        return self._slots.in_use

    @property
    def max_in_flight(self) -> int:
        return self._slots.max_in_use

    def contains(self, line_addr: int) -> bool:
        """True if a fill for ``line_addr`` is already in flight."""
        return line_addr in self._entries

    def lookup(self, line_addr: int) -> Optional[MissEntry]:
        """Find a live entry for ``line_addr`` (merge opportunity)."""
        entry = self._entries.get(line_addr)
        if entry is not None:
            entry.merged_loads += 1
            self.merges += 1
        return entry

    def allocate(self, line_addr: int) -> Generator[Event, object, MissEntry]:
        """Generator: obtain a buffer for a new miss.

        Stalls (blocking the caller, i.e. the core's dispatch) while
        all buffers are occupied -- the mechanism behind the 10-thread
        plateau of Figure 3.
        """
        if line_addr in self._entries:
            raise SimulationError(
                f"{self.name}: duplicate allocation for line {line_addr:#x}; "
                "call lookup() first"
            )
        # Register the entry *before* waiting for a buffer so that a
        # same-line access arriving mid-wait merges instead of racing
        # into a duplicate allocation.
        entry = MissEntry(self.sim, line_addr)
        self._entries[line_addr] = entry
        grant = self._slots.acquire()
        if not grant.fired:
            yield grant
        entry.issued_at = self.sim.now
        if self.tracer is not None:
            self._trace_occupancy()
        return entry

    def allocate_queued(self, line_addr: int) -> tuple[MissEntry, Event]:
        """Queue for a buffer without blocking the caller.

        Models a prefetch waiting in the reservation station: the miss
        entry is visible immediately (same-line loads merge into it),
        and the returned event fires when a buffer is granted and the
        fill can start.  The caller must start the fill on that event.
        """
        if line_addr in self._entries:
            raise SimulationError(
                f"{self.name}: duplicate allocation for line {line_addr:#x}; "
                "call lookup() first"
            )
        entry = MissEntry(self.sim, line_addr)
        self._entries[line_addr] = entry
        grant = self._slots.acquire()

        def stamp(_event) -> None:
            entry.issued_at = self.sim.now
            if self.tracer is not None:
                self._trace_occupancy()

        grant.add_callback(stamp)
        return entry, grant

    def try_allocate(self, line_addr: int) -> Optional[MissEntry]:
        """Obtain a buffer only if one is free right now.

        This is the semantics of a software prefetch: "processors may
        drop the prefetch when all line-fill buffers are busy" -- the
        instruction never waits for a buffer.  Returns None (and counts
        a drop) when the LFB is full.
        """
        if line_addr in self._entries:
            raise SimulationError(
                f"{self.name}: duplicate allocation for line {line_addr:#x}; "
                "call lookup() first"
            )
        if not self._slots.try_acquire():
            self.dropped_prefetches += 1
            return None
        entry = MissEntry(self.sim, line_addr)
        self._entries[line_addr] = entry
        if self.tracer is not None:
            self._trace_occupancy()
        return entry

    def complete(self, entry: MissEntry, data: bytes) -> None:
        """Fill finished: wake every merged waiter, free the buffer."""
        live = self._entries.pop(entry.line_addr, None)
        if live is not entry:
            raise SimulationError(
                f"{self.name}: completion for unknown entry {entry.line_addr:#x}"
            )
        self.fills += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.complete(
                "lfb",
                self._trace_pid,
                self._trace_tid,
                "lfb-fill",
                entry.issued_at,
                self.sim.now,
                args={"merged": entry.merged_loads},
            )
        entry.data_ready.succeed(data)
        self._slots.release()
        if tracer is not None:
            self._trace_occupancy()
