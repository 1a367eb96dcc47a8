"""Per-core memory subsystem: L1 + line-fill buffers + uncore routing.

This is the path every load and prefetch takes:

    L1 probe -> (hit: a few cycles)
             -> (merge: wait on the existing miss's fill)
             -> allocate an LFB entry      [10/core  -- Figure 3 cap]
             -> shared uncore path queue   [14 chip-wide -- Figure 5 cap]
             -> hop -> memory target (DRAM channel or PCIe+device) -> hop
             -> install in L1, wake waiters, free LFB + queue slot

LFB allocation happens on the caller's (front-end's) time; everything
downstream runs as a detached chain of event callbacks (a
:class:`LineFill`) so the core keeps dispatching while fills are in
flight.
"""

from __future__ import annotations

from typing import Optional

from repro.config import CacheConfig
from repro.cpu.cache import L1Cache
from repro.cpu.lfb import LineFillBuffers, MissEntry
from repro.cpu.uncore import AddressSpace, Uncore
from repro.sim import Event, Simulator
from repro.sim.trace import LatencyStat
from repro.units import Frequency

__all__ = ["CoreMemorySystem", "LineFill"]


class LineFill:
    """One line fill, from its LFB grant to the L1 install.

    Each step is an event callback: :meth:`launch` starts the fill one
    zero-delay timeout later (the hop rule of docs/MODEL.md), then the
    fill waits for the shared uncore queue, crosses the hop, reads the
    line from the path's target, crosses the hop back and completes
    the miss entry.  A failed read releases the queue slot and raises
    out of the simulation.
    """

    __slots__ = ("memsys", "entry", "line", "space", "queue", "data")

    def __init__(
        self,
        memsys: "CoreMemorySystem",
        entry: MissEntry,
        line: int,
        space: AddressSpace,
    ) -> None:
        self.memsys = memsys
        self.entry = entry
        self.line = line
        self.space = space

    def launch(self, _event: Optional[Event] = None) -> None:
        """Start the fill one zero-delay hop from now."""
        self.memsys.sim.timeout(0).add_callback(self._acquire)

    def _acquire(self, _event: Event) -> None:
        self.queue = self.memsys.uncore.queue(self.space)
        self.queue.acquire().add_callback(self._granted)

    def _granted(self, _event: Event) -> None:
        uncore = self.memsys.uncore
        if uncore.tracer is not None:
            uncore.trace_queue(self.space)
        self.memsys.sim.timeout(uncore.hop_ticks).add_callback(self._read)

    def _read(self, _event: Event) -> None:
        try:
            read = self.memsys.uncore.target(self.space).read_line(self.line)
        except BaseException:
            self.queue.release()
            raise
        read.add_callback(self._returned)

    def _returned(self, event: Event) -> None:
        if event._exception is not None:
            self.queue.release()
            raise event._exception
        self.data = event._value
        memsys = self.memsys
        memsys.sim.timeout(memsys.uncore.hop_ticks).add_callback(self._install)

    def _install(self, _event: Event) -> None:
        memsys = self.memsys
        line = self.line
        data = self.data
        victim = memsys.l1.install(line)
        if victim is not None:
            memsys._contents.pop(victim, None)
        memsys._contents[line] = data
        self.queue.release()
        if memsys.uncore.tracer is not None:
            memsys.uncore.trace_queue(self.space)
        memsys.fill_latency.record(memsys.sim.now - self.entry.issued_at)
        memsys.lfb.complete(self.entry, data)


class CoreMemorySystem:
    """One core's private cache/LFB view onto the shared uncore."""

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        cache_config: CacheConfig,
        lfb_entries: int,
        uncore: Uncore,
        frequency: Frequency,
        drop_prefetch_when_full: bool = False,
    ) -> None:
        self.sim = sim
        self.core_id = core_id
        self.line_bytes = cache_config.line_bytes
        self.l1 = L1Cache(cache_config, name=f"l1d{core_id}")
        self.lfb = LineFillBuffers(sim, lfb_entries, name=f"lfb{core_id}")
        self.uncore = uncore
        self.drop_prefetch_when_full = drop_prefetch_when_full
        #: Posted-write buffer; attached by the system builder (None in
        #: read-only unit-test rigs).
        self.store_buffer = None
        #: Optional hardware stride prefetcher (the paper disables it;
        #: the interference ablation enables it).
        self.hw_prefetcher = None
        self._hit_ticks = frequency.cycles(cache_config.hit_cycles)
        self.fill_latency = LatencyStat(f"core{core_id}-fill")
        #: Byte contents of L1-resident lines (hits must not consult
        #: the backing store; in replay mode it may not be readable).
        self._contents: dict[int, bytes] = {}

    def register_metrics(self, registry, prefix: str) -> None:
        self.lfb.register_metrics(registry, f"{prefix}.lfb")
        registry.register(f"{prefix}.fill_latency", self.fill_latency)
        registry.register(f"{prefix}.l1_hits", lambda: self.l1.hits)
        registry.register(f"{prefix}.l1_misses", lambda: self.l1.misses)

    def line_of(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def load_line(self, addr: int, space: AddressSpace) -> Event:
        """Start a load of ``addr``'s line; never blocks the caller.

        Returns an event that fires with the line's bytes: an L1 hit
        after the hit latency, a merge into an in-flight miss, or a
        fresh miss that waits in the reservation station for a
        line-fill buffer and then fills.
        """
        line = self.line_of(addr)
        if self.l1.lookup(line):
            if self.hw_prefetcher is not None:
                self.hw_prefetcher.note_hit(line)
            hit = Event(self.sim)
            self.sim._schedule_value(hit, self._hit_ticks, self._line_data(line))
            return hit
        merged = self.lfb.lookup(line)
        if merged is not None:
            if self.hw_prefetcher is not None:
                self.hw_prefetcher.note_hit(line)
            return merged.data_ready
        if self.hw_prefetcher is not None:
            self.hw_prefetcher.observe_miss(line, space)
        entry, granted = self.lfb.allocate_queued(line)
        granted.add_callback(LineFill(self, entry, line, space).launch)
        return entry.data_ready

    def prefetch_line(self, addr: int, space: AddressSpace) -> Event:
        """Non-binding prefetch of a line (never blocks the caller).

        Returns the event marking the prefetch *issued* (the point the
        instruction can retire).  No-op (already fired) on an L1 hit or
        an in-flight miss.  On a fresh miss, behaviour follows the
        configured policy:

        * ``queue`` (default): with every line-fill buffer busy the
          prefetch waits in the reservation station; it cannot retire
          until a buffer frees, so ROB backpressure smoothly throttles
          dispatch to the fill rate -- the flat >10-thread plateau of
          Figure 3.
        * ``drop``: the prefetch is silently discarded when no buffer
          is free (counted in ``lfb.dropped_prefetches``); the later
          demand load then takes the full miss.
        """
        line = self.line_of(addr)
        if self.l1.contains(line) or self.lfb.contains(line):
            return self._fired()
        if self.drop_prefetch_when_full:
            entry = self.lfb.try_allocate(line)
            if entry is not None:
                LineFill(self, entry, line, space).launch()
            return self._fired()
        entry, granted = self.lfb.allocate_queued(line)
        granted.add_callback(LineFill(self, entry, line, space).launch)
        return granted

    def _fired(self) -> Event:
        event = Event(self.sim)
        event.succeed(None)
        return event

    def _line_data(self, line: int) -> bytes:
        return self._contents.get(line, b"\x00" * self.line_bytes)
