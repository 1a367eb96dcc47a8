"""Access-trace recording and the emulator's replay modules.

The FPGA's on-board DRAM is far too slow to serve random cache-line
reads at emulated-device rates, so the paper records each experiment's
access sequence, preloads it, and *streams* it ahead of the host's
requests (section IV-A).  Deviations between the recorded and observed
sequences -- CPU cache hits (entries never requested), reordering, and
wrong-path speculative accesses (requests never recorded) -- are
absorbed by a sliding window with an age-based associative lookup and
an on-demand fallback.

This module implements the trace, the streamer, and the replay window;
:mod:`repro.device.emulator` wires them to the request path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, Optional

from repro.errors import ReplayError
from repro.interconnect.dram import DramChannel
from repro.sim import Simulator, Store

__all__ = ["TraceEntry", "AccessTrace", "ReplayStreamer", "ReplayModule"]


@dataclass(frozen=True)
class TraceEntry:
    """One recorded access: a line address and its contents."""

    line_addr: int
    data: bytes


class AccessTrace:
    """An ordered record of one core's line reads.

    Recorded during a functional-mode run, preloaded into the
    emulator's on-board DRAM, and replayed during the measured run.
    """

    #: On-board DRAM footprint of one entry: 64 B of data + 8 B address.
    ENTRY_BYTES = 72

    def __init__(self, entries: Optional[Iterable[TraceEntry]] = None) -> None:
        self.entries: list[TraceEntry] = list(entries or [])

    def record(self, line_addr: int, data: bytes) -> None:
        self.entries.append(TraceEntry(line_addr, data))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def storage_bytes(self) -> int:
        """Bytes of on-board DRAM the preloaded trace occupies."""
        return len(self.entries) * self.ENTRY_BYTES

    # -- persistence -------------------------------------------------------------
    #
    # Traces can be captured once (an expensive functional run) and
    # replayed across many experiments, so they serialize to a compact
    # binary format: a header, then per entry an 8-byte little-endian
    # address followed by the line bytes.

    _MAGIC = b"KMTRACE1"

    def save(self, path) -> int:
        """Write the trace to ``path``; returns the bytes written."""
        import struct

        line_bytes = len(self.entries[0].data) if self.entries else 64
        blob = bytearray()
        blob += self._MAGIC
        blob += struct.pack("<IQ", line_bytes, len(self.entries))
        for entry in self.entries:
            if len(entry.data) != line_bytes:
                raise ReplayError("trace entries have inconsistent line sizes")
            blob += struct.pack("<Q", entry.line_addr)
            blob += entry.data
        with open(path, "wb") as handle:
            handle.write(blob)
        return len(blob)

    @classmethod
    def load(cls, path) -> "AccessTrace":
        """Read a trace previously written by :meth:`save`."""
        import struct

        with open(path, "rb") as handle:
            blob = handle.read()
        if blob[: len(cls._MAGIC)] != cls._MAGIC:
            raise ReplayError(f"{path}: not a trace file (bad magic)")
        offset = len(cls._MAGIC)
        line_bytes, count = struct.unpack_from("<IQ", blob, offset)
        offset += struct.calcsize("<IQ")
        expected = offset + count * (8 + line_bytes)
        if len(blob) != expected:
            raise ReplayError(
                f"{path}: truncated trace ({len(blob)} bytes, expected {expected})"
            )
        entries = []
        for _ in range(count):
            (line_addr,) = struct.unpack_from("<Q", blob, offset)
            offset += 8
            data = bytes(blob[offset : offset + line_bytes])
            offset += line_bytes
            entries.append(TraceEntry(line_addr, data))
        return cls(entries)

    def with_offset(self, offset: int) -> "AccessTrace":
        """A copy with every address shifted by ``offset``.

        "We reuse the same recorded access sequence (after applying an
        address offset) to handle requests from multiple cores"
        (section IV-A).
        """
        return AccessTrace(
            TraceEntry(entry.line_addr + offset, entry.data)
            for entry in self.entries
        )


class ReplayStreamer:
    """Streams trace entries out of on-board DRAM ahead of demand.

    A pump process bulk-reads entries from the (slow, bandwidth-bound)
    on-board DRAM channel into a bounded prefetch FIFO; the replay
    window refills from the FIFO.  If the host outruns the stream, the
    window starves and responses miss their deadlines -- the failure
    mode the paper's design avoids by reading "well in advance".
    """

    def __init__(
        self,
        sim: Simulator,
        trace: AccessTrace,
        channel: DramChannel,
        fifo_depth: int,
        burst_entries: int = 16,
        name: str = "replay-stream",
    ) -> None:
        if burst_entries < 1:
            raise ReplayError(f"{name}: burst must be >= 1")
        self.sim = sim
        self.trace = trace
        self.channel = channel
        self.burst_entries = burst_entries
        self.fifo: Store = Store(sim, capacity=fifo_depth, name=f"{name}-fifo")
        self.streamed = 0
        self.exhausted = False
        sim.process(self._pump(), name=name)

    def _pump(self):
        entries = self.trace.entries
        index = 0
        while index < len(entries):
            burst = entries[index : index + self.burst_entries]
            index += len(burst)
            # One bulk DRAM read covers the whole burst -- the latency
            # amortizes, which is what lets the stream outrun the host.
            yield self.channel.access(
                AccessTrace.ENTRY_BYTES * len(burst), value=None
            )
            for entry in burst:
                yield self.fifo.put(entry)  # blocks while the FIFO is full
                self.streamed += 1
        self.exhausted = True

    def try_next(self) -> Optional[TraceEntry]:
        ok, entry = self.fifo.try_get()
        return entry if ok else None


@dataclass
class _WindowSlot:
    entry: TraceEntry
    skip_age: int = 0


class ReplayModule:
    """Sliding-window, age-based associative lookup over a trace.

    * A request matching a window entry consumes it and ages every
      older entry (they were *skipped* -- most likely CPU cache hits).
    * Skipped entries are kept "temporarily ... to ensure they are
      found in case of access reordering", then evicted once their
      skip age exceeds ``max_skip_age``.
    * A request matching nothing is *spurious* (wrong-path) and must be
      served by the on-demand module -- the caller handles that when
      :meth:`lookup` returns ``None``.
    """

    def __init__(
        self,
        sim: Simulator,
        source: ReplayStreamer | AccessTrace,
        window_size: int,
        max_skip_age: int = 16,
        name: str = "replay",
    ) -> None:
        if window_size < 1:
            raise ReplayError(f"{name}: window must hold at least one entry")
        if max_skip_age < 1:
            raise ReplayError(f"{name}: max skip age must be >= 1")
        self.sim = sim
        self.name = name
        self.window_size = window_size
        self.max_skip_age = max_skip_age
        self._window: Deque[_WindowSlot] = deque()
        if isinstance(source, ReplayStreamer):
            self._streamer: Optional[ReplayStreamer] = source
            self._pending: Deque[TraceEntry] = deque()
        else:
            self._streamer = None
            self._pending = deque(source.entries)
        # Statistics mirroring the paper's deviation taxonomy.
        self.matches = 0
        self.catchup_pulls = 0
        self.in_order_matches = 0
        self.reordered_matches = 0
        self.skipped_entries = 0
        self.spurious_requests = 0
        self.window_starved = 0

    def _refill(self) -> None:
        while len(self._window) < self.window_size:
            entry = self._next_entry()
            if entry is None:
                return
            self._window.append(_WindowSlot(entry))

    def lookup(self, line_addr: int) -> Optional[bytes]:
        """Match a host request against the window, oldest first.

        On a window miss, the module slides forward by up to one
        window's worth of fresh entries looking for the request (long
        runs of recorded accesses absorbed by the CPU caches would
        otherwise wedge the window).  Entries the slide passes stay
        temporarily retained for reordered requests, aging out after
        ``max_skip_age`` passed-over lookups.  A request matching
        nothing even after the slide is spurious (wrong-path) and is
        served by the on-demand module (the caller handles ``None``).
        """
        self._refill()
        index = self._scan(line_addr, start=0)
        if index is None:
            scanned = len(self._window)
            index = self._slide_and_search(line_addr, scanned)
        if index is None:
            self.spurious_requests += 1
            for slot in self._window:
                slot.skip_age += 1
            self._evict_aged()
            self._trim()
            self._refill()
            return None
        self.matches += 1
        if index == 0:
            self.in_order_matches += 1
        else:
            self.reordered_matches += 1
        matched = self._window[index].entry
        del self._window[index]
        # Entries older than the match were skipped this round; retire
        # the ones that have been skipped too many times.
        for older in list(self._window)[:index]:
            older.skip_age += 1
        self._evict_aged()
        self._trim()
        self._refill()
        return matched.data

    def _scan(self, line_addr: int, start: int) -> Optional[int]:
        for index in range(start, len(self._window)):
            if self._window[index].entry.line_addr == line_addr:
                return index
        return None

    def _slide_and_search(self, line_addr: int, scanned: int) -> Optional[int]:
        """Admit up to ``window_size`` fresh entries, checking each."""
        for _pull in range(self.window_size):
            entry = self._next_entry()
            if entry is None:
                return None
            self._window.append(_WindowSlot(entry))
            self.catchup_pulls += 1
            if entry.line_addr == line_addr:
                return len(self._window) - 1
        return None

    def _next_entry(self) -> Optional[TraceEntry]:
        if self._streamer is not None:
            entry = self._streamer.try_next()
            if entry is None and not self._streamer.exhausted:
                self.window_starved += 1
            return entry
        if self._pending:
            return self._pending.popleft()
        return None

    def _evict_aged(self) -> None:
        while self._window and self._window[0].skip_age >= self.max_skip_age:
            self._window.popleft()
            self.skipped_entries += 1

    def _trim(self) -> None:
        """Bound retention after catch-up slides: at most two windows'
        worth of entries stay resident."""
        while len(self._window) > 2 * self.window_size:
            self._window.popleft()
            self.skipped_entries += 1

    @property
    def remaining(self) -> int:
        """Entries not yet admitted to the window."""
        if self._streamer is not None:
            return len(self._streamer.trace) - self._streamer.streamed
        return len(self._pending)
