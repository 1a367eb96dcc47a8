"""A hardware stride prefetcher (the one the paper turns off).

Section IV-A: "hardware prefetching is also disabled to avoid
interference with the software prefetch mechanism."  This module
implements the disabled unit -- a classic stride detector -- so the
interference can be measured instead of assumed:

* on sequential streams it runs ahead of demand and hides latency
  (good for unmodified on-demand code);
* under the software-prefetch mechanism it competes for the same ten
  line-fill buffers, displacing useful software prefetches;
* on random access patterns (Bloom probes, hash chains) it issues
  useless device reads that waste buffers and bandwidth.

Hardware prefetches are droppable: when every LFB is busy they vanish
(unlike RS-queued software prefetches, they have no instruction to
hold).
"""

from __future__ import annotations

from repro.cpu.memsys import LineFill
from repro.cpu.uncore import AddressSpace
from repro.errors import ConfigError

__all__ = ["StridePrefetcher"]


class StridePrefetcher:
    """A confidence-counting stride detector with a small stream table.

    Tracks up to ``streams`` concurrent access streams (keyed by 4 KiB
    region, like real L1 prefetchers).  After ``threshold`` repeats of
    the same line stride within a region, it prefetches ``degree``
    lines ahead of the demand stream.
    """

    REGION_BYTES = 4096

    def __init__(
        self,
        memsys,
        degree: int = 2,
        threshold: int = 2,
        streams: int = 8,
    ) -> None:
        if degree < 1 or threshold < 1 or streams < 1:
            raise ConfigError("prefetcher parameters must be positive")
        self.memsys = memsys
        self.degree = degree
        self.threshold = threshold
        self.streams = streams
        #: region -> (last_line, last_stride, confidence); insertion
        #: order doubles as LRU for stream-table replacement.
        self._table: dict[int, tuple[int, int, int]] = {}
        self.observed = 0
        self.issued = 0
        self.dropped = 0
        self.useful = 0
        #: Lines brought in by this prefetcher, to attribute usefulness.
        self._inflight_lines: set[int] = set()
        #: Space of the most recent training miss (streams stay within
        #: one backing store).
        self._last_space = AddressSpace.DEVICE

    def observe_miss(self, line_addr: int, space: AddressSpace) -> None:
        """Train on a demand miss and possibly prefetch ahead."""
        self.observed += 1
        self._last_space = space
        region = line_addr // self.REGION_BYTES
        last = self._table.pop(region, None)
        if last is None:
            self._table[region] = (line_addr, 0, 0)
            self._evict_streams()
            return
        last_line, last_stride, confidence = last
        stride = line_addr - last_line
        if stride != 0 and stride == last_stride:
            confidence += 1
        else:
            confidence = 0
        self._table[region] = (line_addr, stride, confidence)
        self._evict_streams()
        if confidence >= self.threshold and stride != 0:
            for ahead in range(1, self.degree + 1):
                target = line_addr + ahead * stride
                # Like real L1 prefetchers, never cross the training
                # region (page) boundary -- the physical mapping past
                # it is unknown to the hardware.
                if target // self.REGION_BYTES != region:
                    break
                self._issue(target, space)

    def note_hit(self, line_addr: int) -> None:
        """A demand access hit a line; if we brought it in, count it
        and keep the stream running.

        Without this, a trained stream would stall as soon as its own
        prefetches start hitting (no more misses to train on); real
        prefetchers advance their stream on prefetched-line hits.
        """
        if line_addr not in self._inflight_lines:
            return
        self._inflight_lines.discard(line_addr)
        self.useful += 1
        region = line_addr // self.REGION_BYTES
        entry = self._table.get(region)
        if entry is None:
            return
        _last_line, stride, confidence = entry
        if stride != 0 and confidence >= self.threshold:
            self._table.pop(region)
            self._table[region] = (line_addr, stride, confidence)
            for ahead in range(1, self.degree + 1):
                target = line_addr + ahead * stride
                if target // self.REGION_BYTES != region:
                    break
                self._issue(target, self._last_space)

    def _issue(self, line_addr: int, space: AddressSpace) -> None:
        if line_addr < 0:
            return
        memsys = self.memsys
        if memsys.l1.contains(line_addr) or memsys.lfb.contains(line_addr):
            return
        # Hardware prefetches drop at full LFBs (no RS entry to wait in).
        entry = memsys.lfb.try_allocate(line_addr)
        if entry is None:
            self.dropped += 1
            return
        self.issued += 1
        self._inflight_lines.add(line_addr)
        if len(self._inflight_lines) > 4 * self.streams * self.degree:
            self._inflight_lines.pop()
        LineFill(memsys, entry, line_addr, space).launch()

    def _evict_streams(self) -> None:
        while len(self._table) > self.streams:
            oldest = next(iter(self._table))
            del self._table[oldest]

    def coverage(self) -> float:
        """Fraction of issued prefetches that a demand access used."""
        return self.useful / self.issued if self.issued else 0.0
