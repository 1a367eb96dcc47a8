"""A set-associative, LRU, line-presence L1 data cache.

Timing-wise the cache answers one question: does this access hit (a
few cycles) or miss (allocate an LFB and go off-core)?  Contents are
functional and live in :class:`repro.memory.FlatMemory`; the cache
tracks presence only.

The microbenchmark defeats the cache on purpose ("we make each access
go to a different cache line", section IV-C); the applications get
realistic reuse on their hot structures.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.config import CacheConfig
from repro.errors import AddressError

__all__ = ["L1Cache"]


class L1Cache:
    """Presence tracker with per-set LRU replacement."""

    def __init__(self, config: CacheConfig, name: str = "l1d") -> None:
        self.config = config
        self.name = name
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(config.sets)
        ]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.installs = 0

    def _index(self, line_addr: int) -> int:
        if line_addr % self.config.line_bytes != 0:
            raise AddressError(f"{line_addr:#x} is not line aligned")
        return (line_addr // self.config.line_bytes) % self.config.sets

    def lookup(self, line_addr: int) -> bool:
        """Probe for ``line_addr``; updates LRU order and hit stats."""
        bucket = self._sets[self._index(line_addr)]
        if line_addr in bucket:
            bucket.move_to_end(line_addr)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, line_addr: int) -> bool:
        """Probe without touching LRU state or statistics."""
        return line_addr in self._sets[self._index(line_addr)]

    def install(self, line_addr: int) -> int | None:
        """Insert a filled line, evicting the set's LRU victim if full.

        Returns the evicted line address, or None if nothing was
        evicted (callers tracking line contents drop the victim's).
        """
        bucket = self._sets[self._index(line_addr)]
        if line_addr in bucket:
            bucket.move_to_end(line_addr)
            return None
        victim: int | None = None
        if len(bucket) >= self.config.ways:
            victim, _ = bucket.popitem(last=False)
            self.evictions += 1
        bucket[line_addr] = None
        self.installs += 1
        return victim

    @property
    def resident_lines(self) -> int:
        return sum(len(bucket) for bucket in self._sets)
