"""The Memcached lookup benchmark (section IV-C).

"Performs the lookup operations of the Memcached in-memory key-value
store."  The hash table -- bucket array, chained entries, and value
blocks -- lives in the microsecond-latency device; a GET hashes the
key, walks the chain with data-dependent reads (pointer chasing:
impossible to batch), and once the key matches, retrieves the value,
which "can span multiple cache lines, resulting in independent memory
accesses that can overlap" -- the four-read batch of Figure 10.  The
post-access computation is the benign work loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.host.system import System
from repro.memory import WORD_BYTES, FlatMemory
from repro.runtime.api import AccessContext
from repro.workloads.hashing import hash_with_seed, mix64, mix64_array
from repro.workloads.seeds import thread_seed

__all__ = ["MemcachedParams", "KvStore", "memcached_get_thread", "install_memcached"]

#: Entry layout (one cache line): key, value pointer, next pointer.
_ENTRY_KEY = 0
_ENTRY_VALUE = 8
_ENTRY_NEXT = 16
_ENTRY_BYTES = 64


@dataclass(frozen=True)
class MemcachedParams:
    """Store sizing and query parameters."""

    items: int = 2048
    buckets: int = 2048
    #: Value size; 256 B spans four cache lines -> the 4-read batch.
    value_bytes: int = 256
    work_count: int = 200
    gets_per_thread: int = 64

    def __post_init__(self) -> None:
        if self.items < 1 or self.buckets < 1:
            raise ConfigError("store must have items and buckets")
        if self.value_bytes < 8 or self.value_bytes % 64 != 0:
            raise ConfigError("value size must be a positive multiple of 64")
        if self.gets_per_thread < 1:
            raise ConfigError("need at least one GET per thread")

    @property
    def value_lines(self) -> int:
        return self.value_bytes // 64


def value_word(key: int, index: int) -> int:
    """The deterministic content of word ``index`` of ``key``'s value
    (lets tests verify end-to-end data integrity)."""
    return mix64(key * 31 + index)


class KvStore:
    """A chained hash table in simulated memory."""

    def __init__(
        self, params: MemcachedParams, base_addr: int, world: FlatMemory
    ) -> None:
        self.params = params
        self.base_addr = base_addr
        self.world = world
        self._entries_base = base_addr + params.buckets * WORD_BYTES
        self._values_base = self._entries_base + params.items * _ENTRY_BYTES
        self.max_chain = 0

    @staticmethod
    def size_bytes(params: MemcachedParams) -> int:
        return (
            params.buckets * WORD_BYTES
            + params.items * _ENTRY_BYTES
            + params.items * params.value_bytes
        )

    # -- layout ---------------------------------------------------------------

    def _bucket_addr(self, key: int) -> int:
        bucket = mix64(key) % self.params.buckets
        return self.base_addr + bucket * WORD_BYTES

    def _entry_addr(self, index: int) -> int:
        return self._entries_base + index * _ENTRY_BYTES

    def _value_addr(self, index: int) -> int:
        return self._values_base + index * self.params.value_bytes

    # -- functional build --------------------------------------------------------

    def populate(self, keys) -> None:
        """Insert every key (untimed setup).  Chains push at head.

        The value region is written in one bulk pass; only the entry
        words and the bucket heads are written key by key.
        """
        import numpy as np

        keys = list(keys)
        params = self.params
        if len(keys) > params.items:
            raise ConfigError(
                f"{len(keys)} keys overflow a store of {params.items} items"
            )
        world = self.world
        key_words = np.array(keys, dtype=np.uint64)
        word_index = np.arange(params.value_bytes // WORD_BYTES, dtype=np.uint64)
        # value_word(key, i) of every key's words, key by key.
        values = mix64_array(key_words[:, None] * np.uint64(31) + word_index)
        world.write_words(self._values_base, values.ravel())
        buckets = (mix64_array(key_words) % np.uint64(params.buckets)).astype(np.int64)
        for index, (key, bucket) in enumerate(zip(keys, buckets.tolist())):
            bucket_addr = self.base_addr + bucket * WORD_BYTES
            entry = self._entry_addr(index)
            world.write_word(entry + _ENTRY_KEY, key)
            world.write_word(entry + _ENTRY_VALUE, self._value_addr(index))
            world.write_word(entry + _ENTRY_NEXT, world.read_word(bucket_addr))
            world.write_word(bucket_addr, entry)
        chains = np.bincount(buckets, minlength=1)
        self.max_chain = max(self.max_chain, int(chains.max()))

    def get_functional(self, key: int) -> list[int] | None:
        """Untimed GET (test oracle): the value words, or None."""
        entry = self.world.read_word(self._bucket_addr(key))
        while entry:
            if self.world.read_word(entry + _ENTRY_KEY) == key:
                value_addr = self.world.read_word(entry + _ENTRY_VALUE)
                return [
                    self.world.read_word(value_addr + i * WORD_BYTES)
                    for i in range(self.params.value_bytes // WORD_BYTES)
                ]
            entry = self.world.read_word(entry + _ENTRY_NEXT)
        return None

    # -- timed GET ------------------------------------------------------------------

    def get(self, ctx: AccessContext, key: int):
        """Timed GET through the device-access API.

        Chain walking is data-dependent (one read at a time); value
        retrieval batches one read per value line.
        """
        entry = yield from ctx.read(self._bucket_addr(key))
        while entry:
            stored_key = yield from ctx.read(entry + _ENTRY_KEY)
            if stored_key == key:
                value_addr = yield from ctx.read(entry + _ENTRY_VALUE)
                line_addrs = [
                    value_addr + line * 64 for line in range(self.params.value_lines)
                ]
                first_words = yield from ctx.read_batch(line_addrs)
                return first_words
            entry = yield from ctx.read(entry + _ENTRY_NEXT)
        return None


def memcached_get_thread(
    ctx: AccessContext,
    store: KvStore,
    keys: list[int],
    results: list,
):
    """One GET thread: look up each key, then run the work loop."""
    for key in keys:
        value = yield from store.get(ctx, key)
        results.append(value)
        yield from ctx.work(store.params.work_count)


def make_get_keys(params: MemcachedParams, thread_seed: int) -> list[int]:
    """A GET stream over the populated key space (all hits, like a
    warm cache; key ids are scrambled per thread)."""
    return [
        hash_with_seed(i, thread_seed * 104729 + 7) % params.items
        for i in range(params.gets_per_thread)
    ]


def install_memcached(
    system: System, params: MemcachedParams, threads_per_core: int
) -> dict[tuple[int, int], list]:
    """Build one store per core, populate it, spawn GET threads."""
    stores: dict[int, KvStore] = {}
    results: dict[tuple[int, int], list] = {}

    def factory(ctx: AccessContext, core_id: int, slot: int):
        if core_id not in stores:
            base = system.alloc_data(core_id, KvStore.size_bytes(params))
            store = KvStore(params, base, system.world)
            store.populate(range(params.items))
            stores[core_id] = store
        out: list = []
        results[(core_id, slot)] = out
        keys = make_get_keys(params, thread_seed=thread_seed(core_id, slot))
        return memcached_get_thread(ctx, stores[core_id], keys, out)

    system.spawn_per_core(threads_per_core, factory)
    return results
