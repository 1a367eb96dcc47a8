"""The Bloom filter benchmark (section IV-C).

"A high-performance implementation of lookups in a pre-populated
dataset ... space-efficient probabilistic data structures for
determining if a searched object is likely present in a set."

The bit array lives in the microsecond-latency device (or in host DRAM
for the baseline); each lookup probes ``hash_count`` independent bit
positions -- a natural batch of four independent reads, which is how
the paper runs it ("the nature of the applications permits batches of
four reads for Memcached and Bloomfilter").  As in the paper, the
post-access computation is replaced by the microbenchmark's benign
work loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.host.system import System
from repro.memory import WORD_BYTES, FlatMemory
from repro.runtime.api import AccessContext
from repro.workloads.hashing import hash_with_seed
from repro.workloads.seeds import thread_seed

__all__ = ["BloomParams", "BloomFilter", "bloom_lookup_thread", "install_bloom"]


@dataclass(frozen=True)
class BloomParams:
    """Sizing and query-mix parameters."""

    #: Logical capacity.  The default makes the bit array ~1.3 MB --
    #: 40x the L1 -- so probes are genuine device reads, like the
    #: paper's big-data setting.  Only queried keys are materialized
    #: in the sparse functional memory, so setup stays cheap.
    items: int = 1 << 20
    bits_per_item: int = 10
    hash_count: int = 4
    #: Work instructions per lookup (the benign work loop).
    work_count: int = 200
    #: Queries per thread; half hit, half miss, interleaved.
    queries_per_thread: int = 64

    def __post_init__(self) -> None:
        if self.items < 1:
            raise ConfigError("bloom filter needs at least one item")
        if self.bits_per_item < 1:
            raise ConfigError("need at least one bit per item")
        if not 1 <= self.hash_count <= 8:
            raise ConfigError("hash count must be in [1, 8]")
        if self.queries_per_thread < 1:
            raise ConfigError("need at least one query per thread")

    @property
    def bits(self) -> int:
        """Bit-array size, rounded up to a whole number of words."""
        raw = self.items * self.bits_per_item
        return (raw + 63) // 64 * 64


class BloomFilter:
    """A Bloom filter whose bit array lives in simulated memory."""

    def __init__(self, params: BloomParams, base_addr: int, world: FlatMemory) -> None:
        self.params = params
        self.base_addr = base_addr
        self.world = world

    @property
    def size_bytes(self) -> int:
        return self.params.bits // 8

    def _bit_positions(self, key: int) -> list[int]:
        return [
            hash_with_seed(key, seed) % self.params.bits
            for seed in range(self.params.hash_count)
        ]

    def _word_addr(self, bit: int) -> int:
        return self.base_addr + (bit // 64) * WORD_BYTES

    def populate(self, keys) -> None:
        """Functional setup: set the bits of every key (untimed, like
        the paper's pre-populated dataset)."""
        for key in keys:
            for bit in self._bit_positions(key):
                addr = self._word_addr(bit)
                word = self.world.read_word(addr)
                self.world.write_word(addr, word | (1 << (bit % 64)))

    def contains_functional(self, key: int) -> bool:
        """Untimed membership check (test oracle)."""
        return all(
            self.world.read_word(self._word_addr(bit)) >> (bit % 64) & 1
            for bit in self._bit_positions(key)
        )

    def lookup(self, ctx: AccessContext, key: int):
        """Timed membership check through the device-access API.

        Issues one batched dev_access for all probe words, then tests
        the bits in the returned values.
        """
        bits = self._bit_positions(key)
        addrs = [self._word_addr(bit) for bit in bits]
        words = yield from ctx.read_batch(addrs)
        present = all(
            (word >> (bit % 64)) & 1 for word, bit in zip(words, bits)
        )
        return present


def bloom_lookup_thread(
    ctx: AccessContext,
    bloom: BloomFilter,
    keys: list[int],
    results: list[bool],
):
    """One lookup thread: query each key, then run the work loop."""
    for key in keys:
        present = yield from bloom.lookup(ctx, key)
        results.append(present)
        yield from ctx.work(bloom.params.work_count)


def make_query_keys(params: BloomParams, thread_seed: int) -> list[int]:
    """Half present keys, half absent, deterministically interleaved."""
    keys = []
    for i in range(params.queries_per_thread):
        if i % 2 == 0:
            keys.append(hash_with_seed(i + thread_seed * 7919, 100) % params.items)
        else:
            keys.append(params.items + hash_with_seed(i, thread_seed) % params.items)
    return keys


def install_bloom(
    system: System, params: BloomParams, threads_per_core: int
) -> dict[tuple[int, int], list[bool]]:
    """Build one filter per logical core, populate it, spawn lookup
    threads.

    Returns a (core, slot) -> results mapping filled during the run;
    keys below ``params.items`` are the populated ones.
    """
    filters: dict[int, BloomFilter] = {}
    results: dict[tuple[int, int], list[bool]] = {}
    # Pre-compute every thread's queries so each core's filter can be
    # populated with exactly the present keys (the sparse functional
    # memory then only materializes pages the run will touch).
    present_by_core: dict[int, set[int]] = {}
    for core_id in range(system.logical_cores):
        present: set[int] = set()
        for slot in range(threads_per_core):
            keys = make_query_keys(params, thread_seed=thread_seed(core_id, slot))
            present.update(key for key in keys if key < params.items)
        present_by_core[core_id] = present

    def factory(ctx: AccessContext, core_id: int, slot: int):
        if core_id not in filters:
            base = system.alloc_data(core_id, params.bits // 8)
            bloom = BloomFilter(params, base, system.world)
            bloom.populate(present_by_core[core_id])
            filters[core_id] = bloom
        out: list[bool] = []
        results[(core_id, slot)] = out
        keys = make_query_keys(params, thread_seed=thread_seed(core_id, slot))
        return bloom_lookup_thread(ctx, filters[core_id], keys, out)

    system.spawn_per_core(threads_per_core, factory)
    return results
