"""Unit tests for the Memcached lookup workload."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AccessMechanism, BackingStore, SystemConfig
from repro.errors import ConfigError
from repro.host.system import System
from repro.memory import WORD_BYTES, FlatMemory
from repro.workloads.hashing import mix64, mix64_array
from repro.workloads.memcached import (
    KvStore,
    MemcachedParams,
    install_memcached,
    make_get_keys,
    value_word,
)

SMALL = MemcachedParams(items=128, buckets=64, gets_per_thread=8)


def test_params_validation():
    with pytest.raises(ConfigError):
        MemcachedParams(items=0)
    with pytest.raises(ConfigError):
        MemcachedParams(value_bytes=100)  # not a multiple of 64
    with pytest.raises(ConfigError):
        MemcachedParams(gets_per_thread=0)


def test_value_lines():
    assert MemcachedParams(value_bytes=256).value_lines == 4


def test_functional_get_returns_stored_value():
    world = FlatMemory()
    store = KvStore(SMALL, base_addr=0, world=world)
    store.populate(range(SMALL.items))
    for key in (0, 1, 63, 127):
        value = store.get_functional(key)
        assert value is not None
        for index, word in enumerate(value):
            assert word == value_word(key, index)


def test_functional_get_misses_unknown_key():
    world = FlatMemory()
    store = KvStore(SMALL, base_addr=0, world=world)
    store.populate(range(SMALL.items))
    assert store.get_functional(99999) is None


def test_chains_are_built():
    world = FlatMemory()
    store = KvStore(SMALL, base_addr=0, world=world)
    store.populate(range(SMALL.items))
    # 128 keys into 64 buckets: at least one chain of length >= 2.
    assert store.max_chain >= 2


def test_timed_get_matches_functional_value():
    config = SystemConfig(
        mechanism=AccessMechanism.ON_DEMAND, backing=BackingStore.DRAM
    )
    system = System(config)
    results = install_memcached(system, SMALL, threads_per_core=2)
    system.run_to_completion(limit_ticks=10**11)
    for (core, slot), values in results.items():
        keys = make_get_keys(SMALL, thread_seed=core * 1000 + slot)
        assert len(values) == len(keys)
        for key, value in zip(keys, values):
            assert value is not None
            # The timed GET returns the first word of each value line.
            for line, word in enumerate(value):
                assert word == value_word(key, line * 8)


def test_all_mechanisms_return_identical_values():
    outcomes = []
    for backing, mechanism in (
        (BackingStore.DRAM, AccessMechanism.ON_DEMAND),
        (BackingStore.DEVICE, AccessMechanism.PREFETCH),
        (BackingStore.DEVICE, AccessMechanism.SOFTWARE_QUEUE),
    ):
        config = SystemConfig(
            mechanism=mechanism, backing=backing, threads_per_core=2
        )
        system = System(config)
        results = install_memcached(system, SMALL, threads_per_core=2)
        system.run_to_completion(limit_ticks=10**11)
        outcomes.append(
            {
                key: tuple(tuple(v) for v in values)
                for key, values in sorted(results.items())
            }
        )
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_store_size_accounts_all_regions():
    size = KvStore.size_bytes(SMALL)
    expected = 64 * 8 + 128 * 64 + 128 * 256
    assert size == expected


def test_populate_rejects_more_keys_than_items():
    world = FlatMemory()
    store = KvStore(MemcachedParams(items=4, buckets=4, value_bytes=64), 0, world)
    with pytest.raises(ConfigError):
        store.populate(range(5))
    assert world.word_count() == 0
    assert store.max_chain == 0


# -- the bulk fill leaves the word-by-word image ---------------------------------


def reference_populate(store: KvStore, keys) -> None:
    """The word-by-word fill that bulk ``populate`` replaced."""
    world = store.world
    chain_len: dict[int, int] = {}
    for index, key in enumerate(keys):
        bucket_addr = store._bucket_addr(key)
        entry = store._entry_addr(index)
        world.write_word(entry, key)
        world.write_word(entry + 8, store._value_addr(index))
        world.write_word(entry + 16, world.read_word(bucket_addr))
        world.write_word(bucket_addr, entry)
        for word_index in range(store.params.value_bytes // WORD_BYTES):
            world.write_word(
                store._value_addr(index) + word_index * WORD_BYTES,
                value_word(key, word_index),
            )
        bucket = mix64(key) % store.params.buckets
        chain_len[bucket] = chain_len.get(bucket, 0) + 1
        store.max_chain = max(store.max_chain, chain_len[bucket])


def _image(world: FlatMemory, stores) -> list[bytes]:
    lines = []
    for store in stores:
        end = store.base_addr + KvStore.size_bytes(store.params)
        first = world.line_address(store.base_addr)
        lines.extend(world.read_line(addr) for addr in range(first, end, world.line_bytes))
    return lines


def _fill_both(params: MemcachedParams, bases, key_counts):
    """(bulk, reference) worlds and stores; each store is populated once
    per entry of ``key_counts``, with that many keys."""
    built = []
    for fill in (KvStore.populate, reference_populate):
        world = FlatMemory()
        stores = [KvStore(params, base, world) for base in bases]
        for store in stores:
            for count in key_counts:
                fill(store, range(count))
        built.append((world, stores))
    return built


@pytest.mark.parametrize(
    "params, bases, key_counts",
    [
        (MemcachedParams(items=128, buckets=16), [0], [128]),
        (MemcachedParams(items=64, buckets=64, value_bytes=64), [0], [64]),
        (MemcachedParams(items=1, buckets=1), [4096], [1]),
        (MemcachedParams(items=1, buckets=5, value_bytes=64), [0], [1]),
        (MemcachedParams(items=40, buckets=7, value_bytes=128), [0, 1 << 20], [40]),
        # A second fill chains onto the first fill's bucket heads, and
        # max_chain keeps the longest chain of either.
        (MemcachedParams(items=40, buckets=9, value_bytes=64), [64], [40, 40, 6]),
    ],
    ids=["buckets<items", "value_bytes=64", "items=1", "odd-buckets", "two-stores", "refill"],
)
def test_bulk_populate_matches_word_by_word(params, bases, key_counts):
    (world, stores), (ref_world, ref_stores) = _fill_both(params, bases, key_counts)
    assert _image(world, stores) == _image(ref_world, ref_stores)
    assert world.word_count() == ref_world.word_count()
    assert [s.max_chain for s in stores] == [s.max_chain for s in ref_stores]


@pytest.mark.parametrize("value", [0, 1, 1 << 63, (1 << 64) - 1])
def test_mix64_array_matches_mix64_at_edges(value):
    assert mix64_array(np.array([value], dtype=np.uint64)).tolist() == [mix64(value)]


@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=50))
@settings(max_examples=60, deadline=None)
def test_mix64_array_matches_mix64(values):
    mixed = mix64_array(np.array(values, dtype=np.uint64))
    assert mixed.tolist() == [mix64(value) for value in values]
