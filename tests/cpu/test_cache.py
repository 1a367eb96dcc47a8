"""Unit tests for the L1 presence cache."""

import pytest

from repro.config import CacheConfig
from repro.cpu.cache import L1Cache
from repro.errors import AddressError


def small_cache(sets=2, ways=2):
    return L1Cache(CacheConfig(sets=sets, ways=ways))


def test_miss_then_hit():
    cache = small_cache()
    assert not cache.lookup(0x0)
    cache.install(0x0)
    assert cache.lookup(0x0)
    assert cache.hits == 1 and cache.misses == 1


def test_unaligned_address_rejected():
    cache = small_cache()
    with pytest.raises(AddressError):
        cache.lookup(0x7)


def test_lru_eviction_order():
    cache = small_cache(sets=1, ways=2)
    cache.install(0x0)
    cache.install(0x40)
    cache.lookup(0x0)  # make 0x0 most-recently-used
    victim = cache.install(0x80)
    assert victim == 0x40
    assert cache.contains(0x0) and cache.contains(0x80)
    assert not cache.contains(0x40)
    assert cache.evictions == 1


def test_sets_are_independent():
    cache = small_cache(sets=2, ways=1)
    cache.install(0x0)    # set 0
    cache.install(0x40)   # set 1
    assert cache.contains(0x0) and cache.contains(0x40)
    # A third line in set 0 evicts only from set 0.
    victim = cache.install(0x80)
    assert victim == 0x0
    assert cache.contains(0x40)


def test_reinstall_refreshes_lru_without_eviction():
    cache = small_cache(sets=1, ways=2)
    cache.install(0x0)
    cache.install(0x40)
    assert cache.install(0x0) is None  # refresh, no eviction
    victim = cache.install(0x80)
    assert victim == 0x40


def test_contains_does_not_touch_stats():
    cache = small_cache()
    cache.contains(0x0)
    assert cache.hits == 0 and cache.misses == 0


def test_capacity_property():
    config = CacheConfig(sets=64, ways=8, line_bytes=64)
    assert config.capacity_bytes == 32 * 1024
