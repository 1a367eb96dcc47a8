"""Property-based tests of model components and data structures."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.cpu.cache import L1Cache
from repro.device.replay import AccessTrace, ReplayModule, TraceEntry
from repro.errors import AddressError
from repro.memory import FlatMemory
from repro.runtime.queuepair import Descriptor, QueuePair
from repro.sim import Simulator
from repro.workloads.hashing import mix64

word_addr = st.integers(min_value=0, max_value=1 << 44).map(lambda a: a * 8)
word_value = st.integers(min_value=0, max_value=(1 << 64) - 1)


@given(writes=st.dictionaries(word_addr, word_value, max_size=40))
@settings(max_examples=80, deadline=None)
def test_memory_write_read_roundtrip(writes):
    memory = FlatMemory()
    for addr, value in writes.items():
        memory.write_word(addr, value)
    for addr, value in writes.items():
        assert memory.read_word(addr) == value
    assert memory.word_count() == len(writes)


#: Word indexes spanning a few 4 KiB pages (512 words of 64-byte lines).
page_word = st.integers(min_value=0, max_value=2047)
#: Starts a few words either side of a page boundary.
near_page_edge = st.builds(
    lambda page, shift: page * 512 + shift, st.integers(1, 3), st.integers(-16, 16)
)


@given(
    earlier=st.dictionaries(page_word, word_value, max_size=30),
    start=st.one_of(page_word, near_page_edge),
    length=st.integers(min_value=0, max_value=600),
    pattern=st.lists(st.integers(min_value=0, max_value=(1 << 66) - 1), min_size=1, max_size=8),
    as_array=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_write_words_matches_write_word_loop(earlier, start, length, pattern, as_array):
    run = [pattern[i % len(pattern)] for i in range(length)]
    bulk, looped = FlatMemory(), FlatMemory()
    for memory in (bulk, looped):
        for index, value in earlier.items():
            memory.write_word(index * 8, value)
    words = run
    if as_array:
        words = np.array([value & ((1 << 64) - 1) for value in run], dtype=np.uint64)
    bulk.write_words(start * 8, words)
    for offset, value in enumerate(run):
        looped.write_word((start + offset) * 8, value)
    assert bulk.word_count() == looped.word_count()
    end = max([start + length, *[index + 1 for index in earlier]])
    for index in range(end):
        value = bulk.read_word(index * 8)
        assert type(value) is int
        assert value == looped.read_word(index * 8)
    for line_addr in range(0, end * 8, 64):
        assert bulk.read_line(line_addr) == looped.read_line(line_addr)


@pytest.mark.parametrize("addr", [-8, -4096, 4, 4097])
def test_write_words_bad_address_writes_nothing(addr):
    memory = FlatMemory()
    with pytest.raises(AddressError):
        memory.write_words(addr, [1, 2, 3])
    with pytest.raises(AddressError):
        memory.write_words(addr, np.arange(3, dtype=np.uint64))
    assert memory.word_count() == 0
    aligned = max(0, addr - addr % 64)
    assert memory.read_line(aligned) == bytes(64)


@given(
    line_index=st.integers(min_value=0, max_value=1 << 30),
    words=st.lists(word_value, min_size=8, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_line_bytes_decompose_to_words(line_index, words):
    memory = FlatMemory()
    line_addr = line_index * 64
    for offset, value in enumerate(words):
        memory.write_word(line_addr + offset * 8, value)
    line = memory.read_line(line_addr)
    for offset, value in enumerate(words):
        assert (
            FlatMemory.word_from_line(line_addr, line, line_addr + offset * 8)
            == value
        )


@given(
    lines=st.lists(
        st.integers(min_value=0, max_value=4096).map(lambda i: i * 64),
        min_size=1,
        max_size=200,
    ),
    sets=st.sampled_from([1, 2, 8]),
    ways=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=60, deadline=None)
def test_cache_never_exceeds_geometry(lines, sets, ways):
    cache = L1Cache(CacheConfig(sets=sets, ways=ways))
    for line in lines:
        cache.install(line)
        assert cache.resident_lines <= sets * ways
        assert cache.contains(line)  # most-recent install is resident
    assert cache.installs + 0 >= cache.evictions


@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                min_size=2, max_size=200, unique=True))
@settings(max_examples=60, deadline=None)
def test_mix64_is_injective_on_samples(values):
    hashed = {mix64(v) for v in values}
    assert len(hashed) == len(values)


@given(
    trace_len=st.integers(min_value=1, max_value=60),
    skip_mask=st.lists(st.booleans(), min_size=1, max_size=60),
    window=st.integers(min_value=2, max_value=16),
)
@settings(max_examples=60, deadline=None)
def test_replay_serves_any_subsequence_in_order(trace_len, skip_mask, window):
    """Dropping arbitrary entries (cache hits) never breaks replay of
    the surviving subsequence."""
    sim = Simulator()
    trace = AccessTrace(
        TraceEntry(i * 64, bytes([i % 256]) * 64) for i in range(trace_len)
    )
    replay = ReplayModule(sim, trace, window_size=window, max_skip_age=4)
    requested = [
        i for i in range(trace_len) if skip_mask[i % len(skip_mask)]
    ]
    # The window slides at most window_size entries per lookup, so full
    # service is only guaranteed when skip gaps fit in the window.
    gaps = [b - a for a, b in zip([0] + requested, requested)]
    assume(all(gap <= window for gap in gaps))
    served = 0
    for i in requested:
        data = replay.lookup(i * 64)
        if data is not None:
            assert data == bytes([i % 256]) * 64
            served += 1
    assert served == len(requested)
    assert replay.matches == served


@given(
    reorder_seed=st.integers(min_value=0, max_value=2**31),
    trace_len=st.integers(min_value=4, max_value=64),
)
@settings(max_examples=60, deadline=None)
def test_replay_tolerates_local_reordering(reorder_seed, trace_len):
    """Swapping adjacent requests (speculation-induced reorder) never
    defeats a window of >= 2."""
    import random

    rng = random.Random(reorder_seed)
    sim = Simulator()
    trace = AccessTrace(
        TraceEntry(i * 64, bytes([i % 256]) * 64) for i in range(trace_len)
    )
    replay = ReplayModule(sim, trace, window_size=8)
    order = list(range(trace_len))
    for i in range(0, trace_len - 1, 2):
        if rng.random() < 0.5:
            order[i], order[i + 1] = order[i + 1], order[i]
    for i in order:
        assert replay.lookup(i * 64) == bytes([i % 256]) * 64
    assert replay.spurious_requests == 0


@given(counts=st.lists(st.integers(min_value=1, max_value=8), min_size=1,
                       max_size=30))
@settings(max_examples=60, deadline=None)
def test_queue_pair_fetch_preserves_order_across_bursts(counts):
    qp = QueuePair(core_id=0, entries=256)
    total = 0
    for burst in counts:
        for _ in range(burst):
            qp.enqueue(
                Descriptor(
                    core_id=0, thread_id=0,
                    device_addr=total * 64, response_addr=0,
                )
            )
            total += 1
    fetched = []
    while True:
        batch = qp.device_fetch(8)
        if not batch:
            break
        fetched.extend(d.device_addr for d in batch)
    assert fetched == [i * 64 for i in range(total)]


@given(
    keys=st.sets(st.integers(min_value=0, max_value=10**6), min_size=1,
                 max_size=60),
)
@settings(max_examples=40, deadline=None)
def test_bloom_has_no_false_negatives(keys):
    from repro.workloads.bloom import BloomFilter, BloomParams

    params = BloomParams(items=1 << 20, queries_per_thread=1)
    bloom = BloomFilter(params, base_addr=0, world=FlatMemory())
    bloom.populate(keys)
    assert all(bloom.contains_functional(key) for key in keys)


@given(n=st.integers(min_value=2, max_value=64),
       seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_generated_graphs_are_simple_connected_undirected(n, seed):
    from repro.workloads.bfs import BfsParams, generate_graph

    params = BfsParams(vertices=n, average_degree=3, seed=seed)
    adjacency = generate_graph(params)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            assert u != v
            assert u in adjacency[v]
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert len(seen) == n
