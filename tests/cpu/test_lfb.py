"""Unit tests for the line-fill buffer model."""

import pytest

from repro.cpu.lfb import LineFillBuffers
from repro.errors import SimulationError
from repro.sim import Simulator


def alloc(sim, lfb, line):
    """Queue an allocation, run until its buffer is granted, and return
    the entry."""
    entry, grant = lfb.allocate_queued(line)
    sim.run(grant)
    return entry


def test_allocate_and_complete_roundtrip():
    sim = Simulator()
    lfb = LineFillBuffers(sim, entries=2)
    entry = alloc(sim, lfb, 0x1000)
    assert lfb.in_flight == 1
    lfb.complete(entry, b"\xab" * 64)
    sim.run()
    assert entry.data_ready.fired
    assert entry.data_ready.value == b"\xab" * 64
    assert lfb.in_flight == 0
    assert lfb.fills == 1


def test_lookup_merges_and_counts():
    sim = Simulator()
    lfb = LineFillBuffers(sim, entries=2)
    entry = alloc(sim, lfb, 0x40)
    assert lfb.lookup(0x40) is entry
    assert lfb.lookup(0x80) is None
    assert lfb.merges == 1
    assert entry.merged_loads == 1


def test_contains_does_not_count_as_merge():
    sim = Simulator()
    lfb = LineFillBuffers(sim, entries=2)
    alloc(sim, lfb, 0x40)
    assert lfb.contains(0x40)
    assert not lfb.contains(0x80)
    assert lfb.merges == 0


def test_allocation_blocks_when_full():
    sim = Simulator()
    lfb = LineFillBuffers(sim, entries=1)
    granted = []

    def body():
        first, grant = lfb.allocate_queued(0x0)
        yield grant
        second_started = sim.now

        def release_later():
            yield sim.timeout(500)
            lfb.complete(first, b"\x00" * 64)

        sim.process(release_later())
        second, grant = lfb.allocate_queued(0x40)
        yield grant
        granted.append((second_started, sim.now))
        lfb.complete(second, b"\x00" * 64)

    sim.process(body())
    sim.run()
    assert granted == [(0, 500)]


def test_max_in_flight_statistic():
    sim = Simulator()
    lfb = LineFillBuffers(sim, entries=4)
    entries = [alloc(sim, lfb, i * 64) for i in range(3)]
    assert lfb.max_in_flight == 3
    for entry in entries:
        lfb.complete(entry, b"\x00" * 64)
    sim.run()
    assert lfb.max_in_flight == 3
    assert lfb.in_flight == 0


def test_duplicate_allocation_rejected():
    sim = Simulator()
    lfb = LineFillBuffers(sim, entries=2)
    alloc(sim, lfb, 0x40)
    with pytest.raises(SimulationError):
        lfb.allocate_queued(0x40)


def test_completion_of_unknown_entry_rejected():
    sim = Simulator()
    lfb = LineFillBuffers(sim, entries=2)
    entry = alloc(sim, lfb, 0x40)
    lfb.complete(entry, b"\x00" * 64)
    with pytest.raises(SimulationError):
        lfb.complete(entry, b"\x00" * 64)
