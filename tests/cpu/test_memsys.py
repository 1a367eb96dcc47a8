"""Unit tests for the per-core memory subsystem."""

import pytest

from repro.config import CacheConfig, UncoreConfig
from repro.cpu.memsys import CoreMemorySystem
from repro.cpu.uncore import AddressSpace, Uncore
from repro.memory import FlatMemory
from repro.sim import Simulator
from repro.testing import FixedLatencyTarget
from repro.units import gigahertz, ns


def build(sim, lfb_entries=10, pcie_q=14, hop_ns=10.0, target_latency=ns(500)):
    uncore = Uncore(sim, UncoreConfig(pcie_queue_entries=pcie_q, hop_ns=hop_ns))
    memory = FlatMemory()
    memory.write_word(0x1000, 0xDEADBEEF)
    target = FixedLatencyTarget(sim, target_latency, memory)
    uncore.attach_target(AddressSpace.DEVICE, target)
    memsys = CoreMemorySystem(
        sim,
        core_id=0,
        cache_config=CacheConfig(),
        lfb_entries=lfb_entries,
        uncore=uncore,
        frequency=gigahertz(1.0),  # 1 ns cycles for easy arithmetic
    )
    return memsys, target, memory


def run_load(sim, memsys, addr):
    def body():
        event = memsys.load_line(addr, AddressSpace.DEVICE)
        data = yield event
        return data

    return sim.run(sim.process(body()))


def test_miss_latency_is_hops_plus_target():
    sim = Simulator()
    memsys, _target, _memory = build(sim, hop_ns=10.0, target_latency=ns(500))
    run_load(sim, memsys, 0x1000)
    assert sim.now == ns(10 + 500 + 10)


def test_loaded_data_comes_from_functional_memory():
    sim = Simulator()
    memsys, _target, memory = build(sim)
    data = run_load(sim, memsys, 0x1000)
    assert FlatMemory.word_from_line(0x1000, data, 0x1000) == 0xDEADBEEF


def test_second_load_hits_l1():
    sim = Simulator()
    memsys, target, _memory = build(sim)
    run_load(sim, memsys, 0x1000)
    t_miss = sim.now
    run_load(sim, memsys, 0x1008)  # same line, different word
    assert target.reads == 1
    # Hit latency: 4 cycles at 1 GHz = 4 ns.
    assert sim.now - t_miss == ns(4)


def test_l1_hit_returns_cached_line_data():
    sim = Simulator()
    memsys, _target, _memory = build(sim)
    first = run_load(sim, memsys, 0x1000)
    second = run_load(sim, memsys, 0x1008)
    assert first == second


def test_concurrent_loads_to_same_line_merge():
    sim = Simulator()
    memsys, target, _memory = build(sim)
    times = []

    def loader(addr):
        event = memsys.load_line(addr, AddressSpace.DEVICE)
        yield event
        times.append(sim.now)

    sim.process(loader(0x1000))
    sim.process(loader(0x1008))
    sim.run()
    assert target.reads == 1
    assert memsys.lfb.merges == 1
    assert times[0] == times[1]


def test_prefetch_then_load_hits():
    sim = Simulator()
    memsys, target, _memory = build(sim)

    def body():
        memsys.prefetch_line(0x1000, AddressSpace.DEVICE)
        yield sim.timeout(ns(1000))  # plenty for the fill
        event = memsys.load_line(0x1000, AddressSpace.DEVICE)
        yield event
        return sim.now

    sim.run(sim.process(body()))
    assert target.reads == 1
    assert memsys.l1.hits == 1


def test_load_soon_after_prefetch_merges_with_fill():
    sim = Simulator()
    memsys, target, _memory = build(sim, target_latency=ns(500))

    def body():
        memsys.prefetch_line(0x1000, AddressSpace.DEVICE)
        event = memsys.load_line(0x1000, AddressSpace.DEVICE)
        yield event
        return sim.now

    done_at = sim.run(sim.process(body()))
    assert target.reads == 1
    assert done_at == ns(520)


def test_prefetch_to_resident_line_is_noop():
    sim = Simulator()
    memsys, target, _memory = build(sim)
    run_load(sim, memsys, 0x1000)

    memsys.prefetch_line(0x1000, AddressSpace.DEVICE)
    sim.run()
    assert target.reads == 1
    assert memsys.lfb.in_flight == 0


def test_lfb_capacity_limits_inflight_fills():
    sim = Simulator()
    memsys, target, _memory = build(sim, lfb_entries=2, target_latency=ns(500))

    for i in range(4):
        memsys.prefetch_line(i * 64, AddressSpace.DEVICE)
    sim.run()
    assert target.max_in_flight <= 2
    assert memsys.lfb.max_in_flight == 2
    assert target.reads == 4


def test_uncore_queue_limits_inflight_chipwide():
    sim = Simulator()
    memsys, target, _memory = build(sim, lfb_entries=32, pcie_q=3)

    for i in range(8):
        memsys.prefetch_line(i * 64, AddressSpace.DEVICE)
    sim.run()
    assert target.max_in_flight <= 3
    assert memsys.uncore.max_occupancy(AddressSpace.DEVICE) == 3


def test_fill_latency_stat_records():
    sim = Simulator()
    memsys, _target, _memory = build(sim, hop_ns=0.0, target_latency=ns(100))
    run_load(sim, memsys, 0x1000)
    assert memsys.fill_latency.count == 1
    assert memsys.fill_latency.mean == pytest.approx(ns(100))


class _BrokenTarget:
    """A memory target whose reads fail: after ``delay`` ticks, or
    synchronously when ``delay`` is None."""

    def __init__(self, sim, delay):
        self.sim = sim
        self.delay = delay

    def read_line(self, line_addr):
        if self.delay is None:
            raise RuntimeError(f"read of {line_addr:#x} rejected")
        failed = self.sim.event()
        self.sim.timeout(self.delay).add_callback(
            lambda _event: failed.fail(RuntimeError(f"read of {line_addr:#x} failed"))
        )
        return failed


@pytest.mark.parametrize("delay", [ns(200), 0, None])
def test_failed_line_read_releases_the_queue_slot_and_raises(delay):
    sim = Simulator()
    uncore = Uncore(sim, UncoreConfig(pcie_queue_entries=2, hop_ns=10.0))
    uncore.attach_target(AddressSpace.DEVICE, _BrokenTarget(sim, delay))
    memsys = CoreMemorySystem(
        sim,
        core_id=0,
        cache_config=CacheConfig(),
        lfb_entries=4,
        uncore=uncore,
        frequency=gigahertz(1.0),
    )
    memsys.load_line(0x1000, AddressSpace.DEVICE)
    with pytest.raises(RuntimeError, match="read of 0x1000"):
        sim.run()
    assert uncore.queue(AddressSpace.DEVICE).in_use == 0
