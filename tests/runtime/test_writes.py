"""Tests for posted device writes (section VII's future-work path)."""

import pytest

from repro.config import (
    AccessMechanism,
    BackingStore,
    CpuConfig,
    DeviceConfig,
    SystemConfig,
)
from repro.errors import SimulationError
from repro.host.system import System
from repro.units import to_ns
from repro.workloads.microbench import MicrobenchSpec


def build(mechanism=AccessMechanism.PREFETCH, **overrides):
    return System(SystemConfig(mechanism=mechanism, **overrides))


def run_thread(system, factory):
    handle = system.spawn(0, factory)
    system.run_to_completion(limit_ticks=10**10)
    return handle.result


def test_write_then_read_returns_written_value():
    for mechanism in AccessMechanism:
        system = build(mechanism)
        addr = system.alloc_data(0, 64)

        def factory(ctx):
            def body():
                yield from ctx.write(addr, 4242)
                value = yield from ctx.read(addr)
                return value
            return body()

        assert run_thread(system, factory) == 4242, mechanism


def test_writes_do_not_stall_the_thread():
    """A posted write costs ~a dispatch slot, not a device round trip."""
    system = build(device=DeviceConfig(total_latency_us=4.0))
    addr = system.alloc_data(0, 64 * 64)

    def factory(ctx):
        def body():
            for i in range(16):
                yield from ctx.write(addr + i * 64, i)
            return to_ns(ctx.core.sim.now)
        return body()

    elapsed_ns = run_thread(system, factory)
    # 16 posted writes to a 4us device complete in well under one
    # device latency of front-end time.
    assert elapsed_ns < 500


def test_store_buffer_backpressure():
    """With a tiny buffer, a write burst stalls on the drain path."""
    system = build(cpu=CpuConfig(store_buffer_entries=2))
    addr = system.alloc_data(0, 64 * 64)

    def factory(ctx):
        def body():
            for i in range(32):
                yield from ctx.write(addr + i * 64, i)
            return None
        return body()

    run_thread(system, factory)
    buffer = system.cores[0].memsys.store_buffer
    assert buffer.stores_posted == 32
    assert buffer.full_stalls > 0


def test_device_receives_posted_writes_over_pcie():
    system = build()
    addr = system.alloc_data(0, 64 * 16)

    def factory(ctx):
        def body():
            for i in range(8):
                yield from ctx.write(addr + i * 64, i)
            return None
        return body()

    run_thread(system, factory)
    system.sim.run()
    assert system.device.writes_received == 8
    assert system.device.write_bytes_received == 8 * 8


def test_swq_writes_are_fire_and_forget_descriptors():
    system = build(AccessMechanism.SOFTWARE_QUEUE)
    addr = system.alloc_data(0, 64 * 16)

    def factory(ctx):
        def body():
            for i in range(8):
                yield from ctx.write(addr + i * 64, i)
            # A read afterwards proves completions were not polluted
            # by the writes (no stray completion entries).
            value = yield from ctx.read(addr)
            return value
        return body()

    assert run_thread(system, factory) == 0
    system.sim.run()
    assert system.device.writes_served == 8
    assert system.queue_pairs[0].completions_posted == 1  # only the read


def test_write_without_store_buffer_raises():
    from repro.config import CacheConfig, UncoreConfig
    from repro.cpu import AddressSpace, CoreMemorySystem, OutOfOrderCore, Uncore
    from repro.sim import Simulator
    from repro.sim.trace import Counter
    from repro.testing import FixedLatencyTarget
    from repro.units import ns

    sim = Simulator()
    config = CpuConfig(frequency_ghz=1.0)
    uncore = Uncore(sim, UncoreConfig())
    uncore.attach_target(AddressSpace.DEVICE, FixedLatencyTarget(sim, ns(500)))
    memsys = CoreMemorySystem(sim, 0, CacheConfig(), 10, uncore, config.frequency)
    core = OutOfOrderCore(sim, 0, config, memsys, Counter("w"))

    def body():
        yield from core.issue_store(0, AddressSpace.DEVICE)

    with pytest.raises(SimulationError, match="store buffer"):
        sim.run(sim.process(body()))


def test_microbench_with_writes_barely_slows_down():
    """Section VII's conjecture, measured: adding posted writes to the
    prefetch loop costs almost nothing."""
    from repro.harness.experiment import MeasureWindow, run_microbench

    window = MeasureWindow(warmup_us=20, measure_us=60)
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH,
        threads_per_core=10,
        device=DeviceConfig(total_latency_us=1.0),
    )
    read_only = run_microbench(config, MicrobenchSpec(work_count=200), window)
    with_writes = run_microbench(
        config, MicrobenchSpec(work_count=200, writes_per_batch=1), window
    )
    assert with_writes.payload["work_ipc"] > 0.9 * read_only.payload["work_ipc"]


def test_baseline_writes_go_to_dram():
    system = build(AccessMechanism.ON_DEMAND, backing=BackingStore.DRAM)
    addr = system.alloc_data(0, 64)

    def factory(ctx):
        def body():
            yield from ctx.write(addr, 5)
            return (yield from ctx.read(addr))
        return body()

    assert run_thread(system, factory) == 5
    system.sim.run()
    assert system.device.writes_received == 0
