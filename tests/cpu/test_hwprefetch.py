"""Tests for the hardware stride prefetcher (disabled in the paper)."""

import pytest

from repro.config import AccessMechanism, CpuConfig, SystemConfig
from repro.errors import ConfigError
from repro.host.system import System
from repro.units import to_us
from repro.workloads.microbench import MicrobenchSpec, install_microbench


def build(hw_prefetch, mechanism=AccessMechanism.ON_DEMAND, **overrides):
    return System(
        SystemConfig(
            mechanism=mechanism,
            cpu=CpuConfig(hardware_prefetcher=hw_prefetch),
            **overrides,
        )
    )


def sequential_reader(system, lines=64):
    base = system.alloc_data(0, lines * 64)

    def factory(ctx):
        def body():
            for i in range(lines):
                yield from ctx.read(base + i * 64)
            return to_us(ctx.core.sim.now)
        return body()

    return factory


def test_parameters_validated():
    from repro.cpu.hwprefetch import StridePrefetcher

    with pytest.raises(ConfigError):
        StridePrefetcher(memsys=None, degree=0)


def test_stride_detection_prefetches_ahead():
    system = build(hw_prefetch=True)
    handle = system.spawn(0, sequential_reader(system))
    system.run_to_completion(limit_ticks=10**10)
    prefetcher = system.cores[0].memsys.hw_prefetcher
    assert prefetcher.issued > 10
    assert prefetcher.useful > 10
    assert prefetcher.coverage() > 0.5


def test_prefetcher_accelerates_sequential_on_demand():
    slow = build(hw_prefetch=False)
    fast = build(hw_prefetch=True)
    t_off = slow.spawn(0, sequential_reader(slow))
    slow.run_to_completion(limit_ticks=10**10)
    t_on = fast.spawn(0, sequential_reader(fast))
    fast.run_to_completion(limit_ticks=10**10)
    assert t_on.result < 0.75 * t_off.result


def test_random_pattern_trains_nothing():
    system = build(hw_prefetch=True)
    base = system.alloc_data(0, 1 << 16)

    def factory(ctx):
        def body():
            from repro.workloads.hashing import mix64

            for i in range(64):
                offset = (mix64(i) % 1024) * 64
                yield from ctx.read(base + offset)
            return None
        return body()

    system.spawn(0, factory)
    system.run_to_completion(limit_ticks=10**10)
    prefetcher = system.cores[0].memsys.hw_prefetcher
    assert prefetcher.observed == 64
    assert prefetcher.issued <= 4  # accidental short strides at most


def test_backward_strides_detected_too():
    system = build(hw_prefetch=True)
    base = system.alloc_data(0, 64 * 64)

    def factory(ctx):
        def body():
            for i in reversed(range(64)):
                yield from ctx.read(base + i * 64)
            return None
        return body()

    system.spawn(0, factory)
    system.run_to_completion(limit_ticks=10**10)
    assert system.cores[0].memsys.hw_prefetcher.issued > 10


def test_stream_table_is_bounded():
    from repro.cpu.hwprefetch import StridePrefetcher
    from repro.cpu.uncore import AddressSpace

    system = build(hw_prefetch=True)
    prefetcher = system.cores[0].memsys.hw_prefetcher
    for region in range(100):
        prefetcher.observe_miss(region * StridePrefetcher.REGION_BYTES,
                                AddressSpace.DEVICE)
    assert len(prefetcher._table) <= prefetcher.streams


def test_interference_with_software_prefetching():
    """The reason the paper disables it: on the (sequential-region)
    microbenchmark the stride prefetcher competes for LFBs with the
    software prefetches, and its droppable fills displace scheduled
    ones -- throughput must not improve, and usually degrades."""
    from repro.units import us

    def run(hw):
        system = build(
            hw, mechanism=AccessMechanism.PREFETCH, threads_per_core=10
        )
        install_microbench(system, MicrobenchSpec(work_count=200), 10)
        stats = system.run_window(us(20), us(60))
        return stats.work_ipc

    assert run(True) <= 1.02 * run(False)
