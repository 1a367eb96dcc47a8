"""Integration-level tests of the System builder."""

import pytest

from repro.config import (
    AccessMechanism,
    BackingStore,
    DeviceConfig,
    SystemConfig,
    UncoreConfig,
)
from repro.cpu.uncore import AddressSpace
from repro.errors import ConfigError, SimulationError
from repro.host.system import System
from repro.units import ns, to_ns, us


def one_read(addr, work=200):
    def factory(ctx):
        def body():
            value = yield from ctx.read(addr)
            yield from ctx.work(work)
            return value
        return body()
    return factory


def test_all_mechanisms_build_and_run():
    for mechanism in AccessMechanism:
        config = SystemConfig(mechanism=mechanism)
        system = System(config)
        addr = system.alloc_data(0, 64)
        system.world.write_word(addr, 1234)
        handle = system.spawn(0, one_read(addr))
        system.run_to_completion(limit_ticks=10**9)
        assert handle.result == 1234


def test_baseline_reads_route_to_dram():
    config = SystemConfig(backing=BackingStore.DRAM)
    system = System(config)
    addr = system.alloc_data(0, 64)
    assert system.map.space_of(addr) is AddressSpace.DRAM
    system.world.write_word(addr, 7)
    handle = system.spawn(0, one_read(addr))
    ticks = system.run_to_completion(limit_ticks=10**9)
    assert handle.result == 7
    # DRAM access + 200 work instructions: well under a microsecond.
    assert ticks < ns(400)
    assert system.device.requests_served == 0


def test_device_read_hits_configured_latency():
    config = SystemConfig(
        mechanism=AccessMechanism.ON_DEMAND,
        device=DeviceConfig(total_latency_us=2.0),
    )
    system = System(config)
    addr = system.alloc_data(0, 64)
    handle = system.spawn(0, one_read(addr, work=0))
    ticks = system.run_to_completion(limit_ticks=10**9)
    assert handle.result == 0
    # End-to-end within ~3% of the configured 2 us.
    assert abs(to_ns(ticks) - 2000) < 60


def test_too_low_device_latency_rejected():
    config = SystemConfig(device=DeviceConfig(total_latency_us=0.5))
    with pytest.raises(ConfigError, match="below"):
        System(config)


def test_device_partition_allocation_is_per_core():
    config = SystemConfig(mechanism=AccessMechanism.PREFETCH, cores=2)
    system = System(config)
    a = system.alloc_device(0, 128)
    b = system.alloc_device(1, 128)
    assert system.map.core_of_offset(system.map.bar_offset(a)) == 0
    assert system.map.core_of_offset(system.map.bar_offset(b)) == 1


def test_device_partition_exhaustion():
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH,
        device=DeviceConfig(bar_bytes=1 << 20),
    )
    system = System(config)
    system.alloc_device(0, 1 << 20)
    with pytest.raises(ConfigError, match="exhausted"):
        system.alloc_device(0, 64)


def test_allocations_are_line_aligned_and_disjoint():
    system = System(SystemConfig())
    a = system.alloc_data(0, 10)
    b = system.alloc_data(0, 100)
    assert a % 64 == 0 and b % 64 == 0
    assert b >= a + 64


def test_run_window_measures_steady_state():
    from repro.workloads.microbench import MicrobenchSpec, install_microbench

    config = SystemConfig(mechanism=AccessMechanism.PREFETCH, threads_per_core=10)
    system = System(config)
    install_microbench(system, MicrobenchSpec(work_count=200), 10)
    stats = system.run_window(us(20), us(50))
    assert stats.ticks == us(50)
    assert stats.work_instructions > 0
    assert stats.work_ipc == pytest.approx(
        stats.work_instructions / stats.cycles
    )
    assert stats.accesses > 100


def test_run_to_completion_timeout():
    config = SystemConfig(mechanism=AccessMechanism.PREFETCH)
    system = System(config)

    def forever(ctx):
        def body():
            while True:
                yield from ctx.work(100)
        return body()

    system.spawn(0, forever)
    with pytest.raises(SimulationError, match="did not finish"):
        system.run_to_completion(limit_ticks=us(10))


def test_report_contains_diagnostics():
    config = SystemConfig(mechanism=AccessMechanism.PREFETCH, cores=2)
    system = System(config)
    addr = system.alloc_data(0, 64)
    system.spawn(0, one_read(addr))
    system.run_to_completion(limit_ticks=10**9)
    report = system.report()
    assert len(report["lfb_max_per_core"]) == 2
    assert report["device_requests"] == 1
    assert report["uncore_pcie_max"] == 1


def test_chip_queue_config_respected():
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH,
        uncore=UncoreConfig(pcie_queue_entries=5),
    )
    system = System(config)
    assert system.uncore.queue(AddressSpace.DEVICE).capacity == 5


def test_latency_report_prefers_measurement_window():
    from repro.sim.trace import LatencyStat

    stat = LatencyStat("sojourn")
    for _ in range(10):
        stat.record(1_000_000)  # warmup pollution
    stat.active = True
    for value in (100, 200, 300, 400):
        stat.record(value)
    report = System._latency_report(stat)
    # Every field comes from the window: count/mean/max as well as the
    # percentiles (they used to disagree -- lifetime mean, windowed p99).
    assert report["count"] == 4
    assert report["mean"] == to_ns(250)
    assert report["max"] == to_ns(400)
    assert report["p50"] <= report["p99"] <= report["p999"] <= report["max"]
    assert report["jitter"] >= 0


def test_latency_report_falls_back_to_lifetime_then_none():
    from repro.sim.trace import LatencyStat

    stat = LatencyStat("sojourn")
    assert System._latency_report(stat) is None
    stat.record(500)
    report = System._latency_report(stat)
    assert report["count"] == 1
    assert report["mean"] == report["p50"] == report["max"] == to_ns(500)
