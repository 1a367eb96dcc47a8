"""Tests for the memory-bus-attached device (section V-B implication)."""

import pytest

from repro.config import (
    AccessMechanism,
    CpuConfig,
    DeviceAttachment,
    DeviceConfig,
    SystemConfig,
)
from repro.cpu.uncore import AddressSpace
from repro.errors import ConfigError
from repro.host.system import System
from repro.units import to_ns, us
from repro.workloads.microbench import MicrobenchSpec, install_microbench


def membus_config(**overrides):
    overrides.setdefault("mechanism", AccessMechanism.PREFETCH)
    overrides.setdefault(
        "device",
        DeviceConfig(
            total_latency_us=1.0, attachment=DeviceAttachment.MEMORY_BUS
        ),
    )
    return SystemConfig(**overrides)


def test_membus_read_returns_data_at_configured_latency():
    system = System(membus_config(mechanism=AccessMechanism.ON_DEMAND))
    addr = system.alloc_data(0, 64)
    system.world.write_word(addr, 77)

    def factory(ctx):
        def body():
            value = yield from ctx.read(addr)
            return value, to_ns(ctx.core.sim.now)
        return body()

    handle = system.spawn(0, factory)
    system.run_to_completion(limit_ticks=10**9)
    value, elapsed_ns = handle.result
    assert value == 77
    assert abs(elapsed_ns - 1000) < 60


def test_membus_uses_the_deep_dram_style_queue():
    system = System(membus_config())
    assert system.uncore.queue(AddressSpace.DEVICE).capacity == 48


def test_membus_bypasses_pcie_entirely():
    system = System(membus_config(threads_per_core=8))
    install_microbench(system, MicrobenchSpec(work_count=200), 8)
    system.run_window(us(10), us(30))
    assert system.link.total_wire_bytes() == 0
    assert system.device.requests_served > 50


def test_membus_multicore_exceeds_the_pcie_14_cap():
    def aggregate(attachment):
        config = SystemConfig(
            mechanism=AccessMechanism.PREFETCH,
            cores=8,
            threads_per_core=16,
            device=DeviceConfig(total_latency_us=1.0, attachment=attachment),
        )
        system = System(config)
        install_microbench(system, MicrobenchSpec(work_count=200), 16)
        stats = system.run_window(us(20), us(60))
        return stats.work_ipc, system

    pcie_ipc, _ = aggregate(DeviceAttachment.PCIE)
    membus_ipc, system = aggregate(DeviceAttachment.MEMORY_BUS)
    assert membus_ipc > 2.5 * pcie_ipc
    assert system.uncore.max_occupancy(AddressSpace.DEVICE) > 14


def test_membus_rejects_queue_mechanisms():
    with pytest.raises(ConfigError, match="memory-bus"):
        System(membus_config().replace(
            mechanism=AccessMechanism.SOFTWARE_QUEUE
        ))


def test_membus_with_sized_lfbs_reaches_parity_at_4us():
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH,
        threads_per_core=44,
        cpu=CpuConfig(lfb_entries=40),
        device=DeviceConfig(
            total_latency_us=4.0, attachment=DeviceAttachment.MEMORY_BUS
        ),
    )
    from repro.harness.experiment import MeasureWindow
    from repro.harness.sweep import SweepJob, normalized

    value, _ = normalized(SweepJob(
        config=config,
        spec=MicrobenchSpec(work_count=200),
        window=MeasureWindow(warmup_us=40, measure_us=100),
    ))
    assert value > 0.9
