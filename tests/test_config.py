"""Unit tests for configuration validation."""

import dataclasses

import pytest

from repro.config import (
    AccessMechanism,
    BackingStore,
    CacheConfig,
    CpuConfig,
    DeviceConfig,
    HostDramConfig,
    KernelQueueConfig,
    OnboardDramConfig,
    PcieConfig,
    SwqConfig,
    SystemConfig,
    ThreadingConfig,
    UncoreConfig,
)
from repro.errors import ConfigError


def test_defaults_match_the_papers_testbed():
    config = SystemConfig()
    assert config.cpu.frequency_ghz == 2.3
    assert config.cpu.lfb_entries == 10
    assert config.uncore.pcie_queue_entries == 14
    assert config.pcie.bandwidth_bytes_per_s == 4e9
    assert config.pcie.header_bytes == 24
    assert config.swq.fetch_burst == 8
    assert 20 <= config.threading.context_switch_ns <= 50


def test_configs_are_frozen():
    config = SystemConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.cores = 4  # type: ignore[misc]


def test_replace_derives_variants():
    base = SystemConfig()
    variant = base.replace(cores=8, mechanism=AccessMechanism.PREFETCH)
    assert variant.cores == 8
    assert base.cores == 1


def test_cpu_validation():
    with pytest.raises(ConfigError):
        CpuConfig(frequency_ghz=0)
    with pytest.raises(ConfigError):
        CpuConfig(lfb_entries=0)
    with pytest.raises(ConfigError):
        CpuConfig(rob_entries=2)
    with pytest.raises(ConfigError):
        CpuConfig(smt_contexts=3)


def test_cache_validation():
    with pytest.raises(ConfigError):
        CacheConfig(line_bytes=48)
    with pytest.raises(ConfigError):
        CacheConfig(hit_cycles=0)
    assert CacheConfig().capacity_bytes == 32768


def test_uncore_validation():
    with pytest.raises(ConfigError):
        UncoreConfig(pcie_queue_entries=0)
    with pytest.raises(ConfigError):
        UncoreConfig(hop_ns=-1)


def test_pcie_validation():
    with pytest.raises(ConfigError):
        PcieConfig(bandwidth_bytes_per_s=0)
    with pytest.raises(ConfigError):
        PcieConfig(max_payload_bytes=32)


def test_dram_validation():
    with pytest.raises(ConfigError):
        HostDramConfig(latency_ns=0)
    with pytest.raises(ConfigError):
        OnboardDramConfig(stream_depth_lines=0)
    with pytest.raises(ConfigError):
        OnboardDramConfig(stream_burst_entries=0)


def test_device_validation():
    with pytest.raises(ConfigError):
        DeviceConfig(total_latency_us=0)
    with pytest.raises(ConfigError):
        DeviceConfig(replay_window=0)
    assert DeviceConfig(total_latency_us=1.0).total_latency_ticks == 10**6


def test_swq_validation():
    with pytest.raises(ConfigError):
        SwqConfig(ring_entries=3)  # not a power of two
    with pytest.raises(ConfigError):
        SwqConfig(fetch_burst=0)
    with pytest.raises(ConfigError):
        SwqConfig(fetch_pipeline=0)
    with pytest.raises(ConfigError):
        SwqConfig(enqueue_instructions=-1)


def test_kernel_queue_overhead_is_microseconds():
    kq = KernelQueueConfig()
    # The paper: kernel-managed queues cost several microseconds.  One
    # access serializes the syscall, the interrupt and a kernel context
    # switch on each side.
    per_access_ns = kq.syscall_ns + 2 * kq.kernel_switch_ns + kq.interrupt_ns
    assert per_access_ns >= 5_000  # >= 5 us


def test_threading_validation():
    with pytest.raises(ConfigError):
        ThreadingConfig(context_switch_ns=-1)
    with pytest.raises(ConfigError):
        ThreadingConfig(overhead_ipc=0)


def test_baseline_requires_on_demand():
    with pytest.raises(ConfigError):
        SystemConfig(
            backing=BackingStore.DRAM, mechanism=AccessMechanism.PREFETCH
        )


def test_describe_is_informative():
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH,
        cores=2,
        threads_per_core=10,
        device=DeviceConfig(total_latency_us=4.0),
    )
    text = config.describe()
    assert "prefetch" in text and "2core" in text and "4us" in text
    baseline = SystemConfig(backing=BackingStore.DRAM)
    assert "DRAM" in baseline.describe()
