"""Integration tests of feature combinations (SMT x mechanisms x
attachments x writes) that no single unit suite exercises together."""

from repro.config import (
    AccessMechanism,
    CpuConfig,
    DeviceAttachment,
    DeviceConfig,
    SystemConfig,
)
from repro.host.system import System
from repro.units import us
from repro.workloads.microbench import MicrobenchSpec, install_microbench


def run_window(config, spec, threads):
    system = System(config)
    install_microbench(system, spec, threads)
    stats = system.run_window(us(20), us(60))
    return system, stats


def test_smt_with_software_queues():
    """Two SMT contexts each run their own SWQ ring and scheduler."""
    config = SystemConfig(
        mechanism=AccessMechanism.SOFTWARE_QUEUE,
        threads_per_core=8,
        cpu=CpuConfig(smt_contexts=2),
        device=DeviceConfig(total_latency_us=1.0),
    )
    system, stats = run_window(config, MicrobenchSpec(work_count=200), 8)
    assert len(system.queue_pairs) == 2
    assert stats.accesses > 100
    # Both contexts' rings saw traffic.
    assert all(qp.descriptors_enqueued > 0 for qp in system.queue_pairs)


def test_smt_with_prefetch_shares_lfbs():
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH,
        threads_per_core=8,
        cpu=CpuConfig(smt_contexts=2),
        device=DeviceConfig(total_latency_us=1.0),
    )
    system, stats = run_window(config, MicrobenchSpec(work_count=200), 8)
    # One physical LFB stack, shared: its peak is the 10-entry cap even
    # though 16 logical threads want slots.
    assert system.cores[0].memsys is system.cores[1].memsys
    assert system.cores[0].memsys.lfb.max_in_flight == 10


def test_membus_with_writes():
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH,
        threads_per_core=6,
        device=DeviceConfig(
            total_latency_us=1.0, attachment=DeviceAttachment.MEMORY_BUS
        ),
    )
    spec = MicrobenchSpec(work_count=200, writes_per_batch=2)
    system, stats = run_window(config, spec, 6)
    assert stats.accesses > 100
    assert system.device.writes_received > 100
    assert system.link.total_wire_bytes() == 0  # nothing touched PCIe


def test_membus_with_smt():
    config = SystemConfig(
        mechanism=AccessMechanism.ON_DEMAND,
        threads_per_core=1,
        cpu=CpuConfig(smt_contexts=2),
        device=DeviceConfig(
            total_latency_us=1.0, attachment=DeviceAttachment.MEMORY_BUS
        ),
    )
    _system, stats = run_window(config, MicrobenchSpec(work_count=200), 1)
    assert stats.accesses > 50


def test_mlp_with_writes_on_swq():
    config = SystemConfig(
        mechanism=AccessMechanism.SOFTWARE_QUEUE,
        threads_per_core=8,
        device=DeviceConfig(total_latency_us=1.0),
    )
    spec = MicrobenchSpec(work_count=200, reads_per_batch=4, writes_per_batch=1)
    system, stats = run_window(config, spec, 8)
    assert stats.accesses > 50
    assert system.device.writes_served > 10


def test_kernel_queue_with_multicore():
    config = SystemConfig(
        mechanism=AccessMechanism.KERNEL_QUEUE,
        cores=2,
        threads_per_core=4,
        device=DeviceConfig(total_latency_us=1.0),
    )
    system, stats = run_window(config, MicrobenchSpec(work_count=200), 4)
    assert stats.accesses > 5  # kernel overheads make it crawl, not die
    assert len(system.queue_pairs) == 2


def test_hw_prefetcher_with_smt():
    config = SystemConfig(
        mechanism=AccessMechanism.ON_DEMAND,
        threads_per_core=1,
        cpu=CpuConfig(smt_contexts=2, hardware_prefetcher=True),
        device=DeviceConfig(total_latency_us=1.0),
    )
    system = System(config)
    install_microbench(system, MicrobenchSpec(work_count=200), 1)
    system.run_window(us(20), us(60))
    # One prefetcher per physical memory subsystem, trained by both
    # contexts' streams.
    prefetcher = system.cores[0].memsys.hw_prefetcher
    assert prefetcher is system.cores[1].memsys.hw_prefetcher
    assert prefetcher.observed > 0
