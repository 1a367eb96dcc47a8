"""Unit tests for the microbenchmark workload."""

import pytest

from repro.config import AccessMechanism, SystemConfig
from repro.errors import ConfigError
from repro.host.system import System
from repro.units import us
from repro.workloads.microbench import (
    MicrobenchSpec,
    _address_stream,
    install_microbench,
)


def test_spec_validation():
    with pytest.raises(ConfigError):
        MicrobenchSpec(work_count=-1)
    with pytest.raises(ConfigError):
        MicrobenchSpec(reads_per_batch=0)
    with pytest.raises(ConfigError):
        MicrobenchSpec(iterations=0)
    with pytest.raises(ConfigError):
        MicrobenchSpec(reads_per_batch=4, lines_per_thread=2)


def test_address_stream_cycles_distinct_lines():
    stream = _address_stream(base=0x1000, line_bytes=64, lines=4)
    addrs = [next(stream) for _ in range(8)]
    assert addrs[:4] == [0x1000, 0x1040, 0x1080, 0x10C0]
    assert addrs[4:] == addrs[:4]  # wraps around
    assert len(set(addrs[:4])) == 4


def test_address_stream_phase_offset():
    stream = _address_stream(base=0, line_bytes=64, lines=4, start_index=2)
    assert next(stream) == 0x80


def test_finite_iterations_complete():
    config = SystemConfig(mechanism=AccessMechanism.PREFETCH, threads_per_core=3)
    system = System(config)
    spec = MicrobenchSpec(work_count=100, iterations=5)
    install_microbench(system, spec, threads_per_core=3)
    system.run_to_completion(limit_ticks=10**10)
    assert system.device.requests_served == 3 * 5


def test_mlp_variant_issues_batched_reads():
    config = SystemConfig(mechanism=AccessMechanism.PREFETCH, threads_per_core=1)
    system = System(config)
    spec = MicrobenchSpec(work_count=100, reads_per_batch=4, iterations=3)
    install_microbench(system, spec, threads_per_core=1)
    system.run_to_completion(limit_ticks=10**10)
    assert system.device.requests_served == 4 * 3


def test_every_access_misses_the_l1():
    """The paper: "each access goes to a different cache line"."""
    config = SystemConfig(mechanism=AccessMechanism.PREFETCH, threads_per_core=4)
    system = System(config)
    install_microbench(system, MicrobenchSpec(work_count=200), 4)
    system.run_window(us(20), us(50))
    # The only L1 hits are the post-prefetch loads; the accesses
    # themselves never re-hit a previously used line, so device
    # requests track the number of distinct-line fills (allowing for
    # fills still in flight when the window closes).
    fills = system.cores[0].memsys.lfb.fills
    served = system.device.requests_served
    assert 0 <= served - fills <= system.config.cpu.lfb_entries


def test_work_counter_counts_only_work_instructions():
    config = SystemConfig(mechanism=AccessMechanism.PREFETCH, threads_per_core=1)
    system = System(config)
    spec = MicrobenchSpec(work_count=128, iterations=4)
    install_microbench(system, spec, threads_per_core=1)
    system.run_to_completion(limit_ticks=10**10)
    system.sim.run()
    assert system.work_counter.total == 128 * 4


def test_threads_get_disjoint_regions():
    config = SystemConfig(mechanism=AccessMechanism.PREFETCH, threads_per_core=2)
    system = System(config)
    # Fewer iterations than the region size: no wrap-around, so every
    # access is a distinct line and must reach the device.
    spec = MicrobenchSpec(work_count=50, iterations=200, lines_per_thread=256)
    install_microbench(system, spec, threads_per_core=2)
    system.run_to_completion(limit_ticks=10**11)
    assert system.device.requests_served == 2 * 200
