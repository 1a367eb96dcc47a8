"""Integration tests for the device emulators (MMIO and SWQ designs)."""

import pytest

from repro.config import (
    AccessMechanism,
    DeviceConfig,
    SwqConfig,
    SystemConfig,
)
from repro.device.replay import AccessTrace
from repro.errors import ProtocolError
from repro.host.system import System
from repro.units import to_ns
from repro.workloads.microbench import MicrobenchSpec, install_microbench


def run_recording(threads=4, iterations=50):
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH, threads_per_core=threads
    )
    system = System(config)
    spec = MicrobenchSpec(work_count=100, iterations=iterations)
    install_microbench(system, spec, threads)
    system.device.start_recording()
    system.run_to_completion(limit_ticks=10**11)
    return system, system.device.stop_recording()


def rebuild(threads=4, iterations=50):
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH, threads_per_core=threads
    )
    system = System(config)
    spec = MicrobenchSpec(work_count=100, iterations=iterations)
    install_microbench(system, spec, threads)
    return system


def test_recording_captures_every_access():
    system, traces = run_recording(threads=4, iterations=50)
    assert sum(len(t) for t in traces.values()) == 4 * 50
    assert system.device.requests_served == 4 * 50


def test_stop_without_start_raises():
    system = rebuild()
    with pytest.raises(ProtocolError):
        system.device.stop_recording()


def test_replay_run_reproduces_functional_run():
    """The paper's run-2: same workload against the replayed trace."""
    _sys1, traces = run_recording()
    system = rebuild()
    system.device.load_traces(traces, streamed=True)
    system.run_to_completion(limit_ticks=10**11)
    replay = system.device.replay_modules[0]
    total = sum(len(t) for t in traces.values())
    matched = sum(m.matches for m in system.device.replay_modules.values())
    assert matched == total
    assert replay.spurious_requests == 0
    assert system.device.delay.deadline_misses == 0


def test_replay_without_traces_rejected():
    system = rebuild()
    with pytest.raises(ProtocolError):
        system.device.load_traces({}, streamed=False)


def test_replay_missing_this_cores_trace_raises():
    _sys1, traces = run_recording()
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH, cores=2, threads_per_core=1
    )
    system = System(config)
    install_microbench(system, MicrobenchSpec(work_count=100, iterations=5), 1)
    # Arm replay with core 0's trace only; core 1's requests have no
    # replay module and must fail loudly.
    system.device.load_traces({0: traces[0]}, streamed=False)
    with pytest.raises(ProtocolError, match="no replay trace"):
        system.run_to_completion(limit_ticks=10**11)


def test_replay_serves_recorded_data():
    """Responses must carry the recorded bytes, end to end."""
    config = SystemConfig(mechanism=AccessMechanism.PREFETCH)
    system = System(config)
    addr = system.alloc_data(0, 64)
    system.world.write_word(addr, 31337)

    def factory(ctx):
        def body():
            return (yield from ctx.read(addr))
        return body()

    system.device.start_recording()
    handle = system.spawn(0, factory)
    system.run_to_completion(limit_ticks=10**10)
    assert handle.result == 31337
    traces = system.device.stop_recording()

    replay_system = System(config)
    replay_addr = replay_system.alloc_data(0, 64)
    assert replay_addr == addr
    # Note: the functional memory of the replay system is EMPTY; the
    # value can only come from the recorded trace.
    replay_system.device.load_traces(traces, streamed=False)
    handle = replay_system.spawn(0, factory)
    replay_system.run_to_completion(limit_ticks=10**10)
    assert handle.result == 31337


def test_spurious_request_served_by_on_demand_module():
    config = SystemConfig(mechanism=AccessMechanism.PREFETCH)
    system = System(config)
    addr = system.alloc_data(0, 64)
    system.world.write_word(addr, 99)
    system.device.load_traces({0: AccessTrace()}, streamed=False)

    def factory(ctx):
        def body():
            return (yield from ctx.read(addr))
        return body()

    handle = system.spawn(0, factory)
    system.run_to_completion(limit_ticks=10**10)
    # Correct data, via the on-demand fallback path.
    assert handle.result == 99
    assert system.device.on_demand.reads == 1
    assert system.device.replay_modules[0].spurious_requests == 1


def test_mmio_latency_honored_for_each_of_three_latencies():
    for latency_us in (1.0, 2.0, 4.0):
        config = SystemConfig(
            mechanism=AccessMechanism.ON_DEMAND,
            device=DeviceConfig(total_latency_us=latency_us),
        )
        system = System(config)
        addr = system.alloc_data(0, 64)

        def factory(ctx):
            def body():
                yield from ctx.read(addr)
                return to_ns(ctx.core.sim.now)
            return body()

        handle = system.spawn(0, factory)
        system.run_to_completion(limit_ticks=10**10)
        assert abs(handle.result - latency_us * 1000) < 60


def test_swq_serves_requests_and_writes_back():
    config = SystemConfig(
        mechanism=AccessMechanism.SOFTWARE_QUEUE, threads_per_core=4
    )
    system = System(config)
    spec = MicrobenchSpec(work_count=100, iterations=20)
    install_microbench(system, spec, 4)
    system.run_to_completion(limit_ticks=10**11)
    assert system.device.requests_served == 80
    fetcher = system.device.fetchers[0]
    assert fetcher.descriptors_fetched == 80
    assert fetcher.bursts_issued >= 10
    # Each access produced a data write + a completion write upstream.
    assert system.bridge.dma_writes >= 160


def test_swq_burst_reads_amortize_dma():
    """With burst reads, bursts << descriptors fetched."""
    config = SystemConfig(
        mechanism=AccessMechanism.SOFTWARE_QUEUE, threads_per_core=8
    )
    system = System(config)
    install_microbench(system, MicrobenchSpec(work_count=100, iterations=20), 8)
    system.run_to_completion(limit_ticks=10**11)
    fetcher = system.device.fetchers[0]
    assert fetcher.descriptors_fetched == 160
    assert fetcher.bursts_issued < 160


def test_swq_single_reads_when_bursts_disabled():
    config = SystemConfig(
        mechanism=AccessMechanism.SOFTWARE_QUEUE,
        threads_per_core=4,
        swq=SwqConfig(burst_reads=False),
    )
    system = System(config)
    install_microbench(system, MicrobenchSpec(work_count=100, iterations=10), 4)
    system.run_to_completion(limit_ticks=10**11)
    fetcher = system.device.fetchers[0]
    # One DMA read per descriptor (plus trailing empty reads).
    assert fetcher.bursts_issued >= fetcher.descriptors_fetched


def test_swq_doorbell_to_bad_address_raises():
    config = SystemConfig(mechanism=AccessMechanism.SOFTWARE_QUEUE)
    system = System(config)
    system.bridge.post_mmio_write(system.map.host_addr(0), 8)
    with pytest.raises(ProtocolError):
        system.sim.run()
