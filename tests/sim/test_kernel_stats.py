"""Tests of the kernel's observability layer: per-simulator counters
and the cross-simulator :func:`collect_kernel_stats` collector."""

import pytest

from repro.config import AccessMechanism, DeviceConfig, SystemConfig
from repro.harness.experiment import MeasureWindow, run_microbench
from repro.sim import Simulator, Store, collect_kernel_stats
from repro.workloads.microbench import MicrobenchSpec


def _producer_consumer(sim, items=100):
    store = Store(sim, capacity=4)

    def producer():
        for i in range(items):
            yield store.put(i)

    def consumer():
        for _ in range(items):
            yield store.get()

    sim.process(producer())
    sim.process(consumer())


def test_counters_track_a_pure_fast_path_run():
    """A zero-delay workload never touches the heap: every schedule is a
    run-queue bypass, and every fired event was scheduled."""
    sim = Simulator()
    _producer_consumer(sim)
    sim.run()
    stats = sim.kernel_stats()
    assert stats["heap_pushes"] == 0
    assert stats["heap_pops"] == 0
    assert stats["events_fired"] > 0
    assert stats["runq_bypasses"] >= stats["events_fired"]
    assert stats["processes_spawned"] == 2
    assert stats["process_resumes"] > 0
    assert stats["pending_events"] == 0


def test_counters_track_heap_traffic():
    sim = Simulator()

    def sleeper():
        for _ in range(5):
            yield sim.timeout(10)

    sim.process(sleeper())
    sim.run()
    stats = sim.kernel_stats()
    assert stats["heap_pushes"] == 5
    assert stats["heap_pops"] == 5
    assert sim.now == 50


def test_fired_events_equal_bypasses_plus_pops_for_completed_runs():
    """Conservation law behind the derived bypass counter: once a run
    drains, everything scheduled has fired, minus process bootstraps
    (which pass through the run queue without firing an event)."""
    sim = Simulator()
    _producer_consumer(sim)

    def sleeper():
        yield sim.timeout(7)

    sim.process(sleeper())
    sim.run()
    stats = sim.kernel_stats()
    assert (
        stats["events_fired"] + stats["processes_spawned"]
        == stats["runq_bypasses"] + stats["heap_pops"]
    )


def test_collector_aggregates_across_simulators():
    with collect_kernel_stats() as kernel:
        for _ in range(3):
            sim = Simulator()
            _producer_consumer(sim, items=10)
            sim.run()
        single = sim.kernel_stats()
    stats = kernel.stats()
    assert stats["simulators"] == 3
    assert stats["events_fired"] == 3 * single["events_fired"]
    assert 0.0 < kernel.bypass_ratio <= 1.0


def test_collector_only_sees_simulators_built_inside_its_block():
    outside = Simulator()
    _producer_consumer(outside, items=5)
    outside.run()
    with collect_kernel_stats() as kernel:
        inside = Simulator()
        _producer_consumer(inside, items=5)
        inside.run()
    assert kernel.stats()["simulators"] == 1
    assert kernel.stats()["events_fired"] == inside.kernel_stats()["events_fired"]


def test_empty_collector_reports_zero_ratio():
    with collect_kernel_stats() as kernel:
        pass
    assert kernel.stats()["simulators"] == 0
    assert kernel.bypass_ratio == 0.0


def test_empty_collector_stats_register_no_simulator():
    """Reading an empty collector's stats inside its block must not
    build (and so register) a simulator: every call reports zero."""
    with collect_kernel_stats() as kernel:
        first = kernel.stats()
        second = kernel.stats()
    assert first == second
    assert second["simulators"] == 0
    assert set(second) == {"simulators"} | (
        set(Simulator().kernel_stats()) - {"pending_events"}
    )


@pytest.mark.parametrize(
    "mechanism", [AccessMechanism.PREFETCH, AccessMechanism.SOFTWARE_QUEUE]
)
def test_spawned_processes_do_not_scale_with_accesses(mechanism):
    """Line fills, DMA servers and queue pumps are callback chains: a
    run spawns the same processes (threads, fetchers, ...) however many
    accesses it makes."""
    config = SystemConfig(
        mechanism=mechanism,
        threads_per_core=8,
        device=DeviceConfig(total_latency_us=1.0),
    )
    spec = MicrobenchSpec(work_count=100)

    def run(measure_us):
        with collect_kernel_stats() as kernel:
            result = run_microbench(
                config, spec, MeasureWindow(warmup_us=5.0, measure_us=measure_us)
            )
        return kernel.stats()["processes_spawned"], result.payload["accesses"]

    spawned, accesses = run(20.0)
    spawned_doubled, accesses_doubled = run(40.0)
    assert accesses_doubled > accesses > 0
    assert spawned_doubled == spawned
