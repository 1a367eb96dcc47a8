"""Invariant-sanitizer tests: clean runs pass, corrupted state is loud,
and a monitored run's results are bit-for-bit unmonitored results."""

from dataclasses import replace

import pytest

from repro.config import AccessMechanism, DeviceConfig, SystemConfig
from repro.errors import SimulationError
from repro.harness.applications import default_params
from repro.harness.experiment import MeasureWindow
from repro.harness.service import ServiceParams
from repro.harness.sweep import SweepJob, run_job
from repro.host.system import System
from repro.obs import InvariantMonitor, InvariantViolation, TeeTracer, Tracer
from repro.obs.scenarios import TRACE_SCENARIOS
from repro.units import us
from repro.workloads.loadgen import ArrivalSpec, KeySpec, OpenLoopSpec
from repro.workloads.microbench import MicrobenchSpec, install_microbench

TINY = MeasureWindow(warmup_us=2.0, measure_us=8.0)


def _config(mechanism=AccessMechanism.PREFETCH, threads=4, cores=1):
    return SystemConfig(
        mechanism=mechanism,
        cores=cores,
        threads_per_core=threads,
        device=DeviceConfig(total_latency_us=1.0),
    )


def _attached_system(config=None):
    monitor = InvariantMonitor(interval_ticks=us(1))
    system = System(config or _config(), tracer=monitor)
    monitor.attach(system)
    install_microbench(system, MicrobenchSpec(work_count=100),
                       (config or _config()).threads_per_core)
    return monitor, system


# ---------------------------------------------------------------------------
# The acceptance grid: every figure scenario passes under the monitor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(TRACE_SCENARIOS))
def test_every_figure_scenario_passes_invariants(name):
    scenario = TRACE_SCENARIOS[name]
    result = run_job(replace(scenario, window=TINY, check_invariants=True))
    summary = result.report["invariants"]
    assert summary["checks_run"] >= 2  # periodic watch + final check
    assert summary["components"] >= 3


@pytest.mark.parametrize(
    "mechanism",
    [AccessMechanism.PREFETCH, AccessMechanism.SOFTWARE_QUEUE],
)
def test_applications_pass_invariants(mechanism):
    run = run_job(SweepJob(
        config=_config(mechanism, threads=2),
        app="bloom",
        params=default_params("bloom"),
        check_invariants=True,
    ))
    assert run.payload["operations"] > 0
    assert run.report["invariants"]["checks_run"] >= 2


# ---------------------------------------------------------------------------
# Passivity: monitored results are bit-for-bit unmonitored results
# ---------------------------------------------------------------------------

def _model_outputs(run, *observations) -> dict:
    """The payload without its kernel counters and ``observations``."""
    return {
        key: value for key, value in run.payload.items()
        if key not in ("kernel_stats", *observations)
    }


def test_monitor_is_passive():
    spec = MicrobenchSpec(work_count=100, reads_per_batch=2)
    microbench = SweepJob(config=_config(), spec=spec, window=TINY)
    plain = run_job(microbench)
    checked = run_job(replace(microbench, check_invariants=True))
    assert "invariants" not in plain.report
    assert (checked.payload["work_instructions"]
            == plain.payload["work_instructions"])
    assert checked.payload["accesses"] == plain.payload["accesses"]
    assert checked.payload["work_ipc"] == plain.payload["work_ipc"]

    # Every job kind, under every observer: the monitor, a metrics
    # snapshot and a recording tracer leave the model's outputs alone.
    bloom = SweepJob(
        config=_config(threads=2),
        app="bloom",
        params=default_params("bloom", ops_per_thread=4),
    )
    service = SweepJob(
        config=_config(AccessMechanism.SOFTWARE_QUEUE),
        service=ServiceParams(
            open_loop=OpenLoopSpec(
                arrivals=ArrivalSpec(rate_per_us=0.3),
                keys=KeySpec(items=256),
            ),
            items=256,
            buckets=256,
            workers_per_core=4,
            spans=True,
        ),
        window=MeasureWindow(warmup_us=5.0, measure_us=30.0),
    )
    for job in (microbench, bloom, service):
        outputs = _model_outputs(run_job(job))
        checked = run_job(replace(job, check_invariants=True))
        assert checked.report["invariants"]["checks_run"] >= 1, job.kind
        assert _model_outputs(checked) == outputs, job.kind
        metered = run_job(replace(job, collect_metrics=True))
        assert metered.payload["metrics"], job.kind
        assert _model_outputs(metered, "metrics") == outputs, job.kind
        tracer = Tracer()
        assert _model_outputs(run_job(job, tracer)) == outputs, job.kind
        assert tracer.events, job.kind


# ---------------------------------------------------------------------------
# Violations are loud and carry diagnostics
# ---------------------------------------------------------------------------

def test_corrupted_rob_counter_is_caught():
    monitor, system = _attached_system()
    system.run_window(TINY.warmup_ticks, TINY.measure_ticks)
    system.cores[0].rob.allocated_slots += 7
    with pytest.raises(InvariantViolation) as excinfo:
        monitor.check_now()
    violation = excinfo.value
    assert violation.component == "core0.rob"
    assert violation.tick == system.sim.now
    assert "imbalance" in str(violation)


def test_corrupted_pcie_counter_is_caught_by_watch_process():
    monitor, system = _attached_system()

    def corrupt():
        yield system.sim.timeout(TINY.warmup_ticks)
        system.link.upstream.tlps_sent += 3

    system.sim.process(corrupt(), name="saboteur")
    with pytest.raises(InvariantViolation) as excinfo:
        system.run_window(TINY.warmup_ticks, TINY.measure_ticks)
    assert excinfo.value.component == "pcie.upstream"


def test_corrupted_swq_credits_are_caught():
    config = _config(AccessMechanism.SOFTWARE_QUEUE, threads=2)
    monitor, system = _attached_system(config)
    system.run_window(TINY.warmup_ticks, TINY.measure_ticks)
    system.queue_pairs[0].descriptors_enqueued += 1
    with pytest.raises(InvariantViolation, match="descriptor credits"):
        monitor.check_now()


def test_clock_regression_is_caught():
    monitor, system = _attached_system()
    system.run_window(TINY.warmup_ticks, TINY.measure_ticks)
    monitor._last_tick = system.sim.now + 1
    with pytest.raises(InvariantViolation, match="backwards"):
        monitor.check_now()


def test_violation_carries_recent_trace_events():
    monitor, system = _attached_system()
    system.run_window(TINY.warmup_ticks, TINY.measure_ticks)
    assert len(monitor.recent_events) > 0
    system.cores[0].lfb._slots.in_use = 99  # beyond capacity
    with pytest.raises(InvariantViolation) as excinfo:
        monitor.check_now()
    assert excinfo.value.recent_events
    assert "recent events:" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------

def test_attach_twice_raises():
    monitor, system = _attached_system()
    with pytest.raises(SimulationError, match="already attached"):
        monitor.attach(system)


def test_check_now_requires_attachment():
    with pytest.raises(SimulationError, match="not attached"):
        InvariantMonitor().check_now()


def test_bad_interval_rejected():
    with pytest.raises(SimulationError):
        InvariantMonitor(interval_ticks=0)


def test_tee_tracer_forwards_to_all_sinks():
    class Sink:
        def __init__(self):
            self.calls = []

        def wants(self, track):
            return track == "rob"

        def complete(self, *args, **kwargs):
            self.calls.append(("complete", args))

        def instant(self, *args, **kwargs):
            self.calls.append(("instant", args))

        def counter(self, *args, **kwargs):
            self.calls.append(("counter", args))

        def process_name(self, pid, name):
            self.calls.append(("process_name", (pid, name)))

        def thread_name(self, pid, tid, name):
            self.calls.append(("thread_name", (pid, tid, name)))

    first, second = Sink(), Sink()
    tee = TeeTracer((first, None, second))
    assert tee.wants("rob") and not tee.wants("pcie")
    tee.complete("rob", 1, 2, "x", 0, 5)
    tee.instant("rob", 1, 2, "y", 3)
    tee.counter("rob", 1, "z", 4, {"v": 1})
    tee.process_name(1, "cores")
    tee.thread_name(1, 2, "t0")
    assert first.calls == second.calls
    assert len(first.calls) == 5


def test_monitor_tee_returns_self_without_tracer():
    monitor = InvariantMonitor()
    assert monitor.tee(None) is monitor
    tee = monitor.tee(object.__new__(TeeTracer))
    assert isinstance(tee, TeeTracer)


def test_corrupted_kernel_counters_are_caught():
    monitor, system = _attached_system()
    system.run_window(TINY.warmup_ticks, TINY.measure_ticks)
    system.sim.heap_pops = system.sim.heap_pushes + 1
    with pytest.raises(InvariantViolation, match="more timed pops") as excinfo:
        monitor.check_now()
    assert excinfo.value.component == "sim.kernel"
