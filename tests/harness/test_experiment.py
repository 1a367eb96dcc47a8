"""Unit tests for the experiment harness and baseline caching."""

import pytest

from repro.config import AccessMechanism, CpuConfig, DeviceConfig, SystemConfig
from repro.harness.applications import (
    APPLICATIONS,
    MicrobenchAppParams,
    default_params,
)
from repro.harness.experiment import MeasureWindow, run_microbench
from repro.harness.sweep import (
    SweepJob,
    baseline_job,
    job_digest,
    normalized,
    run_job,
)
from repro.workloads.microbench import MicrobenchSpec

WINDOW = MeasureWindow(warmup_us=10.0, measure_us=30.0)


def test_measure_window_ticks():
    window = MeasureWindow(warmup_us=10.0, measure_us=30.0)
    assert window.warmup_ticks == 10_000_000
    assert window.measure_ticks == 30_000_000


def test_run_microbench_produces_stats_and_report():
    config = SystemConfig(mechanism=AccessMechanism.PREFETCH, threads_per_core=4)
    result = run_microbench(config, MicrobenchSpec(work_count=100), WINDOW)
    assert result.payload["work_ipc"] > 0
    assert result.payload["accesses"] > 0
    assert "lfb_max_per_core" in result.report


def test_baseline_cache_distinguishes_lines_per_thread():
    """Regression: the memo key once dropped lines_per_thread, so a
    working-set sweep normalized against the wrong DRAM baseline."""
    config = SystemConfig(mechanism=AccessMechanism.PREFETCH)
    tiny = MeasureWindow(warmup_us=2.0, measure_us=8.0)

    def baseline(lines):
        spec = MicrobenchSpec(work_count=50, lines_per_thread=lines)
        return baseline_job(SweepJob(config=config, spec=spec, window=tiny))

    small_job, large_job = baseline(64), baseline(2048)
    # The memo is the result cache, keyed by the job digest.
    assert job_digest(small_job) != job_digest(large_job)
    small = run_job(small_job)
    large = run_job(large_job)
    assert small.job.spec.lines_per_thread == 64
    assert large.job.spec.lines_per_thread == 2048
    # The distinction matters: 64 lines live in the L1, 2048 thrash it.
    assert small.payload["work_ipc"] != large.payload["work_ipc"]


def test_zero_ipc_baseline_raises_simulation_error(monkeypatch):
    from repro.errors import SimulationError
    from repro.harness import sweep

    monkeypatch.setattr(
        sweep, "run_job",
        lambda job, tracer=None: sweep.JobRun(job, {"work_ipc": 0.0}, {}),
    )
    config = SystemConfig(mechanism=AccessMechanism.ON_DEMAND)
    with pytest.raises(SimulationError) as excinfo:
        sweep.normalized(
            SweepJob(config=config, spec=MicrobenchSpec(work_count=7),
                     window=WINDOW)
        )
    message = str(excinfo.value)
    assert "zero work IPC" in message
    assert config.describe() in message
    assert "work_count=7" in message


def test_normalized_microbench_is_ratio():
    config = SystemConfig(
        mechanism=AccessMechanism.ON_DEMAND,
        device=DeviceConfig(total_latency_us=1.0),
    )
    spec = MicrobenchSpec(work_count=100)
    job = SweepJob(config=config, spec=spec, window=WINDOW)
    value, result = normalized(job)
    baseline = run_job(baseline_job(job))
    assert value == pytest.approx(
        result.payload["work_ipc"] / baseline.payload["work_ipc"]
    )
    assert 0 < value < 1


def test_default_params_for_every_application():
    for name in ("bloom", "memcached", "bfs", "microbench-4read"):
        assert default_params(name) is not None
    with pytest.raises(Exception):
        default_params("nope")


def test_run_application_counts_operations():
    config = SystemConfig(mechanism=AccessMechanism.PREFETCH, threads_per_core=2)
    params = MicrobenchAppParams(work_count=100, queries_per_thread=10)
    run = run_job(SweepJob(config=config, app="microbench-4read", params=params))
    operations, ticks = run.payload["operations"], run.payload["ticks"]
    assert operations == 2 * 10
    assert ticks > 0
    assert ticks / operations == ticks / 20


@pytest.mark.parametrize("app", APPLICATIONS)
def test_application_runs_on_every_smt_context(app):
    """Each SMT context is a logical core with its own threads and
    per-core state, and every one of its operations counts."""
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH,
        cores=1,
        threads_per_core=2,
        cpu=CpuConfig(smt_contexts=2),
    )
    params = default_params(app, ops_per_thread=4, bfs_vertices=32)
    run = run_job(SweepJob(config=config, app=app, params=params))
    # BFS: one 32-vertex traversal per logical core; the others: 2
    # logical cores x 2 threads x 4 operations.
    assert run.payload["operations"] == (64 if app == "bfs" else 16)


def test_normalized_application_scales_with_threads():
    params = MicrobenchAppParams(work_count=100, queries_per_thread=12)
    slow, _ = normalized(SweepJob(
        config=SystemConfig(mechanism=AccessMechanism.PREFETCH, threads_per_core=1),
        app="microbench-4read",
        params=params,
    ))
    fast, _ = normalized(SweepJob(
        config=SystemConfig(mechanism=AccessMechanism.PREFETCH, threads_per_core=3),
        app="microbench-4read",
        params=params,
    ))
    assert fast > slow


def test_access_latency_statistics_recorded():
    from repro.config import DeviceConfig

    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH,
        threads_per_core=4,
        device=DeviceConfig(total_latency_us=2.0),
    )
    result = run_microbench(config, MicrobenchSpec(work_count=100), WINDOW)
    stats = result.report["access_latency_ns"]
    assert stats is not None
    assert stats["count"] > 50
    # Thread-visible latency is at least the device latency.
    assert stats["p50"] >= 1990
    assert stats["max"] >= stats["p50"] >= 0


def test_access_latency_on_demand_equals_device_latency():
    from repro.config import DeviceConfig

    config = SystemConfig(
        mechanism=AccessMechanism.ON_DEMAND,
        threads_per_core=1,
        device=DeviceConfig(total_latency_us=1.0),
    )
    result = run_microbench(config, MicrobenchSpec(work_count=100), WINDOW)
    stats = result.report["access_latency_ns"]
    assert abs(stats["p50"] - 1000) < 30
