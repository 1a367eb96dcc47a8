"""Unit tests for the parallel sweep engine and its result cache."""

import json
import multiprocessing
from dataclasses import replace

import pytest

from repro.config import (
    AccessMechanism,
    BackingStore,
    CpuConfig,
    DeviceAttachment,
    DeviceConfig,
    SwqConfig,
    SystemConfig,
)
from repro.errors import ConfigError, SimulationError
from repro.harness import figures
from repro.harness import sweep as sweep_mod
from repro.harness.applications import default_params
from repro.harness.experiment import MeasureWindow
from repro.harness.figures import Series
from repro.harness.sweep import (
    MODEL_VERSION,
    ResultCache,
    SweepEngine,
    SweepJob,
    SweepSpec,
    baseline_job,
    job_digest,
    normalized,
)
from repro.workloads.microbench import MicrobenchSpec

#: Small enough that one job simulates in ~10 ms.
TINY = MeasureWindow(warmup_us=2.0, measure_us=8.0)


def _job(threads=2, work=50, latency_us=1.0, **spec_kwargs) -> SweepJob:
    return SweepJob(
        config=SystemConfig(
            mechanism=AccessMechanism.PREFETCH,
            threads_per_core=threads,
            device=DeviceConfig(total_latency_us=latency_us),
        ),
        spec=MicrobenchSpec(work_count=work, **spec_kwargs),
        window=TINY,
    )


# ---------------------------------------------------------------------------
# Job validation and cache keys
# ---------------------------------------------------------------------------

def test_microbench_job_requires_spec():
    with pytest.raises(ConfigError):
        SweepJob(config=SystemConfig())


def test_application_job_takes_no_spec():
    with pytest.raises(ConfigError):
        SweepJob(
            config=SystemConfig(),
            app="bloom",
            spec=MicrobenchSpec(work_count=10),
        )


def test_job_digest_is_stable_and_input_sensitive():
    assert job_digest(_job()) == job_digest(_job())
    assert job_digest(_job()) != job_digest(_job(work=51))
    assert job_digest(_job()) != job_digest(_job(threads=3))
    # The working-set size is part of the identity (the baseline-cache
    # bug this PR fixes was exactly this field going missing).
    assert job_digest(_job()) != job_digest(_job(lines_per_thread=2048))
    # The hardware-prefetcher ablation never shares cache entries with
    # plain runs.
    prefetching = replace(
        _job(), config=_job().config.replace(cpu=CpuConfig(hardware_prefetcher=True))
    )
    assert job_digest(_job()) != job_digest(prefetching)


def test_job_digest_salt_and_label():
    assert job_digest(_job(), salt="a") != job_digest(_job(), salt="b")
    tagged = SweepJob(
        config=_job().config, spec=_job().spec, window=TINY, label=("fig3", 2)
    )
    assert job_digest(tagged) == job_digest(_job())  # label is bookkeeping


def test_baseline_job_keeps_consumed_spec_fields():
    job = _job(
        threads=8, work=120, latency_us=4.0,
        reads_per_batch=2, lines_per_thread=512,
    )
    base = baseline_job(job)
    assert base.config.cores == 1
    assert base.config.threads_per_core == 1
    assert base.config.mechanism is AccessMechanism.ON_DEMAND
    assert base.config.backing is BackingStore.DRAM
    assert base.spec.work_count == 120
    assert base.spec.reads_per_batch == 2
    assert base.spec.lines_per_thread == 512


def test_baseline_job_is_device_latency_independent():
    # The DRAM baseline never touches the device, so a latency sweep
    # must share one baseline run instead of simulating three.
    keys = {
        job_digest(baseline_job(_job(latency_us=latency)))
        for latency in (1.0, 2.0, 4.0)
    }
    assert len(keys) == 1


# ---------------------------------------------------------------------------
# Execution: determinism, dedup, ordering
# ---------------------------------------------------------------------------

def test_serial_and_parallel_results_are_identical():
    jobs = [_job(threads=threads) for threads in (1, 2, 3, 4, 5)]
    serial = SweepEngine(jobs=1, use_cache=False).run(SweepSpec("s", jobs))
    parallel = SweepEngine(jobs=4, use_cache=False).run(SweepSpec("p", jobs))
    assert [o.payload for o in serial] == [o.payload for o in parallel]
    # Outcomes come back in submission order, not completion order.
    assert [o.job for o in serial] == jobs
    assert [o.job for o in parallel] == jobs


def test_identical_jobs_simulate_once():
    engine = SweepEngine(jobs=1, use_cache=False)
    outcomes = engine.run([_job(), _job(), _job()])
    assert engine.last_stats["jobs"] == 3
    assert engine.last_stats["unique"] == 1
    assert engine.last_stats["simulated"] == 1
    assert outcomes[0].payload == outcomes[1].payload == outcomes[2].payload


def test_engine_counters_accumulate(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    engine.run([_job()])
    engine.run([_job()])
    stats = engine.stats()
    assert stats["jobs"] == 2
    assert stats["simulated"] == 1
    assert stats["cache_hits"] == 1
    assert stats["cache_misses"] == 1
    assert engine.probes.latency("sweep-job-wall-ns").count == 1


# ---------------------------------------------------------------------------
# On-disk cache
# ---------------------------------------------------------------------------

def test_cache_hit_after_miss(tmp_path):
    jobs = [_job(threads=threads) for threads in (1, 2)]
    cold = SweepEngine(jobs=1, cache_dir=tmp_path)
    first = cold.run(jobs)
    assert cold.last_stats == dict(
        cold.last_stats, cache_hits=0, cache_misses=2, simulated=2
    )
    assert not any(outcome.cached for outcome in first)

    warm = SweepEngine(jobs=1, cache_dir=tmp_path)
    second = warm.run(jobs)
    assert warm.last_stats["cache_hits"] == 2
    assert warm.last_stats["simulated"] == 0
    assert all(outcome.cached for outcome in second)
    assert [o.payload for o in first] == [o.payload for o in second]


def test_cache_invalidated_by_model_version_salt(tmp_path):
    job = _job()
    SweepEngine(jobs=1, cache_dir=tmp_path, salt="model-v1").run([job])
    bumped = SweepEngine(jobs=1, cache_dir=tmp_path, salt="model-v2")
    bumped.run([job])
    assert bumped.last_stats["cache_misses"] == 1
    assert bumped.last_stats["simulated"] == 1
    unchanged = SweepEngine(jobs=1, cache_dir=tmp_path, salt="model-v1")
    unchanged.run([job])
    assert unchanged.last_stats["cache_hits"] == 1


def test_corrupt_cache_entry_degrades_to_miss(tmp_path):
    job = _job()
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    outcome = engine.run([job])[0]
    engine.cache.path(outcome.key).write_text("{not json")
    rerun = SweepEngine(jobs=1, cache_dir=tmp_path)
    again = rerun.run([job])[0]
    assert rerun.last_stats["simulated"] == 1
    assert again.payload == outcome.payload


def test_cache_entry_is_selfdescribing(tmp_path):
    job = _job(work=77)
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    outcome = engine.run([job])[0]
    entry = json.loads(engine.cache.path(outcome.key).read_text())
    assert entry["format"] == ResultCache.FORMAT
    assert entry["key"] == outcome.key
    assert entry["model_version"] == MODEL_VERSION
    assert entry["job"]["spec"]["work_count"] == 77
    assert entry["result"] == outcome.payload


def test_no_cache_engine_never_touches_disk(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=tmp_path, use_cache=False)
    engine.run([_job()])
    assert engine.cache is None
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Worker failure, timeout, fallback
# ---------------------------------------------------------------------------

_REAL_RUN = sweep_mod.run_job


def _fail_in_worker(job, tracer=None):
    """Raises inside pool workers, behaves normally in the parent."""
    if multiprocessing.current_process().name != "MainProcess":
        raise RuntimeError("injected worker failure")
    return _REAL_RUN(job, tracer)


def test_worker_failure_falls_back_in_process(monkeypatch):
    monkeypatch.setattr(sweep_mod, "run_job", _fail_in_worker)
    jobs = [_job(threads=threads) for threads in (1, 2)]
    engine = SweepEngine(jobs=2, use_cache=False, retries=1, timeout_s=60.0)
    outcomes = engine.run(jobs)
    assert engine.last_stats["fallbacks"] == 2
    assert engine.last_stats["retries"] == 2
    reference = SweepEngine(jobs=1, use_cache=False).run(jobs)
    assert [o.payload for o in outcomes] == [o.payload for o in reference]


def test_timeout_falls_back_in_process():
    # The engine can only time out a job whose start it has seen; a
    # TINY job (~10 ms) can finish inside one 20 ms supervisor poll and
    # be harvested as done.  A 400 us window runs for ~0.3 s instead.
    window = MeasureWindow(warmup_us=2.0, measure_us=400.0)
    jobs = [replace(_job(threads=threads), window=window) for threads in (1, 2)]
    engine = SweepEngine(jobs=2, use_cache=False, retries=0, timeout_s=1e-6)
    outcomes = engine.run(jobs)
    assert engine.last_stats["fallbacks"] == 2
    reference = SweepEngine(jobs=1, use_cache=False).run(jobs)
    assert [o.payload for o in outcomes] == [o.payload for o in reference]


# ---------------------------------------------------------------------------
# Normalization through the figure helpers
# ---------------------------------------------------------------------------

def test_sweep_normalization_matches_direct_path():
    plain = _job(threads=4, work=80)
    configs = (
        plain.config,
        plain.config.replace(
            device=DeviceConfig(attachment=DeviceAttachment.MEMORY_BUS)
        ),
        plain.config.replace(cpu=CpuConfig(smt_contexts=2)),
        plain.config.replace(
            mechanism=AccessMechanism.SOFTWARE_QUEUE,
            device=DeviceConfig(total_latency_us=4.0),
            swq=SwqConfig(ring_entries=8),
        ),
    )
    jobs = [replace(plain, config=config) for config in configs]
    bloom = default_params("bloom", ops_per_thread=4)
    jobs.append(SweepJob(config=plain.config, app="bloom", params=bloom))
    grid = [(Series(job.describe()), 4, job) for job in jobs]
    figures._run_normalized("mini", grid, SweepEngine(jobs=1, use_cache=False))
    for line, _x, job in grid:
        direct, _ = normalized(job)
        assert line.y_at(4) == direct, job.describe()


def test_zero_ipc_baseline_raises_simulation_error_in_sweep():
    job = SweepJob(
        config=SystemConfig(mechanism=AccessMechanism.ON_DEMAND),
        spec=MicrobenchSpec(work_count=0),
        window=TINY,
    )
    line = Series("zero")
    with pytest.raises(SimulationError, match="zero work IPC"):
        figures._run_normalized(
            "zero", [(line, 1, job)], SweepEngine(jobs=1, use_cache=False)
        )


def test_engine_rejects_bad_configuration():
    with pytest.raises(ConfigError):
        SweepEngine(jobs=0)
    with pytest.raises(ConfigError):
        SweepEngine(retries=-1)
    with pytest.raises(ConfigError):
        SweepEngine(timeout_s=0.0)


def test_from_env_reads_environment():
    engine = SweepEngine.from_env(
        {"REPRO_SWEEP_JOBS": "3", "REPRO_CACHE_DIR": "/tmp/x",
         "REPRO_NO_CACHE": "1"}
    )
    assert engine.jobs == 3
    assert engine.cache is None
    cached = SweepEngine.from_env({"REPRO_CACHE_DIR": "/tmp/x"})
    assert cached.jobs == 1
    assert str(cached.cache.root) == "/tmp/x"


def test_from_env_reads_failure_tuning():
    engine = SweepEngine.from_env(
        {"REPRO_NO_CACHE": "1", "REPRO_SWEEP_TIMEOUT_S": "12.5",
         "REPRO_SWEEP_RETRIES": "3"}
    )
    assert engine.timeout_s == 12.5
    assert engine.retries == 3
    defaults = SweepEngine.from_env({"REPRO_NO_CACHE": "1"})
    assert defaults.timeout_s == 900.0
    assert defaults.retries == 1


@pytest.mark.parametrize("variable,value", [
    ("REPRO_SWEEP_TIMEOUT_S", "soon"),
    ("REPRO_SWEEP_RETRIES", "2.5"),
    ("REPRO_SWEEP_RETRIES", "many"),
    ("REPRO_SWEEP_JOBS", "two"),
])
def test_from_env_rejects_malformed_failure_tuning(variable, value):
    with pytest.raises(ConfigError, match=variable):
        SweepEngine.from_env({"REPRO_NO_CACHE": "1", variable: value})


# ---------------------------------------------------------------------------
# Kernel stats, invariants, progress telemetry
# ---------------------------------------------------------------------------

def test_payload_carries_worker_kernel_stats():
    outcome = SweepEngine(jobs=1, use_cache=False).run([_job()])[0]
    stats = outcome.payload["kernel_stats"]
    assert stats["simulators"] >= 1
    assert stats["events_fired"] > 0
    assert stats["heap_pushes"] >= stats["heap_pops"]


def test_summary_merges_kernel_stats_across_workers():
    jobs = [_job(threads=threads) for threads in (1, 2, 3)]
    engine = SweepEngine(jobs=2, use_cache=False)
    outcomes = engine.run(jobs)
    merged = engine.last_stats["kernel_stats"]
    for stat in ("events_fired", "process_resumes", "simulators"):
        assert merged[stat] == sum(
            outcome.payload["kernel_stats"][stat] for outcome in outcomes
        )


def test_cache_served_sweep_merges_no_kernel_stats(tmp_path):
    jobs = [_job()]
    SweepEngine(jobs=1, cache_dir=tmp_path).run(jobs)
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    outcomes = engine.run(jobs)
    assert engine.last_stats["simulated"] == 0
    # Nothing ran here, so no throughput to report -- but the cached
    # payload still carries the stats of the run that produced it.
    assert engine.last_stats["kernel_stats"] == {}
    assert outcomes[0].payload["kernel_stats"]["events_fired"] > 0


def test_check_invariants_uses_a_distinct_cache_namespace(tmp_path):
    jobs = [_job()]
    SweepEngine(jobs=1, cache_dir=tmp_path).run(jobs)
    checked = SweepEngine(jobs=1, cache_dir=tmp_path, check_invariants=True)
    outcomes = checked.run(jobs)
    # A monitored run is never served from unmonitored cache entries
    # (payload kernel counters differ), but its figures must agree.
    assert checked.last_stats["cache_hits"] == 0
    assert checked.last_stats["simulated"] == 1
    plain = SweepEngine(jobs=1, use_cache=False).run(jobs)
    assert outcomes[0].payload["work_ipc"] == plain[0].payload["work_ipc"]
    assert outcomes[0].payload["ticks"] == plain[0].payload["ticks"]


class _RecordingProgress:
    def __init__(self):
        self.begun = None
        self.done = 0
        self.finished = None

    def begin(self, name, total, cache_hits, workers):
        self.begun = {"name": name, "total": total,
                      "cache_hits": cache_hits, "workers": workers}

    def job_done(self, wall_s, active=0):
        self.done += 1

    def heartbeat(self, active):
        pass

    def finish(self, stats):
        self.finished = stats


@pytest.mark.parametrize("workers", [1, 2])
def test_progress_hooks_fire_per_job(workers):
    jobs = [_job(threads=threads) for threads in (1, 2, 3)]
    progress = _RecordingProgress()
    engine = SweepEngine(jobs=workers, use_cache=False, progress=progress)
    engine.run(SweepSpec("prog", jobs))
    assert progress.begun == {
        "name": "prog", "total": 3, "cache_hits": 0, "workers": workers
    }
    assert progress.done == 3
    assert progress.finished is engine.last_stats


# ---------------------------------------------------------------------------
# One execution path: interrupts, resumes and the throwaway queue
# ---------------------------------------------------------------------------

class _InterruptAt(_RecordingProgress):
    """Progress hook that raises KeyboardInterrupt at the n-th job_done."""

    def __init__(self, at):
        super().__init__()
        self.at = at

    def job_done(self, wall_s, active=0):
        super().job_done(wall_s, active)
        if self.done == self.at:
            raise KeyboardInterrupt


def _six_jobs():
    return [_job(threads=threads) for threads in (1, 2, 3, 4, 5, 6)]


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupted_sweep_keeps_finished_jobs_in_the_cache(tmp_path, workers):
    expected = SweepEngine(jobs=1, use_cache=False).run(_six_jobs())
    interrupted = SweepEngine(
        jobs=workers, cache_dir=tmp_path, progress=_InterruptAt(3)
    )
    with pytest.raises(KeyboardInterrupt):
        interrupted.run(_six_jobs())
    # No queue directory: the cache alone keeps the three harvested jobs.
    rerun = SweepEngine(jobs=workers, cache_dir=tmp_path)
    outcomes = rerun.run(_six_jobs())
    assert rerun.last_stats["cache_hits"] >= 3
    assert rerun.last_stats["simulated"] <= 3
    assert [o.payload for o in outcomes] == [o.payload for o in expected]


def test_serial_queue_sweep_resumes_bit_for_bit(tmp_path):
    spec = SweepSpec("serial-resume", _six_jobs())
    reference = SweepEngine(jobs=1, use_cache=False)
    expected = reference.run(spec)

    queue_dir = tmp_path / "q"
    interrupted = SweepEngine(
        jobs=1, use_cache=False, queue_dir=queue_dir,
        progress=_InterruptAt(3),
    )
    with pytest.raises(KeyboardInterrupt):
        interrupted.run(spec)
    assert interrupted.last_stats["interrupted"] is True
    assert interrupted.last_stats["queue"]["counts"]["done"] == 3

    resumed = SweepEngine(jobs=1, use_cache=False, queue_dir=queue_dir)
    outcomes = resumed.run(spec)
    assert [o.payload for o in outcomes] == [o.payload for o in expected]
    assert resumed.last_stats["queue_served"] == 3
    assert resumed.last_stats["simulated"] == 3
    assert (resumed.last_stats["kernel_stats"]
            == reference.last_stats["kernel_stats"])

    replay = SweepEngine(jobs=1, use_cache=False, queue_dir=queue_dir)
    replay.run(spec)
    assert replay.last_stats["simulated"] == 0


def test_serial_sweep_leaves_no_temp_files(tmp_path, monkeypatch):
    import tempfile

    temp_root = tmp_path / "tmp"
    temp_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_root))

    SweepEngine(jobs=1, use_cache=False).run([_job()])
    assert list(temp_root.iterdir()) == []

    with pytest.raises(KeyboardInterrupt):
        SweepEngine(jobs=1, use_cache=False, progress=_InterruptAt(1)).run(
            [_job(threads=1), _job(threads=2)]
        )
    assert list(temp_root.iterdir()) == []

    def _boom(job, tracer=None):
        raise ValueError("injected fault")

    monkeypatch.setattr(sweep_mod, "run_job", _boom)
    engine = SweepEngine(jobs=1, use_cache=False)
    [outcome] = engine.run([_job()])
    assert outcome.failed
    assert outcome.payload == {
        "kind": "failure", "error": "ValueError: injected fault",
        "error_type": "ValueError", "worker": outcome.payload["worker"],
    }
    assert list(temp_root.iterdir()) == []
