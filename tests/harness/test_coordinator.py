"""Unit tests for the durable work-queue sweep coordinator."""

import json
import multiprocessing
import os

import pytest

from repro.config import AccessMechanism, DeviceConfig, SystemConfig
from repro.errors import ConfigError
from repro.harness import coordinator
from repro.harness.coordinator import (
    DONE,
    FAILED,
    LEASED,
    MANIFEST_FORMAT,
    PENDING,
    WorkQueue,
    find_queues,
    job_from_jsonable,
    job_to_jsonable,
    worker_loop,
)
from repro.harness.experiment import MeasureWindow
from repro.harness.service import ServiceParams
from repro.harness.sweep import (
    MODEL_VERSION,
    ResultCache,
    SweepJob,
    job_digest,
)
from repro.workloads.bloom import BloomParams
from repro.workloads.microbench import MicrobenchSpec

TINY = MeasureWindow(warmup_us=2.0, measure_us=8.0)


def _job(threads=2, work=50, latency_us=1.0) -> SweepJob:
    return SweepJob(
        config=SystemConfig(
            mechanism=AccessMechanism.PREFETCH,
            threads_per_core=threads,
            device=DeviceConfig(total_latency_us=latency_us),
        ),
        spec=MicrobenchSpec(work_count=work),
        window=TINY,
    )


def _queue(tmp_path, jobs, name="unit", salt="s") -> WorkQueue:
    keys = [job_digest(job, salt) for job in jobs]
    queue = WorkQueue.ensure(
        tmp_path / "q", name=name, salt=salt,
        model_version=MODEL_VERSION, keys=keys,
    )
    for key, job in zip(keys, jobs):
        queue.enqueue(key, job)
    return queue


# ---------------------------------------------------------------------------
# Job (de)serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("job", [
    _job(),
    SweepJob(config=SystemConfig(), app="bloom",
             params=BloomParams(items=1 << 10, queries_per_thread=8)),
    SweepJob(config=SystemConfig(), service=ServiceParams(items=64,
                                                          buckets=64)),
], ids=["microbench", "application", "service"])
def test_job_survives_json_round_trip(job):
    data = json.loads(json.dumps(job_to_jsonable(job)))
    rebuilt = job_from_jsonable(data)
    assert rebuilt.kind == job.kind
    assert job_digest(rebuilt, "s") == job_digest(job, "s")


def test_round_trip_drops_label_like_the_digest_does():
    labelled = SweepJob(
        config=SystemConfig(), spec=MicrobenchSpec(work_count=10),
        window=TINY, label=("series", 3),
    )
    rebuilt = job_from_jsonable(job_to_jsonable(labelled))
    assert rebuilt.label is None
    assert job_digest(rebuilt, "x") == job_digest(labelled, "x")


def test_unknown_params_type_is_config_error():
    data = job_to_jsonable(
        SweepJob(config=SystemConfig(), app="bloom", params=BloomParams())
    )
    data["params_type"] = "NoSuchParams"
    with pytest.raises(ConfigError):
        job_from_jsonable(data)


# ---------------------------------------------------------------------------
# Queue state machine
# ---------------------------------------------------------------------------

def test_job_walks_the_state_machine(tmp_path):
    job = _job()
    queue = _queue(tmp_path, [job])
    [key] = queue.order
    assert queue.state(key) == PENDING

    assert queue.try_claim(key, "w1", lease_s=60.0)
    assert queue.state(key) == LEASED
    assert not queue.try_claim(key, "w2", lease_s=60.0)

    queue.release(key)
    assert queue.state(key) == PENDING

    queue.fail(key, {"error": "ValueError: boom", "error_type": "ValueError",
                     "worker": "w1"})
    assert queue.state(key) == FAILED
    assert queue.failure(key)["error_type"] == "ValueError"
    queue.clear_failure(key)
    assert queue.state(key) == PENDING

    queue.complete(key, {"payload": {"x": 1}, "cached": False,
                         "worker": "w1", "wall_s": 0.1})
    assert queue.state(key) == DONE
    assert queue.done_record(key)["payload"] == {"x": 1}
    assert queue.counts() == {PENDING: 0, LEASED: 0, DONE: 1, FAILED: 0}
    assert queue.unresolved() == 0


def test_done_wins_over_stale_failure_marker(tmp_path):
    queue = _queue(tmp_path, [_job()])
    [key] = queue.order
    queue.fail(key, {"error": "x", "error_type": "X", "worker": "w"})
    queue.complete(key, {"payload": {}, "cached": False,
                         "worker": "w", "wall_s": 0.0})
    # complete() clears the failure marker: a resolved job is done.
    assert queue.state(key) == DONE
    assert queue.failure(key) is None


def test_expired_lease_is_stolen(tmp_path):
    queue = _queue(tmp_path, [_job()])
    [key] = queue.order
    assert queue.try_claim(key, "w1", lease_s=0.0)
    # Zero-duration lease: already expired, so a second worker wins.
    assert queue.state(key) == PENDING
    assert queue.try_claim(key, "w2", lease_s=60.0)
    assert queue.lease(key)["worker"] == "w2"


def test_dead_local_workers_lease_is_stolen(tmp_path):
    queue = _queue(tmp_path, [_job()])
    [key] = queue.order
    # A worker id naming a dead pid on *this* host: provably stale.
    child = multiprocessing.get_context("fork").Process(target=lambda: None)
    child.start()
    dead_pid = child.pid
    child.join()
    import socket

    assert queue.try_claim(key, f"{socket.gethostname()}-{dead_pid}-w0",
                           lease_s=3600.0)
    assert queue.state(key) == PENDING
    assert queue.try_claim(key, "w2", lease_s=60.0)


def test_remote_workers_lease_is_respected(tmp_path):
    queue = _queue(tmp_path, [_job()])
    [key] = queue.order
    # No pid is decodable for a foreign host, so the lease holds until
    # it expires.
    assert queue.try_claim(key, "otherhost.example-99999", lease_s=3600.0)
    assert queue.state(key) == LEASED
    assert not queue.try_claim(key, "w2", lease_s=60.0)


def test_claim_follows_submission_order(tmp_path):
    jobs = [_job(work=work) for work in (10, 20, 30)]
    queue = _queue(tmp_path, jobs)
    claimed = [queue.claim("w", 60.0)[0] for _ in range(3)]
    assert claimed == queue.order
    assert queue.claim("w", 60.0) is None  # everything leased


# ---------------------------------------------------------------------------
# Manifest: creation, resume, provenance
# ---------------------------------------------------------------------------

def test_ensure_attaches_to_matching_queue(tmp_path):
    job = _job()
    first = _queue(tmp_path, [job])
    again = WorkQueue.ensure(
        tmp_path / "q", name="unit", salt="s",
        model_version=MODEL_VERSION, keys=[job_digest(job, "s")],
    )
    assert again.order == first.order
    assert again.manifest()["spec_digest"] == first.manifest()["spec_digest"]


def test_ensure_refuses_foreign_queue(tmp_path):
    _queue(tmp_path, [_job()])
    with pytest.raises(ConfigError, match="refusing to mix"):
        WorkQueue.ensure(
            tmp_path / "q", name="other", salt="s",
            model_version=MODEL_VERSION,
            keys=[job_digest(_job(work=999), "s")],
        )


def test_attach_requires_a_manifest(tmp_path):
    with pytest.raises(ConfigError):
        WorkQueue.attach(tmp_path / "nothing")


def test_finalize_manifest_folds_states_and_counts(tmp_path):
    jobs = [_job(work=work) for work in (10, 20)]
    queue = _queue(tmp_path, jobs)
    done, pending = queue.order
    queue.complete(done, {"payload": {}, "cached": False,
                          "worker": "w", "wall_s": 0.0})
    manifest = queue.finalize_manifest()
    assert manifest["jobs"][done] == DONE
    assert manifest["jobs"][pending] == PENDING
    assert manifest["counts"][DONE] == 1
    assert manifest["format"] == MANIFEST_FORMAT


def test_note_run_links_ledger_ids_once(tmp_path):
    queue = _queue(tmp_path, [_job()])
    queue.note_run("abc123")
    queue.note_run("abc123")
    queue.note_run("def456")
    assert queue.manifest()["runs"] == ["abc123", "def456"]


# ---------------------------------------------------------------------------
# The worker loop
# ---------------------------------------------------------------------------

def test_worker_loop_drains_queue(tmp_path):
    jobs = [_job(work=work) for work in (10, 20)]
    queue = _queue(tmp_path, jobs)
    stats = worker_loop(queue, "w1")
    assert stats == {"claims": 2, "done": 2, "failed": 0, "cache_hits": 0}
    assert queue.unresolved() == 0
    for key in queue.order:
        record = queue.done_record(key)
        assert record["worker"] == "w1"
        assert record["cached"] is False
        assert record["payload"]["kind"] == "microbench"


def test_worker_loop_serves_and_fills_the_cache(tmp_path):
    job = _job()
    cache = ResultCache(tmp_path / "cache")
    queue = _queue(tmp_path, [job], salt="s")
    first = worker_loop(queue, "w1", cache=cache)
    assert first == {"claims": 1, "done": 1, "failed": 0, "cache_hits": 0}

    # Same job in a second queue: served from the shared cache.
    [key] = queue.order
    other = WorkQueue.ensure(
        tmp_path / "q2", name="unit", salt="s",
        model_version=MODEL_VERSION, keys=[key],
    )
    other.enqueue(key, job)
    second = worker_loop(other, "w2", cache=cache)
    assert second == {"claims": 1, "done": 0, "failed": 0, "cache_hits": 1}
    assert other.done_record(key)["cached"] is True
    assert (other.done_record(key)["payload"]
            == queue.done_record(key)["payload"])


def test_worker_loop_records_structured_failures(tmp_path, monkeypatch):
    queue = _queue(tmp_path, [_job()])

    def _boom(job, collect_metrics, check_invariants):
        raise ValueError("injected fault")

    from repro.harness import sweep as sweep_mod

    monkeypatch.setattr(sweep_mod, "_execute_job", _boom)
    stats = worker_loop(queue, "w1")
    assert stats["failed"] == 1
    [key] = queue.order
    assert queue.state(key) == FAILED
    record = queue.failure(key)
    assert record["error"] == "ValueError: injected fault"
    assert record["error_type"] == "ValueError"
    assert record["worker"] == "w1"


def test_worker_loop_max_jobs_makes_a_partial_drain(tmp_path):
    jobs = [_job(work=work) for work in (10, 20, 30)]
    queue = _queue(tmp_path, jobs)
    partial = worker_loop(queue, "w1", max_jobs=2)
    assert partial["claims"] == 2
    assert queue.unresolved() == 1
    rest = worker_loop(queue, "w2")
    assert rest["done"] == 1
    assert queue.unresolved() == 0


# ---------------------------------------------------------------------------
# Standalone workers over a queue tree
# ---------------------------------------------------------------------------

def test_find_queues_discovers_root_and_children(tmp_path):
    job = _job()
    key = job_digest(job, "s")
    for name in ("a", "b"):
        child = WorkQueue.ensure(
            tmp_path / name, name=name, salt="s",
            model_version=MODEL_VERSION, keys=[key],
        )
        child.enqueue(key, job)
    (tmp_path / "noise").mkdir()
    roots = [queue.root for queue in find_queues(tmp_path)]
    assert roots == [tmp_path / "a", tmp_path / "b"]


def test_drain_queue_tree_resolves_every_queue(tmp_path):
    job_a, job_b = _job(work=10), _job(work=20)
    for name, job in (("a", job_a), ("b", job_b)):
        key = job_digest(job, "s")
        child = WorkQueue.ensure(
            tmp_path / name, name=name, salt="s",
            model_version=MODEL_VERSION, keys=[key],
        )
        child.enqueue(key, job)
    seen = []
    totals = coordinator.drain_queue_tree(
        tmp_path, "w1", cache=None, on_queue=lambda q: seen.append(q.root),
    )
    assert totals["queues"] == 2
    assert totals["done"] == 2
    assert totals["failed"] == 0
    assert seen == [tmp_path / "a", tmp_path / "b"]
    for queue in find_queues(tmp_path):
        assert queue.unresolved() == 0


# ---------------------------------------------------------------------------
# Concurrent claims
# ---------------------------------------------------------------------------

def _claim_everything(root, worker, barrier, results):
    queue = WorkQueue.attach(root)
    barrier.wait(timeout=30)
    claimed = []
    while (got := queue.claim(worker, 60.0)) is not None:
        claimed.append(got[0])
    results.put(claimed)


def test_workers_released_together_never_double_claim(tmp_path):
    # Four workers start claiming a fresh queue at the same instant.
    # A claim must be atomic: each job is claimed by exactly one of
    # them, never stolen as a half-written ("torn") lease.
    context = multiprocessing.get_context("fork")
    for trial in range(20):
        queue = _queue(tmp_path / str(trial),
                       [_job(work=work) for work in (10, 20, 30)])
        barrier = context.Barrier(4)
        results = context.Queue()
        procs = [
            context.Process(target=_claim_everything,
                            args=(str(queue.root), f"w{index}", barrier,
                                  results))
            for index in range(4)
        ]
        for proc in procs:
            proc.start()
        claimed = [key for _ in procs for key in results.get(timeout=30)]
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        assert sorted(claimed) == sorted(queue.order), f"trial {trial}"


def test_claim_won_after_the_job_finished_is_dropped(tmp_path):
    # A worker that saw the job pending, then lost the CPU while a peer
    # claimed, ran and completed it, finds no lease left to collide
    # with.  Its claim must still fail, or the job runs twice.
    queue = _queue(tmp_path, [_job(work=10)])
    [key] = queue.order
    assert queue.try_claim(key, "first", 60.0)
    queue.complete(key, {"payload": {}, "cached": False,
                         "worker": "first", "wall_s": 0.0})
    assert not queue.try_claim(key, "second", 60.0)
    assert queue.lease(key) is None
    assert queue.state(key) == DONE
