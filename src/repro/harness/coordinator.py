"""Distributed, resumable sweep coordination over a shared directory.

The sweep engine (:mod:`repro.harness.sweep`) executes independent,
deterministic, content-addressed jobs -- which makes sweep *state*
as cacheable as sweep *results*.  This module turns that observation
into a durable on-disk work queue:

* a :class:`WorkQueue` is a directory holding one sweep's jobs, keyed
  by :func:`~repro.harness.sweep.job_digest`.  Each job is in exactly
  one state -- ``pending`` (job file, no markers), ``leased`` (a live
  worker holds ``leases/<key>.json``), ``done`` (``done/<key>.json``
  carries the result payload) or ``failed`` (``failed/<key>.json``
  carries a structured error);
* claims are arbitrated by publishing a fully written lease file with
  ``os.link``, which fails if a lease already exists, so any number of
  worker processes -- spawned by the engine, launched by hand via
  ``repro sweep-worker --queue DIR``, or running on another host
  against a shared filesystem -- can drain one queue without a
  coordinator process.  Leases expire (``lease_s``), so a job claimed
  by a crashed worker returns to ``pending`` and is re-claimed; jobs
  are idempotent and results content-addressed, so the benign race of
  two workers stealing the same stale lease writes the same record
  twice.  Each lease names its holder and its claim time, which is all
  the sweep engine needs to supervise its own workers;
* every queue carries an **experiment manifest** (``manifest.json``):
  the sweep's spec digest, salt/:data:`~repro.harness.sweep
  .MODEL_VERSION`, a BENCH-style provenance stamp (git SHA), the job
  keys in submission order with their final states, and the run-ledger
  record ids of every run that touched the queue -- the CORTEX-style
  versioned experiment record the ROADMAP asks for.

Interrupting a sweep (SIGINT, worker kill, power loss) loses at most
the in-flight jobs: ``done`` records persist, and a resumed sweep
(``repro figure FIG --resume``) re-enters the queue, executes only the
missing jobs, and reassembles outcomes bit-for-bit identical to an
uninterrupted run.

Wall-clock use here is deliberate and host-side only (lease expiry,
worker polling); nothing in this module feeds simulated time.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import time
from pathlib import Path
from typing import Callable, Optional, Union

from repro.config import from_jsonable, stable_digest, to_jsonable
from repro.errors import ConfigError

__all__ = [
    "MANIFEST_FORMAT",
    "PENDING",
    "LEASED",
    "DONE",
    "FAILED",
    "WorkQueue",
    "job_to_jsonable",
    "job_from_jsonable",
    "worker_id",
    "run_claimed",
    "worker_loop",
    "drain_queue_tree",
    "find_queues",
]

#: Manifest schema tag; readers reject queues they cannot interpret.
MANIFEST_FORMAT = "repro-sweep-manifest-v1"

#: Job states (the strings stored in manifests and reported by CLIs).
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"

#: Default lease duration: generous enough for the slowest full-scale
#: job, short enough that a crashed host's jobs recirculate within a
#: long sweep's lifetime.  The engine supervises its *local* workers
#: more tightly (``timeout_s`` from the lease's claim time), and their
#: leases last ``timeout_s`` longer, so its kill always comes first.
DEFAULT_LEASE_S = 900.0


# ---------------------------------------------------------------------------
# Job (de)serialization
# ---------------------------------------------------------------------------

def _param_types() -> dict:
    """Registry of application-parameter dataclasses by class name.

    ``SweepJob.params`` is typed ``object`` (each application brings
    its own frozen params class), so the JSON form records the class
    name and this registry resolves it back.
    """
    from repro.harness.applications import MicrobenchAppParams
    from repro.workloads.bfs import BfsParams
    from repro.workloads.bloom import BloomParams
    from repro.workloads.memcached import MemcachedParams

    return {
        cls.__name__: cls
        for cls in (
            BfsParams, BloomParams, MemcachedParams, MicrobenchAppParams
        )
    }


def job_to_jsonable(job) -> dict:
    """The JSON-able description of ``job``: its identity.

    The one encoding of a job: :func:`~repro.harness.sweep.job_digest`
    hashes it, the result cache stores it beside each payload, and a
    queue's job file carries it (observation options included) to the
    workers.  ``label`` is caller-side bookkeeping and deliberately
    dropped.
    """
    data = {
        "kind": job.kind,
        "config": to_jsonable(job.config),
        "spec": to_jsonable(job.spec),
        "window": to_jsonable(job.window),
        "app": job.app,
        "params": to_jsonable(job.params),
        "service": to_jsonable(job.service),
        "collect_metrics": job.collect_metrics,
        "check_invariants": job.check_invariants,
    }
    if job.params is not None:
        data["params_type"] = type(job.params).__name__
    return data


def job_from_jsonable(data: dict):
    """Rebuild an executable :class:`~repro.harness.sweep.SweepJob`
    from its on-disk JSON description (inverse of
    :func:`job_to_jsonable`)."""
    from repro.harness.experiment import MeasureWindow
    from repro.harness.service import ServiceParams
    from repro.harness.sweep import SweepJob
    from repro.config import SystemConfig
    from repro.workloads.microbench import MicrobenchSpec

    params = None
    if data.get("params") is not None:
        type_name = data.get("params_type")
        params_cls = _param_types().get(type_name)
        if params_cls is None:
            raise ConfigError(
                f"queued job has unknown params type {type_name!r}"
            )
        params = from_jsonable(params_cls, data["params"])
    return SweepJob(
        config=from_jsonable(SystemConfig, data["config"]),
        spec=from_jsonable(Optional[MicrobenchSpec], data.get("spec")),
        window=from_jsonable(Optional[MeasureWindow], data.get("window")),
        app=data.get("app"),
        params=params,
        service=from_jsonable(Optional[ServiceParams], data.get("service")),
        collect_metrics=bool(data.get("collect_metrics")),
        check_invariants=bool(data.get("check_invariants")),
    )


def spec_digest(name: str, salt: str, keys: list[str]) -> str:
    """Content digest identifying one sweep: its name, engine salt,
    and job keys in submission order."""
    return stable_digest("sweep-spec", name, salt, list(keys))


def worker_id() -> str:
    """A host-unique worker name (hostname + pid)."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _worker_alive(worker) -> Optional[bool]:
    """Liveness of a ``hostname-pid[...]`` worker id: True/False when
    the embedded pid is on this host, None when the worker is remote
    (unknowable from here).

    Engine-spawned workers are named ``<hostname>-<parent pid>-wN``,
    so the pid probed is the coordinating process; when a sweep is
    interrupted hard (SIGKILL, terminated worker pool) its leases
    become steal-able immediately instead of after the full lease
    term.  A recycled pid can make a dead worker look alive; the
    lease expiry still bounds that window.
    """
    text = str(worker)
    prefix = f"{socket.gethostname()}-"
    if not text.startswith(prefix):
        return None
    digits = ""
    for char in text[len(prefix):]:
        if not char.isdigit():
            break
        digits += char
    if not digits:
        return None
    try:
        os.kill(int(digits), 0)
    except ProcessLookupError:
        return False
    except OSError:
        return None
    return True


# ---------------------------------------------------------------------------
# Atomic JSON files
# ---------------------------------------------------------------------------

def _write_json(path: Path, payload: dict, publish=os.replace) -> None:
    """Write ``payload`` atomically: to a temp file, then ``publish``
    it at ``path``.  ``os.replace`` (the default) swaps the record in,
    so a reader never observes a torn record and a crashed writer
    leaves the previous state intact; ``os.link`` instead raises
    ``FileExistsError`` rather than replace an existing file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    with open(tmp, "w") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
    try:
        publish(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _lease_record(worker: str, lease_s: float) -> dict:
    now = time.time()
    return {"worker": worker, "acquired_at": now, "expires_at": now + lease_s}


def _read_json(path: Path) -> Optional[dict]:
    try:
        with open(path) as handle:
            loaded = json.load(handle)
    except (OSError, ValueError):
        return None
    return loaded if isinstance(loaded, dict) else None


# ---------------------------------------------------------------------------
# The work queue
# ---------------------------------------------------------------------------

class WorkQueue:
    """One sweep's durable job queue in a (possibly shared) directory.

    Layout::

        <root>/manifest.json     # spec digest, provenance, job order
        <root>/jobs/<key>.json   # executable job description
        <root>/leases/<key>.json # live claim (worker id + expiry)
        <root>/done/<key>.json   # result record (payload, worker, wall)
        <root>/failed/<key>.json # structured error record

    All state transitions are single atomic filesystem operations, so
    concurrent workers -- including workers on other hosts sharing the
    directory -- never corrupt the queue.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        self.manifest_path = self.root / "manifest.json"
        self.jobs_dir = self.root / "jobs"
        self.leases_dir = self.root / "leases"
        self.done_dir = self.root / "done"
        self.failed_dir = self.root / "failed"
        self._order: list[str] = []

    # -- creation / attachment --------------------------------------------

    @classmethod
    def ensure(
        cls,
        root: Union[str, os.PathLike],
        *,
        name: str,
        salt: str,
        model_version: str,
        keys: list[str],
        git_sha: Optional[str] = None,
    ) -> "WorkQueue":
        """Create the queue for this sweep, or attach to an existing
        one (resume).  Attaching to a queue built for a *different*
        sweep (mismatched spec digest) is a :class:`ConfigError` --
        a queue directory versions exactly one experiment."""
        queue = cls(root)
        digest = spec_digest(name, salt, keys)
        existing = _read_json(queue.manifest_path)
        if existing is not None:
            if existing.get("format") != MANIFEST_FORMAT:
                raise ConfigError(
                    f"{queue.manifest_path} is not a sweep manifest"
                )
            if existing.get("spec_digest") != digest:
                raise ConfigError(
                    f"queue {queue.root} holds sweep "
                    f"{existing.get('name')!r} (spec "
                    f"{str(existing.get('spec_digest'))[:12]}); refusing to "
                    f"mix it with sweep {name!r} (spec {digest[:12]})"
                )
            queue._order = [str(key) for key in existing.get("order", keys)]
            return queue
        queue._order = list(keys)
        for sub in (queue.jobs_dir, queue.leases_dir,
                    queue.done_dir, queue.failed_dir):
            sub.mkdir(parents=True, exist_ok=True)
        _write_json(queue.manifest_path, {
            "format": MANIFEST_FORMAT,
            "name": name,
            "spec_digest": digest,
            "salt": salt,
            "model_version": model_version,
            "git_sha": git_sha,
            # Host-side provenance stamp, never fed into the model.
            "created_at": time.time(),
            "order": list(keys),
            "jobs": {key: PENDING for key in keys},
            "runs": [],
        })
        return queue

    @classmethod
    def attach(cls, root: Union[str, os.PathLike]) -> "WorkQueue":
        """Open an existing queue (standalone workers use this)."""
        queue = cls(root)
        manifest = queue.manifest()
        queue._order = [str(key) for key in manifest.get("order", [])]
        return queue

    def manifest(self) -> dict:
        manifest = _read_json(self.manifest_path)
        if manifest is None or manifest.get("format") != MANIFEST_FORMAT:
            raise ConfigError(
                f"no sweep manifest at {self.manifest_path}"
            )
        return manifest

    @property
    def order(self) -> list[str]:
        if not self._order:
            self._order = [
                str(key) for key in self.manifest().get("order", [])
            ]
        return self._order

    # -- per-key state -----------------------------------------------------

    def job_path(self, key: str) -> Path:
        return self.jobs_dir / f"{key}.json"

    def enqueue(self, key: str, job) -> None:
        """Idempotently publish ``key``'s executable description."""
        if not self.job_path(key).exists():
            _write_json(self.job_path(key), job_to_jsonable(job))

    def job(self, key: str) -> dict:
        data = _read_json(self.job_path(key))
        if data is None:
            raise ConfigError(f"queue {self.root} has no job {key[:12]}")
        return data

    def lease(self, key: str) -> Optional[dict]:
        """The current lease record, or None.  An expired lease -- or
        one held by a provably dead local worker -- counts as None, so
        crashed holders release their claims without waiting out the
        lease term."""
        record = _read_json(self.leases_dir / f"{key}.json")
        if record is None:
            return None
        if record.get("expires_at", 0.0) <= time.time():
            return None
        if _worker_alive(record.get("worker", "")) is False:
            return None
        return record

    def done_record(self, key: str) -> Optional[dict]:
        return _read_json(self.done_dir / f"{key}.json")

    def failure(self, key: str) -> Optional[dict]:
        return _read_json(self.failed_dir / f"{key}.json")

    def listing(self) -> list[set]:
        """The keys with a ``done/``, a ``failed/`` and a ``leases/``
        file, from one directory read each: a poller opens only the
        records that exist."""
        return [
            {name[:-5] for name in (os.listdir(sub) if sub.is_dir() else ())
             if name.endswith(".json")}
            for sub in (self.done_dir, self.failed_dir, self.leases_dir)
        ]

    def state(self, key: str) -> str:
        if self.done_record(key) is not None:
            return DONE
        if self.failure(key) is not None:
            return FAILED
        if self.lease(key) is not None:
            return LEASED
        return PENDING

    # -- transitions -------------------------------------------------------

    def try_claim(self, key: str, worker: str, lease_s: float) -> bool:
        """Atomically claim ``key``; False if a live lease holds it.

        The lease is written in full to a temp file and published with
        ``os.link``, which fails if any lease exists: no reader ever
        sees a half-written lease, so two claimants of a free job
        cannot both win.  An expired lease (or one held by a dead local
        worker) is stolen with an atomic replace.  Two workers stealing
        the same stale lease can both "win" -- that benign race costs
        one redundant execution of a deterministic job, never a wrong
        result.

        A claim that wins only because the previous holder finished the
        job meanwhile (after the caller checked its state) is dropped
        again: ``complete`` writes the done record before it releases
        the lease, so a done job is never run twice this way.
        """
        path = self.leases_dir / f"{key}.json"
        record = _lease_record(worker, lease_s)
        try:
            _write_json(path, record, publish=os.link)
        except FileExistsError:
            if self.lease(key) is not None:
                return False
            _write_json(path, record)
        except OSError:
            return False
        if self.done_record(key) is not None:
            self.release(key)
            return False
        return True

    def take_over(self, key: str, worker: str) -> None:
        """Claim ``key`` unconditionally.  Only for a job no worker can
        claim meanwhile: a failed one, or one whose lease a dead worker
        of the caller still holds."""
        _write_json(self.leases_dir / f"{key}.json",
                    _lease_record(worker, DEFAULT_LEASE_S))

    def claim(
        self, worker: str, lease_s: float = DEFAULT_LEASE_S
    ) -> Optional[tuple[str, dict]]:
        """Claim the first pending job in submission order, returning
        ``(key, job_description)``, or None if nothing is claimable."""
        for key in self.order:
            if not self.job_path(key).exists():
                continue
            if self.state(key) != PENDING:
                continue
            if self.try_claim(key, worker, lease_s):
                return key, self.job(key)
        return None

    def release(self, key: str) -> None:
        """Drop the lease on ``key`` (job returns to pending)."""
        try:
            os.unlink(self.leases_dir / f"{key}.json")
        except OSError:
            pass

    def complete(self, key: str, record: dict) -> None:
        """Mark ``key`` done.  ``record`` must carry ``payload`` plus
        worker/wall/cached bookkeeping; the lease and any stale failure
        marker are cleared."""
        _write_json(self.done_dir / f"{key}.json", record)
        self.clear_failure(key)
        self.release(key)

    def fail(self, key: str, record: dict) -> None:
        """Mark ``key`` failed with a structured error record."""
        _write_json(self.failed_dir / f"{key}.json", record)
        self.release(key)

    def clear_failure(self, key: str) -> None:
        """Return a failed job to pending (retry / resume)."""
        try:
            os.unlink(self.failed_dir / f"{key}.json")
        except OSError:
            pass

    # -- aggregate views ---------------------------------------------------

    def states(self) -> dict[str, str]:
        """Every job's current state, in submission order."""
        return {key: self.state(key) for key in self.order}

    def counts(self) -> dict[str, int]:
        counts = {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 0}
        for state in self.states().values():
            counts[state] += 1
        return counts

    def unresolved(self) -> int:
        """Jobs not yet done or failed."""
        counts = self.counts()
        return counts[PENDING] + counts[LEASED]

    def finalize_manifest(self) -> dict:
        """Fold the current per-job states (and counts) back into the
        manifest; returns the updated manifest."""
        manifest = self.manifest()
        states = self.states()
        manifest["jobs"] = states
        manifest["counts"] = self.counts()
        _write_json(self.manifest_path, manifest)
        return manifest

    def note_run(self, run_id: str) -> None:
        """Append a run-ledger record id to the manifest's ``runs``
        list, linking the experiment record to its provenance trail."""
        try:
            manifest = self.manifest()
        except ConfigError:
            return
        runs = list(manifest.get("runs", []))
        if run_id not in runs:
            runs.append(run_id)
            manifest["runs"] = runs
            _write_json(self.manifest_path, manifest)


# ---------------------------------------------------------------------------
# The worker loop
# ---------------------------------------------------------------------------

def _failure_record(error: BaseException, worker: str) -> dict:
    return {
        "error": f"{type(error).__name__}: {error}",
        "error_type": type(error).__name__,
        "worker": worker,
    }


def run_claimed(
    queue: WorkQueue,
    key: str,
    job,
    worker: str,
    cache=None,
    salt: str = "",
) -> dict:
    """Resolve the job ``key`` the caller has claimed, and return its
    record ``{payload, cached, worker, wall_s}``.

    ``job`` is the :class:`~repro.harness.sweep.SweepJob` itself, or
    its queued JSON description (rebuilt inside the failure guard).  A
    warm ``cache`` entry completes the job without simulating
    (``cached: true``); otherwise the job executes, completes with its
    fresh payload, and that payload is stored back into ``cache``.  A
    job that raises is ``fail``-ed with its failure record (``error``,
    ``error_type``, ``worker``) instead; the returned record then also
    carries ``error`` and has the payload ``{"kind": "failure",
    **failure record}``.  An interrupt releases the claim.
    """
    from repro.harness import sweep as sweep_mod

    record = {"payload": None, "cached": False, "worker": worker,
              "wall_s": 0.0}
    t0 = time.perf_counter()
    try:
        record["payload"] = cache.load(key) if cache is not None else None
        record["cached"] = record["payload"] is not None
        if not record["cached"]:
            if isinstance(job, dict):
                job = job_from_jsonable(job)
            t0 = time.perf_counter()
            # Resolved through the module so fault-injection tests
            # (and future instrumentation) see one patch point.
            record["payload"] = sweep_mod.run_job(job).payload
            record["wall_s"] = time.perf_counter() - t0
            if cache is not None:
                cache.store(key, job, salt, record["payload"])
    except KeyboardInterrupt:
        queue.release(key)
        raise
    except Exception as error:
        failure = _failure_record(error, worker)
        queue.fail(key, failure)
        record.update(payload={"kind": "failure", **failure},
                      error=failure["error"],
                      wall_s=time.perf_counter() - t0)
        return record
    queue.complete(key, record)
    return record


def worker_loop(
    queue: WorkQueue,
    worker: Optional[str] = None,
    *,
    cache=None,
    salt: Optional[str] = None,
    lease_s: float = DEFAULT_LEASE_S,
    max_jobs: Optional[int] = None,
    poll_s: float = 0.05,
    wait_for_unresolved: bool = False,
    should_stop: Optional[Callable[[], bool]] = None,
) -> dict:
    """Claim-execute-complete until the queue drains.

    This single loop serves three callers: the engine's local worker
    processes (which the engine watches only through their leases and
    records), the standalone ``repro sweep-worker`` subcommand, and
    tests (``max_jobs`` makes a deliberately partial run for
    interrupt/resume scenarios).  Each claimed job goes through
    :func:`run_claimed`, as the engine's in-process jobs do.

    ``cache`` is an optional shared
    :class:`~repro.harness.sweep.ResultCache`: a warm entry is served
    without simulating (recorded ``cached: true``), and fresh payloads
    are stored back for other workers and future sweeps.

    A job whose execution raises is marked ``failed`` with a
    structured error record -- the worker moves on; retry policy
    belongs to the coordinating engine.  Returns this worker's
    counters (claims/done/failed/cache_hits).
    """
    if worker is None:
        worker = worker_id()
    manifest = queue.manifest()
    if salt is None:
        salt = str(manifest.get("salt", ""))
    stats = {"claims": 0, "done": 0, "failed": 0, "cache_hits": 0}
    while max_jobs is None or stats["claims"] < max_jobs:
        if should_stop is not None and should_stop():
            break
        claimed = queue.claim(worker, lease_s)
        if claimed is None:
            if not (wait_for_unresolved and queue.unresolved()):
                break
            time.sleep(poll_s)
            continue
        key, description = claimed
        stats["claims"] += 1
        record = run_claimed(queue, key, description, worker, cache, salt)
        if "error" in record:
            stats["failed"] += 1
        else:
            stats["cache_hits" if record["cached"] else "done"] += 1
    return stats


def _local_worker_main(root: str, worker: str, lease_s: float) -> None:
    """Entry point of the sweep engine's local worker processes.

    Runs :func:`worker_loop` against one queue until every job is
    resolved (``wait_for_unresolved`` keeps the worker alive while
    peers hold leases, so a retried job finds a ready claimant).
    Local workers carry no cache handle: the supervising engine is the
    single cache writer, harvesting done records in the parent.  Their
    ``lease_s`` outlasts the engine's per-job timeout: a hung claim
    must be killed by the engine, not expire and be stolen by an idle
    peer while its worker keeps hanging.
    """
    try:
        worker_loop(
            WorkQueue.attach(root),
            worker,
            lease_s=lease_s,
            poll_s=0.02,
            wait_for_unresolved=True,
        )
    except KeyboardInterrupt:
        # SIGINT reaches the whole process group; the worker's lease
        # was released by run_claimed, so just exit quietly.
        pass


# ---------------------------------------------------------------------------
# Standalone workers over a tree of queues
# ---------------------------------------------------------------------------

def find_queues(root: Union[str, os.PathLike]) -> list[WorkQueue]:
    """Every sweep queue under ``root`` (itself, or any immediate
    subdirectory with a manifest), in sorted-path order."""
    root = Path(root)
    queues = []
    candidates = [root]
    try:
        children = sorted(root.iterdir())
    except OSError:
        children = []
    candidates += [child for child in children if child.is_dir()]
    for candidate in candidates:
        if (candidate / "manifest.json").exists():
            try:
                queues.append(WorkQueue.attach(candidate))
            except ConfigError:
                continue
    return queues


def drain_queue_tree(
    root: Union[str, os.PathLike],
    worker: Optional[str] = None,
    *,
    cache=None,
    lease_s: float = DEFAULT_LEASE_S,
    max_jobs: Optional[int] = None,
    poll_s: float = 0.5,
    watch: bool = False,
    should_stop: Optional[Callable[[], bool]] = None,
    on_queue: Optional[Callable[[WorkQueue], None]] = None,
) -> dict:
    """Drive :func:`worker_loop` over every queue under ``root``.

    Without ``watch``, processes all currently claimable work and
    returns once every discovered queue is resolved.  With ``watch``,
    keeps polling for new queues/jobs until ``should_stop`` fires.
    This is the body of ``repro sweep-worker``.
    """
    if worker is None:
        worker = worker_id()
    totals = {"claims": 0, "done": 0, "failed": 0,
              "cache_hits": 0, "queues": 0}
    seen: set = set()
    budget = max_jobs
    while True:
        queues = find_queues(root)
        for queue in queues:
            if queue.root not in seen:
                seen.add(queue.root)
                totals["queues"] += 1
                if on_queue is not None:
                    on_queue(queue)
            stats = worker_loop(
                queue, worker, cache=cache, lease_s=lease_s,
                max_jobs=budget, poll_s=poll_s,
                should_stop=should_stop,
            )
            for stat in ("claims", "done", "failed", "cache_hits"):
                totals[stat] += stats[stat]
            if budget is not None:
                budget -= stats["claims"]
                if budget <= 0:
                    return totals
        if should_stop is not None and should_stop():
            return totals
        if not watch:
            if all(queue.unresolved() == 0 for queue in queues):
                return totals
        time.sleep(poll_s)
