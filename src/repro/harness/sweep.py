"""Parallel sweep engine with an on-disk result cache.

Every figure of the paper's evaluation (section V) is a grid of
*independent* simulator runs, and every run is bit-for-bit
deterministic (see ``docs/MODEL.md``).  That combination makes the
sweep layer embarrassingly parallel and perfectly cacheable:

* a :class:`SweepSpec` is a declarative list of :class:`SweepJob`
  entries (a microbenchmark measurement or a timed application run);
* a :class:`SweepEngine` executes the unique jobs of a sweep on a
  ``multiprocessing`` worker pool (``jobs=1`` stays in-process) and
  returns outcomes **in submission order**, regardless of completion
  order, so serial and parallel execution produce identical figures;
* results are memoized in a content-addressed JSON cache under
  ``.repro_cache/``, keyed by a :func:`~repro.config.stable_digest` of
  the full job description (:class:`~repro.config.SystemConfig` +
  :class:`~repro.workloads.microbench.MicrobenchSpec` +
  :class:`~repro.harness.experiment.MeasureWindow` + application
  parameters) salted with :data:`MODEL_VERSION`, so repeated figure
  runs and CI are near-instant and a model change invalidates
  everything at once;
* parallel execution is coordinated through a durable on-disk work
  queue (:mod:`repro.harness.coordinator`): worker *processes* claim
  jobs by atomic lease files, report job starts to the supervising
  engine, and write result records the engine harvests.  A worker
  that hangs past ``timeout_s`` (measured from when the job actually
  *started*, never from submission) is killed and replaced, so one
  stuck job cannot silently serialize the sweep; a worker that dies
  or raises is retried up to ``retries`` times and then **falls back
  to in-process execution**;
* a job that fails deterministically (the fallback raises too) becomes
  a structured *failure outcome* -- ``JobOutcome.error`` is set, the
  queue records the ``failed`` state, and every other job's result is
  preserved -- so a sweep always completes and never loses finished
  work;
* pointing the engine at a persistent ``queue_dir`` makes sweeps
  **interruptible and resumable**: completed jobs persist as queue
  records, independently launched ``repro sweep-worker --queue DIR``
  processes (or other hosts sharing the directory) drain the same
  queue, and a re-run executes only the missing jobs while producing
  bit-for-bit identical outcomes.

Baselines are ordinary jobs: :func:`baseline_job` derives the
single-thread on-demand DRAM run that normalizes a measurement, and
the engine's key-level deduplication runs each distinct baseline once
per sweep (and zero times when warm in the cache).  This replaces the
process-unsafe module-level baseline singleton the harness used to
rely on.

Execution statistics flow through :class:`repro.sim.trace.ProbeSet`
counters (``sweep-cache-hit``, ``sweep-cache-miss``, ``sweep-sim``,
``sweep-retry``, ``sweep-fallback``, ``sweep-failed``,
``sweep-respawn``, ``sweep-queue-hit``) and a ``sweep-job-wall-ns``
latency probe, so benchmarks can assert cache behavior and speedup.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_mod
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.config import (
    AccessMechanism,
    BackingStore,
    DeviceConfig,
    KernelQueueConfig,
    OnboardDramConfig,
    PcieConfig,
    SwqConfig,
    SystemConfig,
    stable_digest,
    to_jsonable,
)
from repro.errors import ConfigError
from repro.harness import coordinator
from repro.harness.applications import run_application
from repro.harness.experiment import MeasureWindow, run_microbench
from repro.harness.service import ServiceParams, run_service
from repro.sim import collect_kernel_stats
from repro.sim.trace import ProbeSet
from repro.units import NS_PER_S
from repro.workloads.microbench import MicrobenchSpec

__all__ = [
    "MODEL_VERSION",
    "SweepJob",
    "SweepSpec",
    "JobOutcome",
    "ResultCache",
    "SweepEngine",
    "baseline_job",
    "job_digest",
]

#: Cache salt: bump whenever a model change alters simulator outputs
#: *or the payload schema*, so every previously cached sweep result is
#: invalidated at once.  "2": payloads grew per-job ``kernel_stats``.
#: "3": registry latency snapshots became window-aware (p50/p99 now
#: exclude warmup, p999/jitter added) and the service job kind landed.
#: "4": calendar-queue scheduler -- simulation outputs are bit-for-bit
#: unchanged, but the per-job ``kernel_stats`` payload gained the
#: scheduler counter schema (spills, migrations, batch histogram).
#: "5": request-scoped latency attribution -- ``ServiceParams`` grew a
#: ``spans`` flag (changing service job digests) and span-enabled
#: service payloads carry the attribution table + exemplar span trees.
#: "6": the timed tier is one heap again -- simulation outputs are
#: bit-for-bit unchanged, but ``kernel_stats`` lost the scheduler
#: counters.
#: "7": queue plumbing runs as event callbacks -- simulation outputs are
#: bit-for-bit unchanged, but ``kernel_stats`` values change (fewer
#: events fired, run-queue bypasses, process resumes and spawns; the
#: same heap pushes), and a span-enabled service payload whose window
#: saw no completion now attributes 0 requests.
MODEL_VERSION = "7"


@dataclass(frozen=True)
class SweepJob:
    """One independent simulator run inside a sweep.

    Either a windowed microbenchmark measurement (``spec`` + ``window``),
    a run-to-completion application study (``app`` + ``params``), or an
    open-loop service measurement (``service`` + ``window``).
    ``label`` is an opaque tag threaded through to the outcome for the
    caller's bookkeeping; it is never part of the cache key.
    """

    config: SystemConfig
    spec: Optional[MicrobenchSpec] = None
    window: Optional[MeasureWindow] = None
    app: Optional[str] = None
    params: object = None
    service: Optional[ServiceParams] = None
    label: object = None

    def __post_init__(self) -> None:
        if self.service is not None:
            if self.spec is not None or self.app is not None:
                raise ConfigError("a service job takes no spec/app")
            if self.window is None:
                object.__setattr__(self, "window", MeasureWindow())
        elif self.app is None:
            if self.spec is None:
                raise ConfigError("a microbench job needs a MicrobenchSpec")
            if self.window is None:
                object.__setattr__(self, "window", MeasureWindow())
        elif self.spec is not None or self.window is not None:
            raise ConfigError("an application job takes no spec/window")

    @property
    def kind(self) -> str:
        if self.service is not None:
            return "service"
        return "application" if self.app is not None else "microbench"

    def describe(self) -> str:
        if self.service is not None:
            arrivals = self.service.open_loop.arrivals
            target = (
                f"service {arrivals.kind.value} "
                f"{arrivals.rate_per_us:g}/us/core"
            )
        elif self.app is not None:
            target = self.app
        else:
            target = f"microbench work={self.spec.work_count}"
        return f"{target} on {self.config.describe()}"


@dataclass
class SweepSpec:
    """A named, ordered list of sweep jobs (one figure grid, say)."""

    name: str = "sweep"
    jobs: list[SweepJob] = field(default_factory=list)

    def add(self, job: SweepJob) -> SweepJob:
        self.jobs.append(job)
        return job

    def __len__(self) -> int:
        return len(self.jobs)


@dataclass(frozen=True)
class JobOutcome:
    """One executed (or cache-served) job, in submission order.

    ``error`` is None for a successful job; for a job that failed
    deterministically (every retry and the in-process fallback raised)
    it carries the ``"ErrorType: message"`` string and ``payload`` is
    the structured failure record (``{"kind": "failure", ...}``).
    """

    job: SweepJob
    key: str
    payload: dict
    cached: bool
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def job_digest(job: SweepJob, salt: str = MODEL_VERSION) -> str:
    """Content-addressed cache key of ``job`` (label excluded)."""
    return stable_digest(
        salt,
        job.kind,
        job.config,
        job.spec,
        job.window,
        job.app,
        job.params,
        job.service,
    )


def baseline_job(job: SweepJob) -> SweepJob:
    """The single-thread on-demand DRAM run that normalizes ``job``.

    Mirrors the measurement protocol of section IV-C: same CPU, cache,
    uncore, and DRAM parameters; one thread on one core; plain loads
    from host DRAM.  For microbenchmarks the baseline keeps every spec
    field the baseline run consumes -- work-count, MLP ("normalized to
    the DRAM baseline with a matching degree of MLP", section V-B),
    and the per-thread working-set size.

    Parameters of paths the DRAM baseline never exercises (the device,
    PCIe, SWQ, and kernel-queue configs) are canonicalized to their
    defaults, so a latency sweep shares one baseline run instead of
    re-simulating an identical baseline per device latency.
    """
    if job.service is not None:
        raise ConfigError(
            "service jobs report absolute SLO latencies; there is no "
            "normalizing baseline to derive"
        )
    config = job.config.replace(
        cores=1,
        threads_per_core=1,
        mechanism=AccessMechanism.ON_DEMAND,
        backing=BackingStore.DRAM,
        device=DeviceConfig(),
        pcie=PcieConfig(),
        onboard_dram=OnboardDramConfig(),
        swq=SwqConfig(),
        kernel_queue=KernelQueueConfig(),
    )
    if job.app is not None:
        return SweepJob(config=config, app=job.app, params=job.params)
    spec = MicrobenchSpec(
        work_count=job.spec.work_count,
        reads_per_batch=job.spec.reads_per_batch,
        lines_per_thread=job.spec.lines_per_thread,
    )
    return SweepJob(config=config, spec=spec, window=job.window)


def _execute_job(
    job: SweepJob,
    collect_metrics: bool = False,
    check_invariants: bool = False,
) -> dict:
    """Run one job to a small JSON-able payload (worker entry point).

    Kernel counters are collected around the run and shipped in the
    payload (``"kernel_stats"``), so the parent can report simulator
    throughput even for work done in worker processes.
    """
    with collect_kernel_stats() as kernel:
        if job.service is not None:
            service_run = run_service(
                job.config,
                job.service,
                job.window,
                collect_metrics=collect_metrics,
                check_invariants=check_invariants,
            )
            payload = {"kind": "service", **service_run.payload()}
            if collect_metrics:
                payload["metrics"] = service_run.report["metrics"]
        elif job.app is not None:
            run = run_application(
                job.config,
                job.app,
                job.params,
                check_invariants=check_invariants,
            )
            payload = {
                "kind": "application",
                "ticks": run.ticks,
                "operations": run.operations,
            }
        else:
            result = run_microbench(
                job.config,
                job.spec,
                job.window,
                collect_metrics=collect_metrics,
                check_invariants=check_invariants,
            )
            stats = result.stats
            payload = {
                "kind": "microbench",
                "work_ipc": stats.work_ipc,
                "accesses": stats.accesses,
                "ticks": stats.ticks,
                "work_instructions": stats.work_instructions,
                "cycles": stats.cycles,
            }
            if collect_metrics:
                payload["metrics"] = result.report["metrics"]
    payload["kernel_stats"] = kernel.stats()
    return payload


def _failure_payload(error_text: str, error_type: str, worker: str) -> dict:
    """The structured payload a deterministically failing job yields."""
    return {
        "kind": "failure",
        "error": error_text,
        "error_type": error_type,
        "worker": worker,
    }


class ResultCache:
    """Content-addressed on-disk cache: one JSON file per job key.

    Layout: ``<root>/<sha256>.json`` holding the format tag, the key,
    the salt, the canonical job description (for humans debugging a
    cache), and the result payload.  Writes go through a temp file +
    ``os.replace`` so readers never see a torn entry; every filesystem
    error degrades to a cache miss -- the cache is best-effort, never
    load-bearing for correctness.
    """

    FORMAT = "repro-sweep-cache-v1"

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[dict]:
        try:
            with open(self.path(key)) as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if entry.get("format") != self.FORMAT or entry.get("key") != key:
            return None
        result = entry.get("result")
        return result if isinstance(result, dict) else None

    def store(self, key: str, job: SweepJob, salt: str, result: dict) -> None:
        entry = {
            "format": self.FORMAT,
            "key": key,
            "model_version": salt,
            "job": to_jsonable(
                {
                    "kind": job.kind,
                    "config": job.config,
                    "spec": job.spec,
                    "window": job.window,
                    "app": job.app,
                    "params": job.params,
                    "service": job.service,
                }
            ),
            "result": result,
        }
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = self.path(key).with_suffix(f".tmp.{os.getpid()}")
            with open(tmp, "w") as handle:
                json.dump(entry, handle, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, self.path(key))
        except OSError:
            pass


class SweepEngine:
    """Executes sweeps on worker processes, memoizing results on disk.

    ``jobs`` is the worker-process count (1 = in-process, serial).
    Parallel execution goes through a :class:`~repro.harness
    .coordinator.WorkQueue` (a throwaway one unless ``queue_dir`` is
    set): workers claim jobs by lease, and the engine supervises them
    with per-job deadlines measured from the *observed job start* --
    time spent waiting for a free worker never counts against
    ``timeout_s``.  A hung worker is killed and replaced (restoring
    pool concurrency), a worker exception or crash is retried up to
    ``retries`` times and then falls back to in-process execution, and
    a job whose fallback also raises becomes a structured failure
    outcome instead of abandoning the sweep.  Outcomes are always
    returned in submission order -- results are deterministic for any
    ``jobs``.

    With a persistent ``queue_dir`` the sweep is interruptible and
    resumable: every completed job's record survives in
    ``queue_dir/<name>-<spec digest>/`` alongside an experiment
    manifest, a re-run executes only unresolved jobs, and
    independently launched ``repro sweep-worker --queue DIR``
    processes share the work.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Union[str, os.PathLike, None] = ".repro_cache",
        use_cache: bool = True,
        salt: str = MODEL_VERSION,
        timeout_s: float = 900.0,
        retries: int = 1,
        probes: Optional[ProbeSet] = None,
        collect_metrics: bool = False,
        check_invariants: bool = False,
        progress=None,
        queue_dir: Union[str, os.PathLike, None] = None,
        lease_s: float = coordinator.DEFAULT_LEASE_S,
    ) -> None:
        if jobs < 1:
            raise ConfigError("the sweep engine needs at least one worker")
        if retries < 0:
            raise ConfigError("retries cannot be negative")
        if not timeout_s > 0:
            raise ConfigError("the per-job timeout must be positive")
        if not lease_s > 0:
            raise ConfigError("the queue lease duration must be positive")
        self.jobs = jobs
        self.queue_dir = queue_dir
        self.lease_s = lease_s
        self.collect_metrics = bool(collect_metrics)
        self.check_invariants = bool(check_invariants)
        #: Optional :class:`repro.harness.progress.SweepProgress` (or
        #: anything with its begin/job_done/heartbeat/finish hooks).
        self.progress = progress
        # Metrics and invariants change the payload (metrics add a
        # snapshot; a monitored run's kernel counters include the watch
        # process), so such results must never share cache entries with
        # plain ones: salt them into disjoint key spaces.  A cached
        # ``+inv`` entry was invariant-checked when first simulated;
        # serving it from cache legitimately skips the re-check.
        self.salt = (
            str(salt)
            + ("+metrics" if collect_metrics else "")
            + ("+inv" if check_invariants else "")
        )
        self.timeout_s = timeout_s
        self.retries = retries
        self.probes = probes if probes is not None else ProbeSet()
        self.cache = (
            ResultCache(cache_dir) if use_cache and cache_dir else None
        )
        #: Summary of the most recent :meth:`run` (see below).
        self.last_stats: dict = {}

    @classmethod
    def from_env(cls, environ: Optional[dict] = None) -> "SweepEngine":
        """Engine configured from ``REPRO_SWEEP_JOBS`` (worker count),
        ``REPRO_CACHE_DIR`` (cache root), ``REPRO_NO_CACHE`` (any
        non-empty value disables the on-disk cache),
        ``REPRO_SWEEP_METRICS`` (any non-empty value adds a registry
        snapshot to every microbench payload),
        ``REPRO_SWEEP_TIMEOUT_S`` (per-job deadline, measured from the
        observed job start) and ``REPRO_SWEEP_RETRIES`` (worker-side
        attempts before the in-process fallback), so CI and remote
        workers tune failure handling without code changes."""
        env = os.environ if environ is None else environ
        timeout_raw = env.get("REPRO_SWEEP_TIMEOUT_S")
        try:
            timeout_s = float(timeout_raw) if timeout_raw else 900.0
        except ValueError:
            raise ConfigError(
                f"REPRO_SWEEP_TIMEOUT_S={timeout_raw!r} is not a number"
            )
        retries_raw = env.get("REPRO_SWEEP_RETRIES")
        try:
            retries = int(retries_raw) if retries_raw else 1
        except ValueError:
            raise ConfigError(
                f"REPRO_SWEEP_RETRIES={retries_raw!r} is not an integer"
            )
        return cls(
            jobs=int(env.get("REPRO_SWEEP_JOBS", "1") or "1"),
            cache_dir=env.get("REPRO_CACHE_DIR", ".repro_cache"),
            use_cache=not env.get("REPRO_NO_CACHE"),
            collect_metrics=bool(env.get("REPRO_SWEEP_METRICS")),
            timeout_s=timeout_s,
            retries=retries,
        )

    # -- execution -------------------------------------------------------

    def run(
        self, sweep: Union[SweepSpec, Iterable[SweepJob]]
    ) -> list[JobOutcome]:
        """Execute ``sweep``; outcomes are in submission order."""
        if isinstance(sweep, SweepSpec):
            name, jobs = sweep.name, list(sweep.jobs)
        else:
            name, jobs = "sweep", list(sweep)
        started = time.perf_counter()
        keys = [job_digest(job, self.salt) for job in jobs]

        # Key-level dedup: identical jobs (shared baselines, repeated
        # grid points) simulate at most once per sweep.
        unique: dict[str, SweepJob] = {}
        for key, job in zip(keys, jobs):
            unique.setdefault(key, job)

        queue = (
            self._open_queue(name, list(unique))
            if self.queue_dir is not None
            else None
        )

        # Every resolved key gets a done record {payload, cached,
        # worker, wall_s}; kernel totals below sum the ``cached=False``
        # ones, so an interrupted-then-resumed sweep reports the same
        # simulator totals as an uninterrupted run.
        records: dict[str, dict] = {}
        served_from_cache: set[str] = set()
        queue_served: set[str] = set()
        pending: list[tuple[str, SweepJob]] = []
        for key, job in unique.items():
            record = queue.done_record(key) if queue is not None else None
            if record is not None and isinstance(record.get("payload"), dict):
                # A previous (interrupted) run or a concurrent worker
                # already finished this job; the queue record outranks
                # the cache so resumed totals stay bit-for-bit.
                self.probes.counter("sweep-queue-hit").add()
                records[key] = record
                queue_served.add(key)
                continue
            hit = self.cache.load(key) if self.cache else None
            if hit is not None:
                self.probes.counter("sweep-cache-hit").add()
                record = {
                    "payload": hit,
                    "cached": True,
                    "worker": coordinator.worker_id(),
                    "wall_s": 0.0,
                }
                records[key] = record
                served_from_cache.add(key)
                if queue is not None:
                    queue.complete(key, record)
                continue
            self.probes.counter("sweep-cache-miss").add()
            pending.append((key, job))

        if self.progress is not None:
            self.progress.begin(
                name,
                total=len(pending),
                cache_hits=len(served_from_cache),
                workers=self.jobs,
            )
        failures: dict[str, str] = {}
        counters = {"retries": 0, "fallbacks": 0, "respawns": 0}
        try:
            self._execute(name, pending, queue, records, failures, counters)
        except KeyboardInterrupt:
            # Interrupted mid-sweep: everything harvested so far is
            # already durable in the queue; stamp the manifest so a
            # ``--resume`` (or ``runs show``) sees the partial state.
            self.last_stats = self._summarize(
                name, jobs, unique, served_from_cache, queue_served,
                records, failures, counters, started, queue,
                interrupted=True,
            )
            raise

        if self.cache is not None:
            for key in sorted(queue_served):
                self.cache.store(
                    key, unique[key], self.salt, records[key]["payload"]
                )
            for key, job in pending:
                if key not in failures:
                    self.cache.store(
                        key, job, self.salt, records[key]["payload"]
                    )

        self.probes.counter("sweep-jobs").add(len(jobs))
        self.probes.counter("sweep-sim").add(len(pending))
        self.last_stats = self._summarize(
            name, jobs, unique, served_from_cache, queue_served,
            records, failures, counters, started, queue,
        )
        if self.progress is not None:
            self.progress.finish(self.last_stats)
        return [
            JobOutcome(
                job=job,
                key=key,
                payload=records[key]["payload"],
                cached=key in served_from_cache or key in queue_served,
                error=failures.get(key),
            )
            for job, key in zip(jobs, keys)
        ]

    def stats(self) -> dict:
        """Cumulative engine counters (across every ``run``)."""
        counter = self.probes.counter
        return {
            "jobs": counter("sweep-jobs").total,
            "simulated": counter("sweep-sim").total,
            "cache_hits": counter("sweep-cache-hit").total,
            "cache_misses": counter("sweep-cache-miss").total,
            "queue_hits": counter("sweep-queue-hit").total,
            "retries": counter("sweep-retry").total,
            "fallbacks": counter("sweep-fallback").total,
            "failed": counter("sweep-failed").total,
            "respawns": counter("sweep-respawn").total,
        }

    # -- queue plumbing --------------------------------------------------

    def _open_queue(self, name: str, keys: list[str]) -> coordinator.WorkQueue:
        """Create-or-attach this sweep's persistent queue (one
        subdirectory of ``queue_dir`` per distinct sweep spec) and
        return previously ``failed`` jobs to pending so a resume
        retries them."""
        from repro.obs.runlog import git_sha

        digest = coordinator.spec_digest(name, self.salt, keys)
        root = Path(self.queue_dir) / f"{name}-{digest[:12]}"
        queue = coordinator.WorkQueue.ensure(
            root,
            name=name,
            salt=self.salt,
            model_version=MODEL_VERSION,
            keys=keys,
            collect_metrics=self.collect_metrics,
            check_invariants=self.check_invariants,
            git_sha=git_sha(),
        )
        for key in keys:
            queue.clear_failure(key)
        return queue

    def _summarize(
        self, name, jobs, unique, served_from_cache, queue_served,
        records, failures, counters, started, queue, interrupted=False,
    ) -> dict:
        # Simulator totals for this *experiment*: sum the counters in
        # every non-cache-served record.  Each job executes exactly
        # once across an interrupt+resume pair, so the resumed totals
        # equal an uninterrupted run's.
        kernel_totals: dict[str, int] = {}
        for record in records.values():
            if record.get("cached"):
                continue
            payload = record.get("payload") or {}
            for stat, value in payload.get("kernel_stats", {}).items():
                kernel_totals[stat] = kernel_totals.get(stat, 0) + value
        executed = len(unique) - len(served_from_cache) - len(queue_served)
        stats = {
            "name": name,
            "jobs": len(jobs),
            "unique": len(unique),
            "cache_hits": len(served_from_cache),
            "cache_misses": executed,
            "simulated": executed,
            "queue_served": len(queue_served),
            "retries": counters["retries"],
            "fallbacks": counters["fallbacks"],
            "worker_respawns": counters["respawns"],
            "failed": len(failures),
            "failures": dict(sorted(failures.items())),
            "workers": self.jobs,
            "wall_s": time.perf_counter() - started,
            "kernel_stats": kernel_totals,
        }
        if interrupted:
            stats["interrupted"] = True
        if queue is not None:
            manifest = queue.finalize_manifest()
            stats["queue"] = {
                "dir": str(queue.root),
                "spec_digest": manifest.get("spec_digest"),
                "counts": manifest.get("counts"),
            }
        return stats

    # -- execution strategies --------------------------------------------

    def _execute(
        self, name, pending, queue, records, failures, counters
    ) -> None:
        """Resolve every pending key into ``records`` (and failed ones
        into ``failures``), dispatching on worker count and queue."""
        if not pending:
            return
        if self.jobs > 1 and len(pending) > 1:
            owned_root = None
            if queue is None:
                # No persistent queue requested: parallel runs still
                # coordinate through the same machinery, on a
                # throwaway queue directory.
                owned_root = tempfile.mkdtemp(prefix="repro-sweep-")
                queue = coordinator.WorkQueue.ensure(
                    owned_root,
                    name=name,
                    salt=self.salt,
                    model_version=MODEL_VERSION,
                    keys=[key for key, _job in pending],
                    collect_metrics=self.collect_metrics,
                    check_invariants=self.check_invariants,
                )
            try:
                for key, job in pending:
                    queue.enqueue(key, job)
                self._execute_parallel(
                    queue, pending, records, failures, counters
                )
            finally:
                if owned_root is not None:
                    shutil.rmtree(owned_root, ignore_errors=True)
            return
        if queue is not None:
            for key, job in pending:
                queue.enqueue(key, job)
            self._execute_queue_serial(queue, pending, records, failures)
            return
        self._execute_serial(pending, records, failures)

    def _execute_serial(self, pending, records, failures) -> None:
        """In-process execution (``jobs=1``, no queue directory)."""
        worker = coordinator.worker_id()
        for key, job in pending:
            t0 = time.perf_counter()
            error = None
            try:
                payload = _execute_job(
                    job, self.collect_metrics, self.check_invariants
                )
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                payload = _failure_payload(error, type(exc).__name__, worker)
                failures[key] = error
                self.probes.counter("sweep-failed").add()
            record = {
                "payload": payload,
                "cached": False,
                "worker": worker,
                "wall_s": time.perf_counter() - t0,
            }
            if error is not None:
                record["error"] = error
            records[key] = record
            self._note_done(record, remaining=0)

    def _execute_queue_serial(self, queue, pending, records, failures) -> None:
        """Drain this sweep's jobs in-process through the queue
        (``jobs=1`` with a persistent ``queue_dir``): claims keep
        concurrent standalone workers off our jobs, and done records
        make every completion durable the moment it happens."""
        worker = coordinator.worker_id()
        open_jobs = dict(pending)
        while open_jobs:
            progressed = False
            for key in list(open_jobs):
                record = queue.done_record(key)
                if record is not None and isinstance(
                    record.get("payload"), dict
                ):
                    # A standalone worker sharing the queue finished it.
                    records[key] = record
                    del open_jobs[key]
                    self._note_done(record, remaining=len(open_jobs))
                    progressed = True
                    continue
                if queue.failure(key) is not None:
                    # A standalone worker failed it; this run owns the
                    # final verdict, so retry locally.
                    queue.clear_failure(key)
                if not queue.try_claim(key, worker, self.lease_s):
                    continue  # a live worker holds it; revisit
                record = self._run_inline(
                    queue, key, open_jobs[key], records, failures
                )
                del open_jobs[key]
                self._note_done(record, remaining=len(open_jobs))
                progressed = True
            if open_jobs and not progressed:
                self._note_waiting(queue, active=1)
                time.sleep(0.05)

    def _execute_parallel(
        self, queue, pending, records, failures, counters
    ) -> None:
        """Supervise local worker processes draining the queue.

        Workers report each job's actual start (worker-side monotonic
        stamp), so ``timeout_s`` measures execution, never time spent
        waiting for a free worker.  A worker past the deadline is
        killed and a replacement spawned; a worker failure or crash is
        retried through the queue up to ``retries`` times and then run
        in-process; a job whose fallback also raises is recorded as a
        structured failure.
        """
        context = self._mp_context()
        events = context.Queue()
        base = coordinator.worker_id()
        workers: dict = {}
        all_dead: set = set()
        spawned = 0
        # Backstop against workers that die before claiming anything
        # (broken environment): after this many spawns, finish inline.
        spawn_budget = (
            min(self.jobs, len(pending))
            + len(pending) * (self.retries + 1)
        )

        def spawn() -> None:
            nonlocal spawned
            proc = context.Process(
                target=coordinator._local_worker_main,
                args=(
                    str(queue.root), f"{base}-w{spawned}", events,
                    self.collect_metrics, self.check_invariants,
                    self.lease_s,
                ),
                daemon=True,
            )
            spawned += 1
            proc.start()
            workers[f"{base}-w{spawned - 1}"] = proc

        def resolve_locally(key, entry) -> None:
            """Retries exhausted: the parent runs the job itself."""
            record = self._run_inline(
                queue, key, entry["job"], records, failures, counters
            )
            del state[key]
            self._note_done(record, remaining=len(state))

        state = {
            key: {"job": job, "attempts": 0, "worker": None, "started": None}
            for key, job in pending
        }
        try:
            for _ in range(min(self.jobs, len(state))):
                spawn()
            while state:
                try:
                    while True:
                        event = events.get_nowait()
                        if event[0] == "started" and event[2] in state:
                            entry = state[event[2]]
                            entry["worker"] = event[1]
                            entry["started"] = event[3]
                except queue_mod.Empty:
                    pass
                for name in [
                    n for n, p in workers.items() if not p.is_alive()
                ]:
                    workers.pop(name).join()
                    all_dead.add(name)
                harvested = False
                for key in list(state):
                    entry = state[key]
                    if queue.failure(key) is not None:
                        # The worker moved on already; only the retry
                        # budget decides what happens next.
                        if self._note_retry(counters, entry):
                            queue.clear_failure(key)  # claimable again
                            entry["worker"] = entry["started"] = None
                        else:
                            resolve_locally(key, entry)
                            harvested = True
                        continue
                    if (
                        entry["started"] is not None
                        and time.monotonic() - entry["started"]
                        > self.timeout_s
                    ):
                        # Hung worker: kill it -- a timed-out ticket
                        # must not keep occupying its pool slot.
                        proc = workers.pop(entry["worker"], None)
                        if proc is not None:
                            all_dead.add(entry["worker"])
                            proc.terminate()
                            proc.join(timeout=5.0)
                            if proc.is_alive():  # pragma: no cover
                                proc.kill()
                                proc.join()
                        queue.release(key)
                        entry["worker"] = entry["started"] = None
                        if not self._note_retry(counters, entry):
                            resolve_locally(key, entry)
                            harvested = True
                        continue
                    record = queue.done_record(key)
                    if record is not None and isinstance(
                        record.get("payload"), dict
                    ):
                        records[key] = record
                        del state[key]
                        self._note_done(record, remaining=len(state))
                        harvested = True
                        continue
                    # Crashed worker holding this key?  (The lease
                    # check covers claims whose started event was
                    # still in flight when the worker died.)
                    holder = entry["worker"]
                    if holder is None and all_dead:
                        lease = queue.lease(key)
                        if (
                            lease is not None
                            and lease.get("worker") in all_dead
                        ):
                            holder = lease["worker"]
                    if holder is not None and holder in all_dead:
                        queue.release(key)
                        entry["worker"] = entry["started"] = None
                        if not self._note_retry(counters, entry):
                            resolve_locally(key, entry)
                            harvested = True
                # Respawn to restore the configured concurrency after
                # kills and crashes.
                while (
                    state
                    and len(workers) < min(self.jobs, len(state))
                    and spawned < spawn_budget
                ):
                    spawn()
                    counters["respawns"] += 1
                    self.probes.counter("sweep-respawn").add()
                if not workers and state and spawned >= spawn_budget:
                    for key in list(state):  # pragma: no cover - backstop
                        queue.release(key)
                        resolve_locally(key, state[key])
                    break
                if state and not harvested:
                    self._note_waiting(
                        queue, active=min(self.jobs, len(state))
                    )
                    time.sleep(0.02)
        finally:
            for proc in workers.values():
                proc.terminate()
            for proc in workers.values():
                proc.join()
            # Terminated workers cannot release their own claims, and
            # their lease records embed this parent's (live) pid -- so
            # drop them here, or a resume from this same process would
            # wait out the full lease term.
            prefix = f"{base}-w"
            for key in state:
                lease = queue.lease(key)
                if lease is not None and str(
                    lease.get("worker", "")
                ).startswith(prefix):
                    queue.release(key)
            events.close()

    # -- shared helpers --------------------------------------------------

    def _note_retry(self, counters, entry) -> bool:
        """Account one failed attempt; True if the job goes back to
        the queue, False when retries are exhausted and the caller
        must resolve it in-process."""
        if entry["attempts"] < self.retries:
            entry["attempts"] += 1
            counters["retries"] += 1
            self.probes.counter("sweep-retry").add()
            return True
        counters["fallbacks"] += 1
        self.probes.counter("sweep-fallback").add()
        return False

    def _run_inline(
        self, queue, key, job, records, failures, counters=None
    ) -> dict:
        """Execute ``key`` in this process and resolve it in the queue
        (the serial queue path, and the retries-exhausted fallback).
        A job that raises here becomes a structured failure record --
        never a lost sweep."""
        worker = f"{coordinator.worker_id()}-inline"
        queue.try_claim(key, worker, self.lease_s)
        t0 = time.perf_counter()
        try:
            payload = _execute_job(
                job, self.collect_metrics, self.check_invariants
            )
        except KeyboardInterrupt:
            queue.release(key)
            raise
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            record = {
                "payload": _failure_payload(
                    error, type(exc).__name__, worker
                ),
                "cached": False,
                "worker": worker,
                "wall_s": time.perf_counter() - t0,
                "error": error,
            }
            queue.fail(key, coordinator._failure_record(exc, worker))
            failures[key] = error
            records[key] = record
            self.probes.counter("sweep-failed").add()
            return record
        record = {
            "payload": payload,
            "cached": False,
            "worker": worker,
            "wall_s": time.perf_counter() - t0,
        }
        queue.complete(key, record)
        records[key] = record
        return record

    def _note_done(self, record, remaining: int) -> None:
        wall_s = float(record.get("wall_s") or 0.0)
        self.probes.latency("sweep-job-wall-ns").record(
            int(wall_s * NS_PER_S)
        )
        if self.progress is not None:
            active = min(self.jobs, remaining) if self.jobs > 1 else 0
            self.progress.job_done(wall_s, active=active)

    def _note_waiting(self, queue, active: int) -> None:
        if self.progress is None:
            return
        self.progress.heartbeat(active=active)
        snapshot = getattr(self.progress, "queue_snapshot", None)
        if snapshot is not None and queue is not None:
            snapshot(queue.counts())

    @staticmethod
    def _mp_context():
        """A fork context where available (cheap, inherits the loaded
        model -- and monkeypatches, which the fault-injection tests
        rely on), else the platform default."""
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        return multiprocessing.get_context(method)
