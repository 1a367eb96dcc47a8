"""Parallel sweep engine with an on-disk result cache.

Every figure of the paper's evaluation (section V) is a grid of
*independent* simulator runs, and every run is bit-for-bit
deterministic (see ``docs/MODEL.md``).  That combination makes the
sweep layer embarrassingly parallel and perfectly cacheable:

* a :class:`SweepJob` is the whole description of one run -- a
  microbenchmark measurement, a timed application run or an open-loop
  service measurement, plus its observation options -- and
  :func:`run_job` is its one runner;
* a :class:`SweepSpec` is a declarative list of :class:`SweepJob`
  entries;
* a :class:`SweepEngine` executes the unique jobs of a sweep through
  one work-queue loop -- on forked worker processes for ``jobs`` > 1,
  in this process for ``jobs=1`` -- and returns outcomes **in
  submission order**, regardless of completion order, so serial and
  parallel execution produce identical figures;
* results are memoized in a content-addressed JSON cache under
  ``.repro_cache/``, keyed by a :func:`~repro.config.stable_digest` of
  the full job description
  (:func:`~repro.harness.coordinator.job_to_jsonable`) salted with
  :data:`MODEL_VERSION`, so repeated figure runs and CI are
  near-instant and a model change invalidates everything at once;
* every sweep runs through an on-disk work queue
  (:mod:`repro.harness.coordinator`), a throwaway one in a temp
  directory unless ``queue_dir`` makes it durable: workers claim jobs
  by atomic lease files and write result records, and the engine
  harvests them, caching each payload as it goes.  A worker whose
  claim is older than ``timeout_s`` (measured from the lease's claim
  time, never from submission) is killed and replaced, so one stuck
  job cannot silently serialize the sweep; a claim that fails or
  whose worker dies is retried up to ``retries`` times and then
  **falls back to in-process execution**;
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
per sweep (and zero times when warm in the cache).  :func:`normalize`
turns a run's payload and its baseline's into the paper's metric.
These two functions are the harness's only baseline rule: the figures
and the direct :func:`normalized` path both go through them.

Execution statistics flow through :class:`repro.sim.trace.ProbeSet`
counters (``sweep-cache-hit``, ``sweep-cache-miss``, ``sweep-sim``,
``sweep-retry``, ``sweep-fallback``, ``sweep-failed``,
``sweep-respawn``, ``sweep-queue-hit``) and a ``sweep-job-wall-ns``
latency probe, so benchmarks can assert cache behavior and speedup.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
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
)
from repro.errors import ConfigError, SimulationError
from repro.harness import coordinator
from repro.harness.applications import install_application
from repro.harness.experiment import MeasureWindow
from repro.harness.service import ServiceParams, service_payload
from repro.host.system import System
from repro.sim import collect_kernel_stats
from repro.sim.trace import ProbeSet
from repro.units import NS_PER_S
from repro.workloads.loadgen import install_service
from repro.workloads.microbench import MicrobenchSpec, install_microbench

__all__ = [
    "MODEL_VERSION",
    "SweepJob",
    "SweepSpec",
    "JobRun",
    "JobOutcome",
    "ResultCache",
    "SweepEngine",
    "baseline_job",
    "job_digest",
    "normalize",
    "normalized",
    "run_job",
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
#: "8": one window rule -- the system's ProbeSet is reset when the
#: measurement window opens.  Simulation outputs are bit-for-bit
#: unchanged, but metrics snapshots lose their ``windowed`` fields and
#: their ProbeSet rows (``work``, ``access_latency``, ``spans.*``) now
#: describe the window; a service window with no completion reports a
#: NaN jitter, like its other sojourn statistics, and a span table's
#: ``per_core`` lists only the cores that completed a request.
MODEL_VERSION = "8"

#: Simulated-time safety limit for one application run.
_RUN_LIMIT_TICKS = 10**12


@dataclass(frozen=True)
class SweepJob:
    """One independent simulator run inside a sweep.

    Either a windowed microbenchmark measurement (``spec`` + ``window``),
    a run-to-completion application study (``app`` + ``params``), or an
    open-loop service measurement (``service`` + ``window``).
    ``label`` is an opaque tag threaded through to the outcome for the
    caller's bookkeeping; it is never part of the cache key.

    The observation options are passive -- simulated results are
    bit-for-bit the same with or without them -- but they change the
    payload, so they are part of the job's identity:
    ``collect_metrics`` adds the system's registry snapshot under
    ``"metrics"``, and ``check_invariants`` runs the online sanitizer
    (:class:`~repro.obs.invariants.InvariantMonitor`), whose watch
    events show in ``kernel_stats``.  A cached invariant-checked
    payload was checked when first simulated; serving it from the cache
    skips the re-check.
    """

    config: SystemConfig
    spec: Optional[MicrobenchSpec] = None
    window: Optional[MeasureWindow] = None
    app: Optional[str] = None
    params: object = None
    service: Optional[ServiceParams] = None
    label: object = None
    collect_metrics: bool = False
    check_invariants: bool = False

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
    return stable_digest(salt, coordinator.job_to_jsonable(job))


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


def normalize(job: SweepJob, run_payload: dict, baseline_payload: dict) -> float:
    """The paper's normalized performance of ``job`` (section IV-C),
    from its payload and that of its :func:`baseline_job`.

    A microbenchmark reports work IPC over the baseline's; an
    application reports per-operation speedup, baseline time per
    operation over the run's, so higher is better for both.
    """
    if job.app is not None:
        baseline_per_op = baseline_payload["ticks"] / baseline_payload["operations"]
        return baseline_per_op / (run_payload["ticks"] / run_payload["operations"])
    baseline_ipc = baseline_payload["work_ipc"]
    if baseline_ipc == 0:
        raise SimulationError(
            "baseline measured zero work IPC for "
            f"{job.config.describe()} (work_count={job.spec.work_count}, "
            f"MLP {job.spec.reads_per_batch}); cannot normalize"
        )
    return run_payload["work_ipc"] / baseline_ipc


@dataclass(frozen=True)
class JobRun:
    """One executed job.

    ``payload`` is what the sweep engine caches: the kind's results
    plus ``kernel_stats`` (and ``metrics`` when the job collects them).
    ``report`` is :meth:`~repro.host.system.System.report`, plus the
    monitor's ``invariants`` summary and the ``metrics`` snapshot when
    the job asks for them.
    """

    job: SweepJob
    payload: dict
    report: dict = field(repr=False)


def run_job(job: SweepJob, tracer=None) -> JobRun:
    """Run ``job`` once: build the system, install the workload, run
    the measurement window (or an application to completion).

    ``tracer`` (a :class:`repro.obs.Tracer`) records a structured
    timeline of the run.  Kernel counters are collected around all of
    it and shipped in the payload (``"kernel_stats"``), so the parent
    can report simulator throughput even for work done in worker
    processes.  A broken conservation law under ``check_invariants``
    raises :class:`~repro.obs.invariants.InvariantViolation`.  The
    system's functional memory is cleared before the call returns or
    raises, so nothing can read it afterwards.
    """
    with collect_kernel_stats() as kernel:
        monitor = None
        if job.check_invariants:
            from repro.obs import InvariantMonitor

            monitor = InvariantMonitor()
            tracer = monitor.tee(tracer)
        system = System(job.config, tracer=tracer)
        try:
            service = job.service
            if service is not None and service.spans:
                from repro.obs import SpanLedger

                # Hang the ledger before the monitor attaches so its
                # checker list includes the span-bookkeeping law.
                system.spans = SpanLedger(
                    system.probes, k_slowest=service.span_exemplars
                )
            if monitor is not None:
                monitor.attach(system)
            threads = job.config.threads_per_core
            if job.app is not None:
                operations = install_application(system, job.app, job.params, threads)
                ticks = system.run_to_completion(limit_ticks=_RUN_LIMIT_TICKS)
                payload = {"kind": "application", "ticks": ticks, "operations": operations}
            elif service is not None:
                state = install_service(
                    system,
                    service.store_params(),
                    service.open_loop,
                    service.workers_per_core,
                )
                stats = system.run_window(job.window.warmup_ticks, job.window.measure_ticks)
                payload = {"kind": "service", **service_payload(service, state, system, stats)}
            else:
                install_microbench(system, job.spec, threads)
                stats = system.run_window(job.window.warmup_ticks, job.window.measure_ticks)
                payload = {
                    "kind": "microbench",
                    "work_ipc": stats.work_ipc,
                    "accesses": stats.accesses,
                    "ticks": stats.ticks,
                    "work_instructions": stats.work_instructions,
                    "cycles": stats.cycles,
                }
            report = system.report()
            if monitor is not None:
                monitor.check_now()
                report["invariants"] = monitor.summary()
            if job.collect_metrics:
                report["metrics"] = payload["metrics"] = system.metrics_snapshot()
        finally:
            # The finished system outlives this call in reference
            # cycles (link receivers, pending events, suspended
            # processes) until the collector's next full pass; emptying
            # its memory frees the job's pages now.
            system.world.clear()
    payload["kernel_stats"] = kernel.stats()
    return JobRun(job, payload, report)


def normalized(job: SweepJob) -> tuple[float, JobRun]:
    """The paper's normalized performance of ``job`` (section IV-C)
    plus its run.

    The baseline is :func:`baseline_job`, which matches the run's
    work-count *and* MLP ("normalized to the DRAM baseline with a
    matching degree of MLP", section V-B) and carries no observation
    option: it runs the same model, so checking it too would only
    double the cost.
    """
    run = run_job(job)
    return normalize(job, run.payload, run_job(baseline_job(job)).payload), run


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
        entry = coordinator._read_json(self.path(key))
        if entry is None or entry.get("format") != self.FORMAT or entry.get("key") != key:
            return None
        result = entry.get("result")
        return result if isinstance(result, dict) else None

    def store(self, key: str, job: SweepJob, salt: str, result: dict) -> None:
        entry = {
            "format": self.FORMAT,
            "key": key,
            "model_version": salt,
            "job": coordinator.job_to_jsonable(job),
            "result": result,
        }
        try:
            coordinator._write_json(self.path(key), entry)
        except OSError:
            pass


def _env_number(env, variable: str, convert, default):
    """``convert(env[variable])``, or ``default`` when unset or empty;
    a malformed value is a :class:`ConfigError` naming the variable."""
    raw = env.get(variable)
    if not raw:
        return default
    try:
        return convert(raw)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ConfigError(f"{variable}={raw!r} is not {kind}") from None


class SweepEngine:
    """Executes sweeps through a work queue, memoizing results on disk.

    Every :meth:`run` opens a :class:`~repro.harness.coordinator
    .WorkQueue` -- the durable one under ``queue_dir``, else a
    throwaway one in a temp directory that the run removes -- and one
    supervisor loop resolves every job.  ``jobs`` > 1 forks that many
    :func:`~repro.harness.coordinator.worker_loop` processes, which the
    engine watches only through the queue: a lease names its holder
    and its claim time, so the per-job ``timeout_s`` never counts time
    spent waiting for a free worker.  A hung worker is killed and
    replaced (restoring pool concurrency); a claim that failed,
    crashed or timed out goes back to the queue up to ``retries``
    times and then runs in this process, as does every job no worker
    can take -- with ``jobs=1``, every job.  A job that raises in this
    process becomes a structured failure outcome instead of abandoning
    the sweep.  Each payload is stored in the result cache as it is
    harvested, so an interrupted sweep keeps its finished jobs.
    Outcomes are always returned in submission order -- results are
    deterministic for any ``jobs``.

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
        collect_metrics: bool = False,
        check_invariants: bool = False,
        progress=None,
        queue_dir: Union[str, os.PathLike, None] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigError("the sweep engine needs at least one worker")
        if retries < 0:
            raise ConfigError("retries cannot be negative")
        if not timeout_s > 0:
            raise ConfigError("the per-job timeout must be positive")
        self.jobs = jobs
        self.queue_dir = queue_dir
        self.collect_metrics = bool(collect_metrics)
        self.check_invariants = bool(check_invariants)
        #: Optional :class:`repro.harness.progress.SweepProgress` (or
        #: anything with its begin/job_done/heartbeat/finish hooks).
        self.progress = progress
        self.salt = str(salt)
        self.timeout_s = timeout_s
        self.retries = retries
        self.probes = ProbeSet()
        self.cache = (
            ResultCache(cache_dir) if use_cache and cache_dir else None
        )
        #: Summary of the most recent :meth:`run` (see below).
        self.last_stats: dict = {}

    @classmethod
    def from_env(
        cls, environ: Optional[dict] = None, **overrides
    ) -> "SweepEngine":
        """Engine configured from ``REPRO_SWEEP_JOBS`` (worker count),
        ``REPRO_CACHE_DIR`` (cache root), ``REPRO_NO_CACHE`` (any
        non-empty value disables the on-disk cache),
        ``REPRO_SWEEP_METRICS`` (any non-empty value adds a registry
        snapshot to every payload),
        ``REPRO_SWEEP_TIMEOUT_S`` (per-job deadline, measured from the
        job's claim), ``REPRO_SWEEP_RETRIES`` (worker-side attempts
        before the in-process fallback) and ``REPRO_SWEEP_QUEUE``
        (persistent work-queue root), so CI and remote workers tune
        sweeps without code changes.  This is the only reader of those
        variables; a malformed number is a :class:`ConfigError`.
        Keyword ``overrides`` that are not None (the CLI's flags) win
        over the environment."""
        env = os.environ if environ is None else environ
        settings = {
            "jobs": _env_number(env, "REPRO_SWEEP_JOBS", int, 1),
            "cache_dir": env.get("REPRO_CACHE_DIR", ".repro_cache"),
            "use_cache": not env.get("REPRO_NO_CACHE"),
            "collect_metrics": bool(env.get("REPRO_SWEEP_METRICS")),
            "timeout_s": _env_number(
                env, "REPRO_SWEEP_TIMEOUT_S", float, 900.0
            ),
            "retries": _env_number(env, "REPRO_SWEEP_RETRIES", int, 1),
            "queue_dir": env.get("REPRO_SWEEP_QUEUE") or None,
        }
        settings.update((k, v) for k, v in overrides.items() if v is not None)
        return cls(**settings)

    # -- execution -------------------------------------------------------

    def run(
        self, sweep: Union[SweepSpec, Iterable[SweepJob]]
    ) -> list[JobOutcome]:
        """Execute ``sweep``; outcomes are in submission order.  The
        engine's observation options are set on every job it runs."""
        if isinstance(sweep, SweepSpec):
            name, jobs = sweep.name, list(sweep.jobs)
        else:
            name, jobs = "sweep", list(sweep)
        options = {
            option: True for option in ("collect_metrics", "check_invariants")
            if getattr(self, option)
        }
        if options:
            jobs = [replace(job, **options) for job in jobs]
        started = time.perf_counter()
        keys = [job_digest(job, self.salt) for job in jobs]

        # Key-level dedup: identical jobs (shared baselines, repeated
        # grid points) simulate at most once per sweep.
        unique: dict[str, SweepJob] = {}
        for key, job in zip(keys, jobs):
            unique.setdefault(key, job)

        owned = (
            tempfile.mkdtemp(prefix="repro-sweep-")
            if self.queue_dir is None else None
        )
        try:
            queue = self._open_queue(name, list(unique), owned)
            # Every resolved key gets a done record {payload, cached,
            # worker, wall_s}; kernel totals below sum the
            # ``cached=False`` ones, so an interrupted-then-resumed
            # sweep reports the same simulator totals as an
            # uninterrupted run.
            records: dict[str, dict] = {}
            served_from_cache: set[str] = set()
            queue_served: set[str] = set()
            pending: list[tuple[str, SweepJob]] = []
            for key, job in unique.items():
                record = queue.done_record(key)
                if record is not None and isinstance(
                    record.get("payload"), dict
                ):
                    # A previous (interrupted) run or a concurrent
                    # worker already finished this job; the queue
                    # record outranks the cache so resumed totals stay
                    # bit-for-bit.
                    self.probes.counter("sweep-queue-hit").add()
                    self._store(key, job, record, records)
                    queue_served.add(key)
                    continue
                hit = self.cache.load(key) if self.cache else None
                if hit is not None:
                    self.probes.counter("sweep-cache-hit").add()
                    records[key] = {
                        "payload": hit,
                        "cached": True,
                        "worker": coordinator.worker_id(),
                        "wall_s": 0.0,
                    }
                    served_from_cache.add(key)
                    queue.complete(key, records[key])
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
            summary = (name, jobs, unique, served_from_cache, queue_served,
                       records, failures, counters, started, queue)
            try:
                self._supervise(queue, pending, records, failures, counters)
            except KeyboardInterrupt:
                # Interrupted mid-sweep: everything harvested so far is
                # already durable in the queue and the cache; stamp the
                # manifest so a ``--resume`` (or ``runs show``) sees
                # the partial state.
                self.last_stats = self._summarize(*summary, interrupted=True)
                raise
            self.probes.counter("sweep-jobs").add(len(jobs))
            self.probes.counter("sweep-sim").add(len(pending))
            self.last_stats = self._summarize(*summary)
        finally:
            if owned is not None:
                shutil.rmtree(owned, ignore_errors=True)
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

    def _open_queue(
        self, name: str, keys: list[str], owned: Optional[str]
    ) -> coordinator.WorkQueue:
        """Create-or-attach this sweep's queue -- the throwaway
        ``owned`` directory, else one subdirectory of ``queue_dir`` per
        distinct sweep spec -- and return previously ``failed`` jobs to
        pending so a resume retries them."""
        root, sha = owned, None
        if root is None:
            from repro.obs.runlog import git_sha

            digest = coordinator.spec_digest(name, self.salt, keys)
            root = Path(self.queue_dir) / f"{name}-{digest[:12]}"
            sha = git_sha()
        queue = coordinator.WorkQueue.ensure(
            root,
            name=name,
            salt=self.salt,
            model_version=MODEL_VERSION,
            keys=keys,
            git_sha=sha,
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
        if self.queue_dir is not None:
            manifest = queue.finalize_manifest()
            stats["queue"] = {
                "dir": str(queue.root),
                "spec_digest": manifest.get("spec_digest"),
                "counts": manifest.get("counts"),
            }
        return stats

    # -- the supervisor loop ---------------------------------------------

    def _supervise(self, queue, pending, records, failures, counters) -> None:
        """Resolve every pending key into ``records`` (and failed ones
        into ``failures``).

        Each pass first checks every open job: it harvests done
        records, and a claim that failed, crashed (its holder is a dead
        local worker) or ran past ``timeout_s`` since the lease's
        ``acquired_at`` goes back to the queue, or -- retries spent --
        is claimed for this process.  Then it restores the worker pool
        and runs at most one job here: a claimed fallback, or any job
        once no worker can take it.

        A claim's age is read off the wall clock once, when the loop
        first sees it, and then timed on the monotonic clock, so a
        later wall-clock step neither hastens nor delays a kill.
        """
        base = coordinator.worker_id()
        here = f"{base}-inline"
        # A lone job runs here: forking a worker for it buys nothing.
        pool = self.jobs if len(pending) > 1 else 1
        # Fork where available: cheap, and the workers inherit the
        # loaded model (and monkeypatches, which the fault-injection
        # tests rely on).  Only a pool loads multiprocessing.
        context = None
        if pool > 1:
            import multiprocessing

            context = multiprocessing.get_context(
                "fork" if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
        workers: dict = {}
        dead: set = set()
        seen: dict = {}  # (holder, acquired_at) -> monotonic claim time
        spawned = 0
        # Backstop against workers that die before claiming anything
        # (broken environment): after this many spawns, finish here.
        spawn_budget = (
            min(pool, len(pending)) + len(pending) * (self.retries + 1)
        )
        open_jobs = {
            key: {"job": job, "attempts": 0, "here": False}
            for key, job in pending
        }
        for key, job in pending:
            queue.enqueue(key, job)

        def give_back(key, entry) -> None:
            """Account one failed attempt: return the job to the queue,
            or -- retries spent -- claim it for this process."""
            if entry["attempts"] < self.retries:
                entry["attempts"] += 1
                counters["retries"] += 1
                self.probes.counter("sweep-retry").add()
                queue.release(key)
                queue.clear_failure(key)  # claimable again
                return
            counters["fallbacks"] += 1
            self.probes.counter("sweep-fallback").add()
            # Claim it before clearing the failure record, or a live
            # worker could re-claim it in between.
            queue.take_over(key, here)
            queue.clear_failure(key)
            entry["here"] = True

        try:
            while open_jobs:
                for name in [
                    n for n, p in workers.items() if not p.is_alive()
                ]:
                    workers.pop(name).join()
                    dead.add(name)
                progressed = False
                done, failed, leased = queue.listing()
                for key, entry in list(open_jobs.items()):
                    record = queue.done_record(key) if key in done else None
                    if record is not None and isinstance(
                        record.get("payload"), dict
                    ):
                        del open_jobs[key]
                        self._store(key, entry["job"], record, records)
                        self._note_done(record, remaining=len(open_jobs))
                        progressed = True
                        continue
                    if entry["here"]:
                        continue
                    if key in failed and queue.failure(key) is not None:
                        give_back(key, entry)
                        continue
                    # The raw record: an expired lease still names its
                    # holder, which ``queue.lease`` would hide.
                    path = queue.leases_dir / f"{key}.json"
                    lease = (key in leased and coordinator._read_json(path)) or {}
                    holder = lease.get("worker")
                    if holder in workers:
                        stamp = (holder, lease["acquired_at"])
                        age = max(0.0, time.time() - stamp[1])
                        claimed = seen.setdefault(stamp, time.monotonic() - age)
                        if time.monotonic() - claimed > self.timeout_s:
                            # Hung worker: kill it -- a timed-out claim
                            # must not keep occupying its pool slot.
                            workers[holder].kill()
                            workers.pop(holder).join()
                            dead.add(holder)
                    if holder in dead:
                        give_back(key, entry)
                # Respawn (only now, after harvesting) to restore the
                # configured concurrency after kills and crashes.
                wanted = sum(not e["here"] for e in open_jobs.values())
                while (
                    pool > 1
                    and len(workers) < min(pool, wanted)
                    and spawned < spawn_budget
                ):
                    if spawned >= min(pool, len(pending)):
                        counters["respawns"] += 1
                        self.probes.counter("sweep-respawn").add()
                    name = f"{base}-w{spawned}"
                    workers[name] = context.Process(
                        target=coordinator._local_worker_main,
                        args=(str(queue.root), name,
                              self.timeout_s + coordinator.DEFAULT_LEASE_S),
                        daemon=True,
                    )
                    workers[name].start()
                    spawned += 1
                no_worker = pool == 1 or not (
                    workers or spawned < spawn_budget
                )
                key = next((
                    key for key, entry in open_jobs.items()
                    if entry["here"] or (no_worker and queue.try_claim(
                        key, here, coordinator.DEFAULT_LEASE_S
                    ))
                ), None)
                if key is not None:
                    job = open_jobs.pop(key)["job"]
                    self._run_here(queue, key, job, here, records, failures,
                                   remaining=len(open_jobs))
                    progressed = True
                if open_jobs and not progressed:
                    if self.progress is not None:
                        active = min(self.jobs, len(open_jobs))
                        self.progress.heartbeat(active=active)
                        if hasattr(self.progress, "queue_snapshot"):
                            self.progress.queue_snapshot(queue.counts())
                    time.sleep(0.02)
        finally:
            for proc in workers.values():
                proc.terminate()
            for proc in workers.values():
                proc.join()
            # Terminated workers cannot release their own claims, and
            # their lease records embed this process's (live) pid -- so
            # drop them here, or a resume from this same process would
            # wait out the full lease term.
            for key in open_jobs:
                lease = queue.lease(key)
                if lease is not None and str(
                    lease.get("worker", "")
                ).startswith(f"{base}-"):
                    queue.release(key)

    # -- shared helpers --------------------------------------------------

    def _run_here(
        self, queue, key, job, worker, records, failures, remaining
    ) -> None:
        """Execute the claimed ``key`` in this process.  A job that
        raises here becomes a structured failure record -- never a lost
        sweep."""
        record = coordinator.run_claimed(queue, key, job, worker)
        if "error" in record:
            failures[key] = record["error"]
            self.probes.counter("sweep-failed").add()
        self._store(key, job, record, records)
        self._note_done(record, remaining)

    def _store(self, key, job, record, records) -> None:
        """Keep a harvested record, and cache its payload right away
        (an interrupted sweep keeps every job finished so far)."""
        records[key] = record
        if self.cache is not None and "error" not in record:
            self.cache.store(key, job, self.salt, record["payload"])

    def _note_done(self, record, remaining: int) -> None:
        wall_s = float(record.get("wall_s") or 0.0)
        self.probes.latency("sweep-job-wall-ns").record(
            int(wall_s * NS_PER_S)
        )
        if self.progress is not None:
            active = min(self.jobs, remaining) if self.jobs > 1 else 0
            self.progress.job_done(wall_s, active=active)
