"""One pass of one workload, in a fresh interpreter (started by run.py).

Usage: python3 perfbench/passrun.py WORKLOAD SEED|default CACHE_DIR OUT_JSON [--trace]

The pass imports ``repro`` from ``src/``, wraps the public calls a sweep
job makes so each one is timed per job, runs the workload's sweep through
``SweepEngine(jobs=1)`` into the empty ``CACHE_DIR``, checks the functional
results and writes everything to ``OUT_JSON``.  With ``--trace`` the sweep
runs under cProfile and each job's ``System.metrics_snapshot()`` is taken
with the profiler paused; run.py uses such a pass only for per-layer
numbers.
"""

from __future__ import annotations

import array
import cProfile
import functools
import json
import re
import resource
import sys
import threading
import time
from pathlib import Path

import hostcpu

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
CPU, PROBE_S = hostcpu.pin_fastest()

_IMPORT_STARTED = time.perf_counter()
import repro.harness.sweep as sweep_mod  # noqa: E402
from repro.host.system import System  # noqa: E402

import grids  # noqa: E402
import layers  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_STARTED

#: Sleep between the sampler's progress samples.
SAMPLE_S = 0.002

#: Registry counters summed into per-layer counts (``metrics_snapshot``).
_COUNTS = (
    ("cpu.instructions", re.compile(r"core\d+\.instructions"), "total"),
    ("cpu.lfb_fills", re.compile(r"core\d+\.lfb\.fills"), "value"),
    ("runtime.context_switches", re.compile(r"runtime\d+\.context_switches"), "value"),
    ("runtime.doorbells", re.compile(r"device\.qp\d+\.doorbells_rung"), "value"),
    ("interconnect.tlps", re.compile(r"pcie\.(up|down)stream\.tlps_sent"), "value"),
    ("device.requests", re.compile(r"device\.requests_served"), "value"),
)

_INSTALLS = {
    "install_microbench": "repro.workloads.microbench",
    "install_bfs": "repro.workloads.bfs",
    "install_bloom": "repro.workloads.bloom",
    "install_memcached": "repro.workloads.memcached",
    "install_service": "repro.workloads.loadgen",
}


class Recorder:
    """Per-job timings and captures, filled by the wrappers below.

    Jobs run one at a time in this process, and each builds exactly one
    ``System``, so a ``System(...)`` call opens the next job's record.
    Doubles as the engine's progress hook, which reports job wall times.
    """

    def __init__(self, profiler: cProfile.Profile | None) -> None:
        self.profiler = profiler
        self.jobs: list[dict] = []
        self.job_walls: list[float] = []
        self.store_s: dict[str, float] = {}
        self.sampler = Sampler() if profiler is None else None

    # -- SweepEngine progress hook --------------------------------------
    def begin(self, name, total, cache_hits=0, workers=1) -> None:
        pass

    def job_done(self, wall_s: float, active: int = 0) -> None:
        self.job_walls.append(wall_s)

    def heartbeat(self, active: int = 0) -> None:
        pass

    def finish(self, stats) -> None:
        pass

    # -- capture ----------------------------------------------------------
    def current(self) -> dict:
        if not self.jobs:
            raise RuntimeError("a job call arrived before any System(...) was built")
        return self.jobs[-1]

    def counts(self, system: System) -> dict:
        """Registry counts of ``system``, taken with the profiler paused."""
        if self.profiler is not None:
            self.profiler.disable()
        snapshot = system.metrics_snapshot()
        if self.profiler is not None:
            self.profiler.enable()
        totals = {}
        for name, pattern, field in _COUNTS:
            totals[name] = sum(
                entry[field] for key, entry in snapshot.items() if pattern.fullmatch(key)
            )
        return totals


class Sampler(threading.Thread):
    """Notes (host time, progress) of the sampled call in progress every
    ``SAMPLE_S``, for run.py's per-slice estimator.

    Progress is a deterministic count read through a public API:
    ``sim.now`` while simulating, ``world.word_count()`` while an
    ``install_*`` fills the functional memory.  The thread only reads
    clocks and appends to flat arrays, so it allocates no object the
    cyclic GC tracks: collections, peak RSS and every output of the
    sweep stay exactly what they are without it.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        #: (read, obj) of the call in progress; ``read(obj)`` is its progress.
        self.target = None
        self.running = True
        self.times = array.array("d")
        self.values = array.array("d")

    def run(self) -> None:
        clock, sleep, times, values = time.perf_counter, time.sleep, self.times, self.values
        while self.running:
            sleep(SAMPLE_S)
            target = self.target
            if target is not None:
                times.append(clock())
                values.append(target[0](target[1]))

    def span(self, read, obj, call):
        """Run ``call()`` sampled; return its result and its span record."""
        first = len(self.times)
        value0 = read(obj)
        started = time.perf_counter()
        self.target = (read, obj)
        try:
            result = call()
        finally:
            self.target = None
        ended = time.perf_counter()
        return result, (started, value0, first, len(self.times), ended, read(obj))

    def progress(self, span: tuple) -> list[tuple[float, float]]:
        """(host time, progress) points of one sampled call, from its
        exact start to its exact end."""
        started, value0, first, last, ended, value1 = span
        points = [(started, value0)]
        for t, value in zip(self.times[first:last], self.values[first:last]):
            # A sample racing the end of the previous call can carry its
            # progress; keep only points inside this call, in order.
            if started <= t <= ended and points[-1][1] <= value <= value1:
                points.append((t, value))
        points.append((ended, value1))
        return points


def _sim_now(system) -> int:
    return system.sim.now


def _words(system) -> int:
    return system.world.word_count()


def _freeze(job: dict) -> None:
    """Keep only plain data from an install's return value, so nothing
    holds the finished job's simulated memory alive."""
    capture = job.get("capture")
    if capture is None:
        return
    kind, params, result = capture
    if kind == "bfs":
        result = [run.distance for run in result]
    elif kind == "service":
        result = [(request.key, request.value) for request in result.completed]
    job["capture"] = (kind, params, result)


def instrument(recorder: Recorder) -> None:
    """Wrap ``System(...)``, ``install_*``, ``run_window`` /
    ``run_to_completion``, ``System.report`` and ``ResultCache.store``."""
    clock = time.perf_counter

    original_init = System.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        job = {"build_s": 0.0, "report_s": 0.0, "installs": 0, "sims": 0}
        recorder.jobs.append(job)
        started = clock()
        original_init(self, *args, **kwargs)
        job["build_s"] = clock() - started

    System.__init__ = init

    def sampled(job, name, read, system, call):
        """Time ``call()`` as the job's ``name`` span, sampled by
        ``read(system)`` when the pass runs a sampler."""
        if recorder.sampler is None:
            started = clock()
            result = call()
            span = (started, 0, 0, 0, clock(), 0)
        else:
            result, span = recorder.sampler.span(read, system, call)
        job[f"{name}_s"] = span[4] - span[0]
        job[f"{name}_span"] = span
        return result

    def simulate(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            job = recorder.current()
            result = sampled(job, "sim", _sim_now, self, lambda: original(self, *args, **kwargs))
            job["sims"] += 1
            _freeze(job)
            if recorder.profiler is not None:
                job["counts"] = recorder.counts(self)
            return result
        return wrapper

    System.run_window = simulate(System.run_window)
    System.run_to_completion = simulate(System.run_to_completion)

    original_report = System.report

    @functools.wraps(original_report)
    def report(self):
        started = clock()
        result = original_report(self)
        recorder.current()["report_s"] += clock() - started
        return result

    System.report = report

    original_store = sweep_mod.ResultCache.store

    @functools.wraps(original_store)
    def store(self, key, *args, **kwargs):
        started = clock()
        original_store(self, key, *args, **kwargs)
        recorder.store_s[key] = recorder.store_s.get(key, 0.0) + clock() - started

    sweep_mod.ResultCache.store = store

    for name, module_name in _INSTALLS.items():
        original = getattr(sys.modules[module_name], name)
        kind = name.removeprefix("install_")

        def install(system, params, *args, _original=original, _kind=kind, **kwargs):
            job = recorder.current()
            result = sampled(
                job, "install", _words, system,
                lambda: _original(system, params, *args, **kwargs),
            )
            job["installs"] += 1
            if _kind in ("bfs", "memcached", "service"):
                job["capture"] = (_kind, params, result)
            return result

        _replace_everywhere(original, functools.wraps(original)(install))


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module global that names ``original`` (the
    harness imports the install functions by name)."""
    rebound = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound += 1
    if rebound < 2:
        raise RuntimeError(f"{original.__name__} is not called from any repro module")


def _check(capture) -> list[str]:
    if capture is None:
        return []
    kind, params, result = capture
    if kind == "memcached":
        return grids.check_memcached(params, result)
    if kind == "bfs":
        return grids.check_bfs(params, result)
    if kind == "service":
        return grids.check_service(params, result)
    return []


def main(argv: list[str]) -> None:
    workload, seed, cache_dir, out_path = argv[:4]
    traced = "--trace" in argv[4:]
    profiler = cProfile.Profile() if traced else None
    recorder = Recorder(profiler)
    instrument(recorder)
    seed = grids.DEFAULT_SEED[workload] if seed == "default" else int(seed)
    spec = grids.build(workload, seed)
    engine = sweep_mod.SweepEngine(jobs=1, cache_dir=cache_dir, progress=recorder)

    if recorder.sampler:
        recorder.sampler.start()
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    outcomes = engine.run(spec)
    if profiler is not None:
        profiler.disable()
    run_s = time.perf_counter() - started
    if recorder.sampler:
        recorder.sampler.running = False
        recorder.sampler.join()

    stats = engine.last_stats
    keys = list(dict.fromkeys(outcome.key for outcome in outcomes))
    errors = []
    if not (len(keys) == len(recorder.jobs) == len(recorder.job_walls)):
        errors.append(
            f"{len(keys)} unique jobs but {len(recorder.jobs)} System builds and "
            f"{len(recorder.job_walls)} progress reports"
        )
    first = {}
    for outcome in outcomes:
        first.setdefault(outcome.key, outcome)
    jobs = []
    for index, key in enumerate(keys):
        record = recorder.jobs[index] if index < len(recorder.jobs) else {}
        outcome = first[key]
        job_errors = _check(record.get("capture"))
        if outcome.failed:
            job_errors.append(outcome.error)
        if record.get("installs") != 1 or record.get("sims") != 1:
            job_errors.append("job did not make exactly one install_* and one run call")
        jobs.append({
            "key": key,
            "describe": outcome.job.describe(),
            "label": outcome.job.label,
            "wall_s": recorder.job_walls[index] if index < len(recorder.job_walls) else 0.0,
            "build_s": record.get("build_s", 0.0),
            "install_s": record.get("install_s", 0.0),
            "sim_s": record.get("sim_s", 0.0),
            "report_s": record.get("report_s", 0.0),
            "store_s": recorder.store_s.get(key, 0.0),
            **{
                f"{name}_progress": (
                    recorder.sampler.progress(record[f"{name}_span"])
                    if recorder.sampler and f"{name}_span" in record else []
                )
                for name in ("install", "sim")
            },
            "payload": outcome.payload,
            "counts": record.get("counts"),
            "errors": job_errors,
        })

    result = {
        "workload": workload,
        "seed": seed,
        "default_seed": grids.DEFAULT_SEED[workload],
        "import_s": IMPORT_S,
        "run_s": run_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cpu": CPU,
        "probe_s": PROBE_S,
        "stats": {
            name: stats.get(name)
            for name in ("jobs", "unique", "simulated", "cache_hits", "failed", "kernel_stats")
        },
        "jobs": jobs,
        "errors": errors,
    }
    if profiler is not None:
        profiler.create_stats()
        result["self_s"] = layers.self_time_by_layer(profiler.stats, SRC)
    with open(out_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
