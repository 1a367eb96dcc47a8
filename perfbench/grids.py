"""The benchmark's three workloads and the functional checks on their results.

Each workload is one :class:`~repro.harness.sweep.SweepSpec` built the way
``repro figure`` builds a figure: the measured points plus the derived DRAM
baselines, which the engine deduplicates.  Grids are trimmed slices of the
paper's figures; NOTES.md records why each one was chosen.

Only two inputs take the workload seed: the BFS graph (``BfsParams.seed``)
and the open-loop arrival/key streams (``OpenLoopSpec.seed``).  The
microbenchmark and the per-thread Bloom/Memcached keys are fixed functions
of (core, slot), so ``prefetch_closed`` ignores the seed.
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro.config import AccessMechanism, DeviceConfig, SwqConfig, SystemConfig
from repro.harness.applications import default_params
from repro.harness.experiment import MeasureWindow
from repro.harness.service import ServiceParams
from repro.harness.sweep import SweepJob, SweepSpec, baseline_job
from repro.memory import WORD_BYTES
from repro.workloads.bfs import BfsParams, generate_graph
from repro.workloads.loadgen import ArrivalSpec, KeySpec, OpenLoopSpec
from repro.workloads.memcached import make_get_keys, value_word
from repro.workloads.microbench import MicrobenchSpec
from repro.workloads.seeds import thread_seed

#: The figures' own seeds.  ``prefetch_closed`` has no seeded input.
DEFAULT_SEED = {
    "prefetch_closed": 0,
    "apps_fig10": BfsParams().seed,
    "service_openloop": OpenLoopSpec().seed,
}

#: Figures 3-9's measurement window (``repro.harness.figures``).
_WINDOW = MeasureWindow(warmup_us=30.0, measure_us=100.0)
#: ``figA_slo``'s window; the service p99s recorded in
#: ``benchmarks/service_baseline.json`` were measured with it.
_SLO_WINDOW = MeasureWindow(warmup_us=40.0, measure_us=400.0)

#: (cores, threads per core, reads per batch) of ``prefetch_closed``.
#: One core: 4 and 12 one-read threads sit either side of the 10-LFB
#: plateau, 2 and 8 four-read threads either side of 10/4 threads.
#: Several cores: 8 in flight chip-wide (8x1) stays under the 14-entry
#: chip queue; 24 and 32 (2x12, 8x4) saturate it.
_PREFETCH_POINTS = (
    (1, 4, 1), (1, 12, 1),
    (1, 2, 4), (1, 8, 4),
    (2, 12, 1),
    (8, 1, 1), (8, 4, 1),
)

#: ``apps_fig10`` trims Figure 10 (one quick-scale 8-core BFS point takes
#: ~14 s on its own): 4 threads per core, 8 operations per thread, a
#: 32-vertex BFS graph and a 512-item Memcached store (160 KiB per core,
#: still 5x the L1).  Figure 10 is simulation-bound; with its 2048-item
#: store, filling the per-core stores would dominate the trimmed grid.
_APP_THREADS = 4
_APP_OPS = 8
_APP_BFS_VERTICES = 32
_APP_MEMCACHED_ITEMS = 512
_APPS = ("bfs", "bloom", "memcached")

#: ``figA_slo`` at its highest quick-scale load.
_SLO_LOAD = 0.3
_SLO_WORKERS = 16
_SLO_POLICIES = (("under-rule", 8), ("rule-sized", 32))


def build(workload: str, seed: int) -> SweepSpec:
    """The workload's sweep: measured points, then their baselines."""
    if workload == "prefetch_closed":
        jobs = [
            SweepJob(
                config=SystemConfig(
                    mechanism=AccessMechanism.PREFETCH,
                    cores=cores,
                    threads_per_core=threads,
                    device=DeviceConfig(total_latency_us=1.0),
                ),
                spec=MicrobenchSpec(work_count=200, reads_per_batch=reads),
                window=_WINDOW,
            )
            for cores, threads, reads in _PREFETCH_POINTS
        ]
        return SweepSpec(workload, jobs + [baseline_job(job) for job in jobs])
    if workload == "apps_fig10":
        jobs = []
        for mechanism in (AccessMechanism.PREFETCH, AccessMechanism.SOFTWARE_QUEUE):
            for cores in (1, 8):
                for app in _APPS:
                    params = default_params(
                        app, ops_per_thread=_APP_OPS, bfs_vertices=_APP_BFS_VERTICES
                    )
                    if app == "bfs":
                        params = dataclasses.replace(params, seed=seed)
                    if app == "memcached":
                        params = dataclasses.replace(
                            params, items=_APP_MEMCACHED_ITEMS, buckets=_APP_MEMCACHED_ITEMS
                        )
                    config = SystemConfig(
                        mechanism=mechanism,
                        cores=cores,
                        threads_per_core=_APP_THREADS,
                        device=DeviceConfig(total_latency_us=1.0),
                    )
                    jobs.append(SweepJob(config=config, app=app, params=params))
        return SweepSpec(workload, jobs + [baseline_job(job) for job in jobs])
    if workload == "service_openloop":
        jobs = []
        for policy, ring_entries in _SLO_POLICIES:
            for cores in (1, 8):
                config = SystemConfig(
                    mechanism=AccessMechanism.SOFTWARE_QUEUE,
                    cores=cores,
                    threads_per_core=_SLO_WORKERS,
                    device=DeviceConfig(total_latency_us=1.0),
                    swq=SwqConfig(ring_entries=ring_entries),
                )
                service = ServiceParams(
                    open_loop=OpenLoopSpec(
                        arrivals=ArrivalSpec(rate_per_us=_SLO_LOAD),
                        keys=KeySpec(theta=0.0),
                        seed=seed,
                    ),
                    workers_per_core=_SLO_WORKERS,
                )
                # Labels name the p99s in benchmarks/service_baseline.json.
                jobs.append(SweepJob(
                    config=config, service=service, window=_SLO_WINDOW,
                    label=f"{policy}/{cores}core/p99",
                ))
        return SweepSpec(workload, jobs)
    raise ValueError(f"unknown workload {workload!r}")


# -- functional checks (run after the sweep, outside every timed region) ------


def _expected_value(key: int, value_lines: int) -> list[int]:
    """What a GET returns: the first word of each value line."""
    words_per_line = 64 // WORD_BYTES
    return [value_word(key, line * words_per_line) for line in range(value_lines)]


def check_memcached(params, results: dict) -> list[str]:
    """Every thread got every GET back, each equal to ``value_word``."""
    errors = []
    for (core, slot), values in sorted(results.items()):
        keys = make_get_keys(params, thread_seed=thread_seed(core, slot))
        expected = [_expected_value(key, params.value_lines) for key in keys]
        if values != expected:
            errors.append(f"memcached core {core} slot {slot}: wrong GET values")
    return errors


def check_service(params, completed: list[tuple[int, list]]) -> list[str]:
    """Every completed request of the service (``params`` is its
    ``MemcachedParams`` store) returned its key's value."""
    if not completed:
        return ["service completed no requests"]
    wrong = sum(value != _expected_value(key, params.value_lines) for key, value in completed)
    return [f"service: {wrong} of {len(completed)} GETs wrong"] if wrong else []


def reference_bfs(params: BfsParams) -> list[int]:
    """Level of every vertex from ``params.source``, by a plain queue BFS."""
    adjacency = generate_graph(params)
    distance = [-1] * len(adjacency)
    distance[params.source] = 0
    frontier = deque([params.source])
    while frontier:
        vertex = frontier.popleft()
        for neighbor in adjacency[vertex]:
            if distance[neighbor] < 0:
                distance[neighbor] = distance[vertex] + 1
                frontier.append(neighbor)
    return distance


def check_bfs(params: BfsParams, distances: list[list[int]]) -> list[str]:
    """Each core's traversal found every vertex at its reference level."""
    expected = reference_bfs(params)
    return [
        f"bfs core {core}: distances differ from the reference BFS"
        for core, distance in enumerate(distances)
        if distance != expected
    ]
