"""Application-study driver (Figure 10).

"For each application, we report its normalized performance obtained
by dividing the execution time of the device-access version by the
execution time of a single-threaded baseline version where data is
stored in DRAM" (section IV-C) -- reported here as a speedup ratio
(baseline time / device time per operation), so higher is better and
the paper's "35% to 65% of the DRAM baseline" reads directly.

Throughput is compared per operation: the baseline performs the same
per-thread operation counts on one thread, so multi-threaded runs are
normalized by their total operation count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.host.system import System
from repro.workloads.bfs import BfsParams, install_bfs
from repro.workloads.bloom import BloomParams, install_bloom
from repro.workloads.memcached import MemcachedParams, install_memcached
from repro.workloads.microbench import MicrobenchSpec, install_microbench

__all__ = ["AppRun", "run_application", "normalized_application", "APPLICATIONS"]

#: Simulated-time safety limit for one application run.
_RUN_LIMIT_TICKS = 10**12


@dataclass(frozen=True)
class MicrobenchAppParams:
    """Parameters for running the microbenchmark as a finite "app"
    (the 4-read comparison series of Figure 10)."""

    work_count: int = 200
    queries_per_thread: int = 48


@dataclass
class AppRun:
    """One timed application run."""

    name: str
    config: SystemConfig
    ticks: int
    operations: int

    @property
    def ticks_per_operation(self) -> float:
        return self.ticks / self.operations


def _install(system: System, name: str, params, threads_per_core: int) -> int:
    """Install an application; returns its total operation count."""
    if name == "bloom":
        install_bloom(system, params, threads_per_core)
        return (
            system.config.cores * threads_per_core * params.queries_per_thread
        )
    if name == "memcached":
        install_memcached(system, params, threads_per_core)
        return system.config.cores * threads_per_core * params.gets_per_thread
    if name == "bfs":
        runs = install_bfs(system, params, threads_per_core)
        # One traversal per core; each visits every vertex exactly once.
        return sum(run.graph.n for run in runs)
    if name == "microbench-4read":
        spec = MicrobenchSpec(
            work_count=params.work_count,
            reads_per_batch=4,
            iterations=params.queries_per_thread,
        )
        install_microbench(system, spec, threads_per_core)
        return (
            system.config.cores * threads_per_core * params.queries_per_thread
        )
    raise ConfigError(f"unknown application {name!r}")


#: The Figure 10 line-up: the three applications plus the 4-read
#: microbenchmark shown alongside them for comparison.
APPLICATIONS = ("bfs", "bloom", "memcached", "microbench-4read")


def default_params(name: str, work_count: int = 200, ops_per_thread: int = 48,
                   bfs_vertices: int = 2048):
    """The per-application parameter sets used by the figures."""
    if name == "bloom":
        return BloomParams(
            work_count=work_count, queries_per_thread=ops_per_thread
        )
    if name == "memcached":
        return MemcachedParams(
            items=2048,
            buckets=2048,
            work_count=work_count,
            gets_per_thread=ops_per_thread,
        )
    if name == "bfs":
        # Graph500-like degree; the benign work loop is charged per
        # 2-read batch, so the per-read work density stays in line
        # with the 4-read applications.
        return BfsParams(
            vertices=bfs_vertices, average_degree=16, work_count=work_count // 4
        )
    if name == "microbench-4read":
        return MicrobenchAppParams(
            work_count=work_count, queries_per_thread=ops_per_thread
        )
    raise ConfigError(f"unknown application {name!r}")


def run_application(
    config: SystemConfig,
    name: str,
    params=None,
    check_invariants: bool = False,
) -> AppRun:
    """Run one application to completion on ``config``.

    ``check_invariants`` runs the online sanitizer alongside the
    simulation; it is a passive observer, so timings are bit-for-bit
    unchanged.
    """
    from repro.obs import invariants

    if params is None:
        params = default_params(name)
    monitor = None
    if check_invariants:
        monitor = invariants.InvariantMonitor()
    system = System(config, tracer=monitor)
    if monitor is not None:
        monitor.attach(system)
    operations = _install(system, name, params, config.threads_per_core)
    ticks = system.run_to_completion(limit_ticks=_RUN_LIMIT_TICKS)
    if monitor is not None:
        monitor.check_now()
    return AppRun(name, config, ticks, operations)


def normalized_application(
    config: SystemConfig,
    name: str,
    params=None,
    check_invariants: bool = False,
) -> tuple[float, AppRun]:
    """Per-operation speedup over the single-thread DRAM baseline.

    ``check_invariants`` sanitizes the measured run only (the baseline
    runs the same model, so checking it too would only double the cost).
    """
    from repro.harness.sweep import SweepJob, baseline_job, normalize

    if params is None:
        params = default_params(name)
    job = SweepJob(config=config, app=name, params=params)
    run = run_application(config, name, params, check_invariants=check_invariants)
    base = baseline_job(job)
    baseline = run_application(base.config, name, params)
    value = normalize(
        job,
        {"ticks": run.ticks, "operations": run.operations},
        {"ticks": baseline.ticks, "operations": baseline.operations},
    )
    return value, run
