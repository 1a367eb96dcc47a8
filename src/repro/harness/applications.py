"""The applications of the application study (Figure 10).

"For each application, we report its normalized performance obtained
by dividing the execution time of the device-access version by the
execution time of a single-threaded baseline version where data is
stored in DRAM" (section IV-C) -- reported here as a speedup ratio
(baseline time / device time per operation), so higher is better and
the paper's "35% to 65% of the DRAM baseline" reads directly.

Throughput is compared per operation: the baseline performs the same
per-thread operation counts on one thread, so multi-threaded runs are
normalized by their total operation count.  :func:`install_application`
puts one on a built system for :func:`~repro.harness.sweep.run_job`,
and :func:`~repro.harness.sweep.normalize` takes the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.host.system import System
from repro.workloads.bfs import BfsParams, install_bfs
from repro.workloads.bloom import BloomParams, install_bloom
from repro.workloads.memcached import MemcachedParams, install_memcached
from repro.workloads.microbench import MicrobenchSpec, install_microbench

__all__ = [
    "APPLICATIONS",
    "MicrobenchAppParams",
    "default_params",
    "install_application",
]


@dataclass(frozen=True)
class MicrobenchAppParams:
    """Parameters for running the microbenchmark as a finite "app"
    (the 4-read comparison series of Figure 10)."""

    work_count: int = 200
    queries_per_thread: int = 48


def install_application(
    system: System, name: str, params, threads_per_core: int
) -> int:
    """Install an application; returns its total operation count."""
    if name == "bloom":
        install_bloom(system, params, threads_per_core)
        return (
            system.logical_cores * threads_per_core * params.queries_per_thread
        )
    if name == "memcached":
        install_memcached(system, params, threads_per_core)
        return system.logical_cores * threads_per_core * params.gets_per_thread
    if name == "bfs":
        runs = install_bfs(system, params, threads_per_core)
        # One traversal per logical core; each visits every vertex once.
        return sum(run.graph.n for run in runs)
    if name == "microbench-4read":
        spec = MicrobenchSpec(
            work_count=params.work_count,
            reads_per_batch=4,
            iterations=params.queries_per_thread,
        )
        install_microbench(system, spec, threads_per_core)
        return (
            system.logical_cores * threads_per_core * params.queries_per_thread
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
