"""One entry point per figure of the paper's evaluation (section V).

Each ``figN()`` function builds the corresponding experiment grid as a
:class:`~repro.harness.sweep.SweepSpec`, submits it to a
:class:`~repro.harness.sweep.SweepEngine` (parallel workers + on-disk
result cache), and returns a :class:`FigureResult` whose series mirror
the lines of the paper's plot.  ``scale="quick"`` trims the grids for
CI-speed runs; ``scale="full"`` reproduces the paper's grids.

Baselines are ordinary sweep jobs derived per measurement by
:func:`~repro.harness.sweep.baseline_job`; the engine's key-level
deduplication runs each distinct baseline once per sweep.  Because the
engine returns outcomes in submission order and every job is a
deterministic simulation, a figure's series are bit-for-bit identical
whether the sweep ran serially, on a worker pool, or from a warm
cache.

Pass ``engine=`` to control workers/caching explicitly; by default an
engine is built from the environment (``REPRO_SWEEP_JOBS``,
``REPRO_CACHE_DIR``, ``REPRO_NO_CACHE`` -- see
:meth:`~repro.harness.sweep.SweepEngine.from_env`).

The benchmark suite (``benchmarks/``) calls these functions, asserts
the paper's qualitative claims about each figure, and renders the
series as text tables (see :mod:`repro.harness.report`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.config import (
    AccessMechanism,
    DeviceConfig,
    SwqConfig,
    SystemConfig,
)
from repro.errors import SimulationError
from repro.harness.applications import APPLICATIONS, default_params
from repro.harness.experiment import MeasureWindow
from repro.harness.service import ServiceParams
from repro.harness.sweep import SweepEngine, SweepJob, SweepSpec, baseline_job, normalize
from repro.units import NS, US
from repro.workloads.loadgen import ArrivalSpec, KeySpec, OpenLoopSpec
from repro.workloads.microbench import MicrobenchSpec

__all__ = [
    "FigureResult",
    "Series",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "figA_slo",
    "queue_rule_report",
    "ALL_FIGURES",
]

#: Default microbenchmark work-count for the thread sweeps (Figures
#: 3, 5, 6, 7, 8, 9), chosen so prefetch at 1 us reaches DRAM parity
#: at 10 threads, as in the paper's Figure 3.
DEFAULT_WORK = 200

_WINDOW = MeasureWindow(warmup_us=30.0, measure_us=100.0)
_LONG_WINDOW = MeasureWindow(warmup_us=40.0, measure_us=400.0)


@dataclass
class Series:
    """One line of a figure: (x, y) points."""

    label: str
    points: list[tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((x, y))

    def ys(self) -> list[float]:
        return [y for _x, y in self.points]

    def y_at(self, x: float) -> float:
        # Tolerant comparison: float-valued x-axes (latency in us, say)
        # must not silently miss a point to representation error.
        for px, py in self.points:
            if math.isclose(px, x, rel_tol=1e-9, abs_tol=1e-12):
                return py
        raise KeyError(f"no point at x={x} in series {self.label!r}")

    def peak(self) -> float:
        return max(self.ys())


@dataclass
class FigureResult:
    """A reproduced figure: labeled series over a common x-axis."""

    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)

    def new_series(self, label: str) -> Series:
        line = Series(label)
        self.series.append(line)
        return line

    def get(self, label: str) -> Series:
        for line in self.series:
            if line.label == label:
                return line
        raise KeyError(f"figure {self.figure_id} has no series {label!r}")


def _threads_grid(scale: str, full: Sequence[int], quick: Sequence[int]) -> list[int]:
    return list(full if scale == "full" else quick)


def _resolve_engine(engine: Optional[SweepEngine]) -> SweepEngine:
    return engine if engine is not None else SweepEngine.from_env()


def _checked_payload(outcome) -> dict:
    """The outcome's payload, or :class:`SimulationError` if the job
    failed (the engine records failures instead of losing the sweep;
    a figure, though, needs every point)."""
    if outcome.failed:
        raise SimulationError(
            f"sweep job failed ({outcome.job.describe()}): {outcome.error}"
        )
    return outcome.payload


def _run_normalized(
    name: str,
    grid: list[tuple[Series, float, SweepJob]],
    engine: Optional[SweepEngine],
) -> None:
    """Run every (series, x, job) measurement plus its derived baseline
    in one sweep, then fill the series with the normalized values
    (:func:`~repro.harness.sweep.normalize`)."""
    engine = _resolve_engine(engine)
    jobs = [job for _line, _x, job in grid]
    sweep = SweepSpec(name, jobs + [baseline_job(job) for job in jobs])
    outcomes = engine.run(sweep)
    measured, baselines = outcomes[: len(jobs)], outcomes[len(jobs):]
    for (line, x, job), run, base in zip(grid, measured, baselines):
        baseline = _checked_payload(base)
        line.add(x, normalize(job, _checked_payload(run), baseline))


# ---------------------------------------------------------------------------
# Figure 2: on-demand access vs work-count
# ---------------------------------------------------------------------------

def fig2(scale: str = "quick", engine: Optional[SweepEngine] = None) -> FigureResult:
    """On-demand access of the microsecond device (vs work-count)."""
    result = FigureResult(
        "fig2",
        "On-demand access of microsecond-latency device",
        xlabel="work instructions per access",
        ylabel="normalized work IPC",
    )
    work_counts = _threads_grid(
        scale, full=(10, 50, 100, 200, 500, 1000, 2000, 5000),
        quick=(10, 100, 1000, 5000),
    )
    grid = []
    for latency_us in (1.0, 2.0, 4.0):
        line = result.new_series(f"{latency_us:g}us")
        for work in work_counts:
            config = SystemConfig(
                mechanism=AccessMechanism.ON_DEMAND,
                threads_per_core=1,
                device=DeviceConfig(total_latency_us=latency_us),
            )
            job = SweepJob(
                config=config,
                spec=MicrobenchSpec(work_count=work),
                window=_LONG_WINDOW,
            )
            grid.append((line, work, job))
    _run_normalized("fig2", grid, engine)
    return result


# ---------------------------------------------------------------------------
# Figure 3: prefetch-based access vs thread count, three latencies
# ---------------------------------------------------------------------------

def fig3(scale: str = "quick", engine: Optional[SweepEngine] = None) -> FigureResult:
    """Prefetch-based access with various latencies."""
    result = FigureResult(
        "fig3",
        "Prefetch-based access with various latencies",
        xlabel="threads",
        ylabel="normalized work IPC",
    )
    threads_grid = _threads_grid(
        scale, full=tuple(range(1, 17)), quick=(1, 2, 4, 8, 10, 12, 16)
    )
    grid = []
    for latency_us in (1.0, 2.0, 4.0):
        line = result.new_series(f"{latency_us:g}us")
        for threads in threads_grid:
            config = SystemConfig(
                mechanism=AccessMechanism.PREFETCH,
                threads_per_core=threads,
                device=DeviceConfig(total_latency_us=latency_us),
            )
            job = SweepJob(
                config=config,
                spec=MicrobenchSpec(work_count=DEFAULT_WORK),
                window=_WINDOW,
            )
            grid.append((line, threads, job))
    _run_normalized("fig3", grid, engine)
    return result


# ---------------------------------------------------------------------------
# Figure 4: prefetch at 1 us with various work-counts
# ---------------------------------------------------------------------------

def fig4(scale: str = "quick", engine: Optional[SweepEngine] = None) -> FigureResult:
    """1 us prefetch-based access with various work counts."""
    result = FigureResult(
        "fig4",
        "1us prefetch-based access with various work counts",
        xlabel="threads",
        ylabel="normalized work IPC",
    )
    threads_grid = _threads_grid(
        scale, full=tuple(range(1, 17)), quick=(1, 2, 4, 6, 8, 10, 12, 16)
    )
    work_grid = (100, 200, 400, 800, 1600) if scale == "full" else (100, 200, 800)
    grid = []
    for work in work_grid:
        line = result.new_series(f"work={work}")
        for threads in threads_grid:
            config = SystemConfig(
                mechanism=AccessMechanism.PREFETCH,
                threads_per_core=threads,
                device=DeviceConfig(total_latency_us=1.0),
            )
            job = SweepJob(
                config=config,
                spec=MicrobenchSpec(work_count=work),
                window=_WINDOW,
            )
            grid.append((line, threads, job))
    _run_normalized("fig4", grid, engine)
    return result


# ---------------------------------------------------------------------------
# Figure 5: multicore prefetch-based access
# ---------------------------------------------------------------------------

def fig5(scale: str = "quick", engine: Optional[SweepEngine] = None) -> FigureResult:
    """Multicore prefetch-based access (the 14-entry chip queue cap)."""
    result = FigureResult(
        "fig5",
        "Multicore prefetch-based access with various latencies",
        xlabel="threads per core",
        ylabel="normalized work IPC (vs 1-core DRAM baseline)",
    )
    threads_grid = _threads_grid(
        scale, full=(1, 2, 4, 6, 8, 10, 12, 16), quick=(1, 2, 4, 8, 16)
    )
    latencies = (1.0, 4.0) if scale == "quick" else (1.0, 2.0, 4.0)
    grid = []
    for latency_us in latencies:
        for cores in (1, 2, 4, 8):
            line = result.new_series(f"{latency_us:g}us/{cores}core")
            for threads in threads_grid:
                config = SystemConfig(
                    mechanism=AccessMechanism.PREFETCH,
                    cores=cores,
                    threads_per_core=threads,
                    device=DeviceConfig(total_latency_us=latency_us),
                )
                job = SweepJob(
                    config=config,
                    spec=MicrobenchSpec(work_count=DEFAULT_WORK),
                    window=_WINDOW,
                )
                grid.append((line, threads, job))
    _run_normalized("fig5", grid, engine)
    return result


# ---------------------------------------------------------------------------
# Figure 6: prefetch with memory-level parallelism
# ---------------------------------------------------------------------------

def fig6(scale: str = "quick", engine: Optional[SweepEngine] = None) -> FigureResult:
    """1 us prefetch-based access at MLP 1 / 2 / 4 ("n-read")."""
    result = FigureResult(
        "fig6",
        "1us prefetch-based access at various levels of MLP",
        xlabel="threads",
        ylabel="normalized work IPC (matching-MLP baseline)",
    )
    threads_grid = _threads_grid(
        scale, full=tuple(range(1, 17)), quick=(1, 2, 3, 4, 5, 8, 10, 16)
    )
    grid = []
    for reads in (1, 2, 4):
        line = result.new_series(f"{reads}-read")
        for threads in threads_grid:
            config = SystemConfig(
                mechanism=AccessMechanism.PREFETCH,
                threads_per_core=threads,
                device=DeviceConfig(total_latency_us=1.0),
            )
            job = SweepJob(
                config=config,
                spec=MicrobenchSpec(
                    work_count=DEFAULT_WORK, reads_per_batch=reads
                ),
                window=_WINDOW,
            )
            grid.append((line, threads, job))
    _run_normalized("fig6", grid, engine)
    return result


# ---------------------------------------------------------------------------
# Figure 7: application-managed queues vs prefetch
# ---------------------------------------------------------------------------

def fig7(scale: str = "quick", engine: Optional[SweepEngine] = None) -> FigureResult:
    """SWQ vs prefetch at 1 us and 4 us."""
    result = FigureResult(
        "fig7",
        "Application-managed queues vs prefetch-based access",
        xlabel="threads",
        ylabel="normalized work IPC",
    )
    threads_grid = _threads_grid(
        scale,
        full=(1, 2, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32),
        quick=(1, 4, 8, 10, 16, 24, 32),
    )
    grid = []
    for mechanism, tag in (
        (AccessMechanism.PREFETCH, "prefetch"),
        (AccessMechanism.SOFTWARE_QUEUE, "swq"),
    ):
        for latency_us in (1.0, 4.0):
            line = result.new_series(f"{tag}/{latency_us:g}us")
            for threads in threads_grid:
                config = SystemConfig(
                    mechanism=mechanism,
                    threads_per_core=threads,
                    device=DeviceConfig(total_latency_us=latency_us),
                )
                job = SweepJob(
                    config=config,
                    spec=MicrobenchSpec(work_count=DEFAULT_WORK),
                    window=_WINDOW,
                )
                grid.append((line, threads, job))
    _run_normalized("fig7", grid, engine)
    return result


# ---------------------------------------------------------------------------
# Figure 8: multicore software-managed queues
# ---------------------------------------------------------------------------

def fig8(scale: str = "quick", engine: Optional[SweepEngine] = None) -> FigureResult:
    """Multicore SWQ (the PCIe request-rate wall at eight cores)."""
    result = FigureResult(
        "fig8",
        "Multicore comparison of software-managed queues",
        xlabel="threads per core",
        ylabel="normalized work IPC (vs 1-core DRAM baseline)",
    )
    threads_grid = _threads_grid(
        scale, full=(4, 8, 12, 16, 20, 24, 32), quick=(4, 8, 16, 24, 32)
    )
    grid = []
    for latency_us in (1.0, 4.0):
        for cores in (1, 2, 4, 8):
            line = result.new_series(f"{latency_us:g}us/{cores}core")
            for threads in threads_grid:
                config = SystemConfig(
                    mechanism=AccessMechanism.SOFTWARE_QUEUE,
                    cores=cores,
                    threads_per_core=threads,
                    device=DeviceConfig(total_latency_us=latency_us),
                )
                job = SweepJob(
                    config=config,
                    spec=MicrobenchSpec(work_count=DEFAULT_WORK),
                    window=_WINDOW,
                )
                grid.append((line, threads, job))
    _run_normalized("fig8", grid, engine)
    return result


# ---------------------------------------------------------------------------
# Figure 9: software-managed queues with MLP
# ---------------------------------------------------------------------------

def fig9(scale: str = "quick", engine: Optional[SweepEngine] = None) -> FigureResult:
    """SWQ at MLP 1 / 2 / 4, one core and four cores."""
    result = FigureResult(
        "fig9",
        "Impact of MLP on software-managed queues",
        xlabel="threads per core",
        ylabel="normalized work IPC (matching-MLP baseline)",
    )
    threads_grid = _threads_grid(
        scale, full=(2, 4, 8, 12, 16, 24, 32), quick=(4, 8, 16, 24, 32)
    )
    grid = []
    for cores, panel in ((1, "1core"), (4, "4core")):
        for reads in (1, 2, 4):
            line = result.new_series(f"{panel}/{reads}-read")
            for threads in threads_grid:
                config = SystemConfig(
                    mechanism=AccessMechanism.SOFTWARE_QUEUE,
                    cores=cores,
                    threads_per_core=threads,
                    device=DeviceConfig(total_latency_us=1.0),
                )
                job = SweepJob(
                    config=config,
                    spec=MicrobenchSpec(
                        work_count=DEFAULT_WORK, reads_per_batch=reads
                    ),
                    window=_WINDOW,
                )
                grid.append((line, threads, job))
    _run_normalized("fig9", grid, engine)
    return result


# ---------------------------------------------------------------------------
# Figure 10: application case studies
# ---------------------------------------------------------------------------

def fig10(scale: str = "quick", engine: Optional[SweepEngine] = None) -> FigureResult:
    """BFS / Bloom / Memcached / 4-read microbench, four panels:
    (a) prefetch 1-core, (b) SWQ 1-core, (c) prefetch 8-core,
    (d) SWQ 8-core -- all at 1 us."""
    result = FigureResult(
        "fig10",
        "Application benchmarks at 1us (panels a-d)",
        xlabel="threads per core",
        ylabel="normalized performance (vs 1-thread DRAM baseline)",
    )
    threads_grid = _threads_grid(
        scale, full=(1, 2, 4, 8, 16, 32), quick=(1, 4, 16)
    )
    panels = (
        ("a", AccessMechanism.PREFETCH, 1),
        ("b", AccessMechanism.SOFTWARE_QUEUE, 1),
        ("c", AccessMechanism.PREFETCH, 8),
        ("d", AccessMechanism.SOFTWARE_QUEUE, 8),
    )
    ops = 48 if scale == "full" else 24
    vertices = 2048 if scale == "full" else 1024
    grid = []
    for panel, mechanism, cores in panels:
        for app in APPLICATIONS:
            params = default_params(app, ops_per_thread=ops, bfs_vertices=vertices)
            line = result.new_series(f"{panel}/{app}")
            for threads in threads_grid:
                config = SystemConfig(
                    mechanism=mechanism,
                    cores=cores,
                    threads_per_core=threads,
                    device=DeviceConfig(total_latency_us=1.0),
                )
                job = SweepJob(config=config, app=app, params=params)
                grid.append((line, threads, job))
    _run_normalized("fig10", grid, engine)
    return result


# ---------------------------------------------------------------------------
# Figure A (beyond the paper): open-loop tail latency vs offered load
# ---------------------------------------------------------------------------

#: Services need a longer steady-state window than the closed-loop
#: microbenchmarks: the tail percentiles are computed from the requests
#: *completing inside* the window, so the window must hold enough
#: arrivals for a p99 to be meaningful.
_SLO_WINDOW = MeasureWindow(warmup_us=40.0, measure_us=400.0)

#: Polling service workers per logical core (the fig8 regime where SWQ
#: keeps the device busy: enough threads to overlap many accesses).
_SLO_WORKERS = 16

#: Queue-sizing policies under test, as per-core SWQ ring entries.  At
#: 1 us device latency the paper's rule (section V-B) wants ~20
#: entries per core (~20 x latency_us x cores chip-wide); rings must
#: be powers of two, so 32 satisfies the rule and 8 violates it.
_SLO_POLICIES = (("under-rule", 8), ("rule-sized", 32))

#: Sojourn quantiles reported per curve.
_SLO_QUANTILES = (("p50", "p50_ns"), ("p99", "p99_ns"), ("p999", "p999_ns"))


def figA_slo(
    scale: str = "quick", engine: Optional[SweepEngine] = None
) -> FigureResult:
    """Open-loop Poisson load on the fig8 multicore SWQ configuration.

    X-axis: offered load (requests per microsecond per core); curves:
    p50/p99/p999 end-to-end sojourn time (microseconds, measurement
    window only) for each queue-sizing policy and core count.  This is
    the figure the paper does not have: what the closed-loop thread
    sweeps hide is exactly where tail latency becomes binding when
    requests keep arriving regardless of completion.
    """
    result = FigureResult(
        "figA_slo",
        "Open-loop tail latency vs offered load (SWQ, 1us device)",
        xlabel="offered load (requests/us/core)",
        ylabel="sojourn latency (us)",
    )
    cores_grid = (1, 2, 4, 8) if scale == "full" else (1, 8)
    loads = (
        (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
        if scale == "full"
        else (0.1, 0.2, 0.3)
    )
    engine = _resolve_engine(engine)
    sweep = SweepSpec("figA_slo")
    grid = []
    for policy, ring_entries in _SLO_POLICIES:
        for cores in cores_grid:
            lines = {
                key: result.new_series(f"{policy}/{cores}core/{key}")
                for key, _field in _SLO_QUANTILES
            }
            for load in loads:
                config = SystemConfig(
                    mechanism=AccessMechanism.SOFTWARE_QUEUE,
                    cores=cores,
                    threads_per_core=_SLO_WORKERS,
                    device=DeviceConfig(total_latency_us=1.0),
                    swq=SwqConfig(ring_entries=ring_entries),
                )
                service = ServiceParams(
                    open_loop=OpenLoopSpec(
                        arrivals=ArrivalSpec(rate_per_us=load),
                        keys=KeySpec(theta=0.0),
                    ),
                    workers_per_core=_SLO_WORKERS,
                )
                job = sweep.add(
                    SweepJob(config=config, service=service, window=_SLO_WINDOW)
                )
                grid.append((lines, load, job))
    outcomes = engine.run(sweep)
    ns_per_us = US / NS
    for (lines, load, _job), outcome in zip(grid, outcomes):
        payload = _checked_payload(outcome)
        for key, payload_field in _SLO_QUANTILES:
            lines[key].add(load, payload[payload_field] / ns_per_us)
    return result


def queue_rule_report(figure: FigureResult) -> dict:
    """Does the ~20 x latency_us x cores queue-sizing rule hold?

    For every core count in a :func:`figA_slo` result, compares the
    rule-sized and under-rule p99 curves at the highest common offered
    load.  The rule "holds" for a core count when the rule-sized queue
    meets or beats the undersized one at the tail (it may tie when the
    load is too light for the ring to ever fill).
    """
    per_cores: dict[int, dict] = {}
    for line in figure.series:
        policy, cores_tag, quantile = line.label.split("/")
        if quantile != "p99":
            continue
        cores = int(cores_tag.removesuffix("core"))
        x, y = line.points[-1]
        entry = per_cores.setdefault(cores, {"offered_per_core_us": x})
        entry[policy] = y
    for cores, entry in per_cores.items():
        entry["holds"] = entry["rule-sized"] <= entry["under-rule"] * 1.001
    return {
        "rule": "~20 x latency_us x cores total SWQ entries",
        "per_cores": per_cores,
        "holds": all(entry["holds"] for entry in per_cores.values()),
    }


#: Registry used by the report example and the benchmark suite.
ALL_FIGURES = {
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "figA_slo": figA_slo,
}
