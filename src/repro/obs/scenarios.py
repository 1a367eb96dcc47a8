"""Representative single-run trace scenarios for each paper figure.

``repro trace --figure figN`` traces *one* characteristic grid point of
figure N rather than the whole sweep -- a timeline of a 100-point grid
would be unreadable, while one well-chosen run shows the figure's
mechanism directly (ROB stalls for Figure 2, the 10-LFB plateau for
Figure 3, descriptor-fetch pipelining for Figure 7, ...).  Each
scenario is a figure-sweep point built by
:func:`~repro.harness.figures.microbench_job`, so it shares the
figures' work count and window, and its ``label`` describes it.
"""

from __future__ import annotations

from repro.config import AccessMechanism
from repro.harness.figures import microbench_job
from repro.harness.sweep import SweepJob

__all__ = ["TRACE_SCENARIOS", "trace_scenario"]

TRACE_SCENARIOS: dict[str, SweepJob] = {
    "fig2": microbench_job(
        AccessMechanism.ON_DEMAND, threads=1,
        label="on-demand 1-thread at 1us: ROB fills and dispatch stalls",
    ),
    "fig3": microbench_job(
        AccessMechanism.PREFETCH, threads=10,
        label="prefetch 10-thread at 1us: all 10 LFBs in flight (DRAM parity)",
    ),
    "fig4": microbench_job(
        AccessMechanism.PREFETCH, threads=8, work=800,
        label="prefetch 8-thread at work=800: work-bound, LFBs under-used",
    ),
    "fig5": microbench_job(
        AccessMechanism.PREFETCH, threads=8, cores=4,
        label="prefetch 4-core x 8-thread: the 14-entry chip queue saturates",
    ),
    "fig6": microbench_job(
        AccessMechanism.PREFETCH, threads=8, reads=4,
        label="prefetch 8-thread at MLP 4: batched fills share LFB residency",
    ),
    "fig7": microbench_job(
        AccessMechanism.SOFTWARE_QUEUE, threads=16,
        label="software-queue 16-thread at 1us: descriptor-fetch pipeline",
    ),
    "fig8": microbench_job(
        AccessMechanism.SOFTWARE_QUEUE, threads=16, cores=4,
        label="software-queue 4-core x 16-thread: PCIe request-rate wall",
    ),
    "fig9": microbench_job(
        AccessMechanism.SOFTWARE_QUEUE, threads=16, reads=4,
        label="software-queue 16-thread at MLP 4: batched descriptors",
    ),
    # Figure 10 sweeps whole applications; its free-running stand-in
    # here is the 4-read microbenchmark on the figure's largest
    # configuration (software-queue panel d), which exercises the same
    # SWQ + multi-core contention the application panels measure.
    "fig10": microbench_job(
        AccessMechanism.SOFTWARE_QUEUE, threads=4, cores=8, reads=4,
        label="software-queue 8-core x 4-thread at MLP 4: the application-"
        "study configuration (4-read microbenchmark stand-in)",
    ),
}


def trace_scenario(name: str) -> SweepJob:
    try:
        return TRACE_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"no trace scenario for {name!r}; "
            f"choices: {sorted(TRACE_SCENARIOS)}"
        )
