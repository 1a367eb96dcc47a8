"""Representative single-run trace scenarios for each paper figure.

``repro trace --figure figN`` traces *one* characteristic grid point of
figure N rather than the whole sweep -- a timeline of a 100-point grid
would be unreadable, while one well-chosen run shows the figure's
mechanism directly (ROB stalls for Figure 2, the 10-LFB plateau for
Figure 3, descriptor-fetch pipelining for Figure 7, ...).  Each
scenario is a microbench :class:`~repro.harness.sweep.SweepJob` whose
``label`` describes it.
"""

from __future__ import annotations

from repro.config import AccessMechanism, DeviceConfig, SystemConfig
from repro.harness.experiment import MeasureWindow
from repro.harness.sweep import SweepJob
from repro.workloads.microbench import MicrobenchSpec

__all__ = ["TRACE_SCENARIOS", "trace_scenario"]

#: Matches the figure sweeps' work-count (harness.figures.DEFAULT_WORK).
_WORK = 200


def _scenario(
    description: str,
    mechanism: AccessMechanism,
    threads: int,
    cores: int = 1,
    latency_us: float = 1.0,
    work: int = _WORK,
    mlp: int = 1,
    window: MeasureWindow = MeasureWindow(warmup_us=30.0, measure_us=100.0),
) -> SweepJob:
    return SweepJob(
        config=SystemConfig(
            mechanism=mechanism,
            cores=cores,
            threads_per_core=threads,
            device=DeviceConfig(total_latency_us=latency_us),
        ),
        spec=MicrobenchSpec(work_count=work, reads_per_batch=mlp),
        window=window,
        label=description,
    )


TRACE_SCENARIOS: dict[str, SweepJob] = {
    "fig2": _scenario(
        "on-demand 1-thread at 1us: ROB fills and dispatch stalls",
        AccessMechanism.ON_DEMAND,
        threads=1,
    ),
    "fig3": _scenario(
        "prefetch 10-thread at 1us: all 10 LFBs in flight (DRAM parity)",
        AccessMechanism.PREFETCH,
        threads=10,
    ),
    "fig4": _scenario(
        "prefetch 8-thread at work=800: work-bound, LFBs under-used",
        AccessMechanism.PREFETCH,
        threads=8,
        work=800,
    ),
    "fig5": _scenario(
        "prefetch 4-core x 8-thread: the 14-entry chip queue saturates",
        AccessMechanism.PREFETCH,
        threads=8,
        cores=4,
    ),
    "fig6": _scenario(
        "prefetch 8-thread at MLP 4: batched fills share LFB residency",
        AccessMechanism.PREFETCH,
        threads=8,
        mlp=4,
    ),
    "fig7": _scenario(
        "software-queue 16-thread at 1us: descriptor-fetch pipeline",
        AccessMechanism.SOFTWARE_QUEUE,
        threads=16,
    ),
    "fig8": _scenario(
        "software-queue 4-core x 16-thread: PCIe request-rate wall",
        AccessMechanism.SOFTWARE_QUEUE,
        threads=16,
        cores=4,
    ),
    "fig9": _scenario(
        "software-queue 16-thread at MLP 4: batched descriptors",
        AccessMechanism.SOFTWARE_QUEUE,
        threads=16,
        mlp=4,
    ),
    # Figure 10 sweeps whole applications; its free-running stand-in
    # here is the 4-read microbenchmark on the figure's largest
    # configuration (software-queue panel d), which exercises the same
    # SWQ + multi-core contention the application panels measure.
    "fig10": _scenario(
        "software-queue 8-core x 4-thread at MLP 4: the application-"
        "study configuration (4-read microbenchmark stand-in)",
        AccessMechanism.SOFTWARE_QUEUE,
        threads=4,
        cores=8,
        mlp=4,
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
