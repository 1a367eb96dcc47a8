"""Ablation: the SWQ interface optimizations (section III-A).

"An application-managed software queue, with a doorbell-request flag
and burst request reads, is in fact the best software-managed queue
design ... we experimented with mechanisms lacking one or both of
these optimizations and found them to be strictly inferior."
"""

from repro.config import (
    AccessMechanism,
    DeviceConfig,
    SwqConfig,
    SystemConfig,
)
from repro.harness.experiment import MeasureWindow
from repro.harness.figures import FigureResult
from repro.harness.sweep import SweepJob, normalized
from repro.workloads.microbench import MicrobenchSpec

WINDOW = MeasureWindow(warmup_us=40.0, measure_us=120.0)
SPEC = MicrobenchSpec(work_count=200)

VARIANTS = {
    "both-opts": SwqConfig(),
    "no-doorbell-flag": SwqConfig(doorbell_flag=False),
    "no-burst-reads": SwqConfig(burst_reads=False),
    "neither": SwqConfig(doorbell_flag=False, burst_reads=False),
}


def sweep(scale):
    figure = FigureResult(
        "ablation-swq-opts",
        "SWQ doorbell-flag / burst-read optimizations at 1us",
        xlabel="threads",
        ylabel="normalized work IPC",
    )
    threads_grid = (8, 16, 24, 32) if scale == "full" else (16, 32)
    for label, swq in VARIANTS.items():
        line = figure.new_series(label)
        for threads in threads_grid:
            config = SystemConfig(
                mechanism=AccessMechanism.SOFTWARE_QUEUE,
                threads_per_core=threads,
                device=DeviceConfig(total_latency_us=1.0),
                swq=swq,
            )
            value, _ = normalized(SweepJob(config=config, spec=SPEC, window=WINDOW))
            line.add(threads, value)
    return figure


def test_swq_optimizations_are_strictly_superior(benchmark, scale, publish):
    figure = benchmark.pedantic(sweep, args=(scale,), rounds=1, iterations=1)
    publish(figure)
    best = figure.get("both-opts").peak()
    for label in ("no-doorbell-flag", "no-burst-reads", "neither"):
        assert figure.get(label).peak() <= best * 1.02, label
    # Dropping both is clearly worse, not a wash.
    assert figure.get("neither").peak() < 0.9 * best
