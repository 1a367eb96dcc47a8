"""Ablation: the paper's queue-sizing rule (section V-B implications).

"Each microsecond of latency can be effectively hidden by 10-20
in-flight device accesses per core.  Therefore, the per-core queues
should be provisioned for approximately 20 x expected-device-latency-
in-microseconds parallel accesses.  Chip-level shared queues should
support 20 x latency x cores-per-chip."
"""

from repro.config import (
    AccessMechanism,
    CpuConfig,
    DeviceConfig,
    SystemConfig,
    UncoreConfig,
)
from repro.harness.experiment import MeasureWindow
from repro.harness.figures import FigureResult
from repro.harness.sweep import SweepJob, normalized
from repro.workloads.microbench import MicrobenchSpec

WINDOW = MeasureWindow(warmup_us=40.0, measure_us=120.0)
SPEC = MicrobenchSpec(work_count=200)


def run_point(lfbs, chip_queue, threads, latency_us, cores=1):
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH,
        cores=cores,
        threads_per_core=threads,
        cpu=CpuConfig(lfb_entries=lfbs),
        uncore=UncoreConfig(pcie_queue_entries=chip_queue),
        device=DeviceConfig(total_latency_us=latency_us),
    )
    value, _ = normalized(SweepJob(config=config, spec=SPEC, window=WINDOW))
    return value


def sweep_lfb(scale):
    figure = FigureResult(
        "ablation-lfb",
        "Per-core queue (LFB) sizing vs the 20x-latency rule",
        xlabel="LFB entries",
        ylabel="normalized work IPC",
    )
    for latency_us in (1.0, 4.0):
        line = figure.new_series(f"{latency_us:g}us")
        rule = int(20 * latency_us)
        sizes = (10, rule // 2, rule, 2 * rule) if scale == "full" else (10, rule)
        for lfbs in sorted(set(sizes)):
            line.add(lfbs, run_point(lfbs, max(14, 4 * lfbs), lfbs + 4, latency_us))
    return figure


def sweep_chip(scale):
    figure = FigureResult(
        "ablation-chipq",
        "Chip-level queue sizing, 8 cores at 1us",
        xlabel="chip queue entries",
        ylabel="normalized work IPC (vs 1-core baseline)",
    )
    line = figure.new_series("1us/8core")
    rule = 20 * 1 * 8
    sizes = (14, 40, rule, 2 * rule) if scale == "full" else (14, rule)
    for entries in sizes:
        line.add(
            entries,
            run_point(20, entries, threads=16, latency_us=1.0, cores=8),
        )
    return figure


def test_lfb_sweep(benchmark, scale, publish):
    figure = benchmark.pedantic(sweep_lfb, args=(scale,), rounds=1, iterations=1)
    publish(figure)
    for latency_us in (1.0, 4.0):
        series = figure.get(f"{latency_us:g}us")
        rule = int(20 * latency_us)
        stock = series.y_at(10)
        sized = series.y_at(rule)
        # The rule restores DRAM parity (and some) at both latencies.
        assert sized > 0.95
        if latency_us > 1:
            assert stock < 0.35  # stock hardware is far from parity


def test_chip_queue_sweep(benchmark, scale, publish):
    figure = benchmark.pedantic(sweep_chip, args=(scale,), rounds=1, iterations=1)
    publish(figure)
    series = figure.get("1us/8core")
    stock = series.y_at(14)
    sized = series.y_at(160)
    # 8 cores: the sized queue unlocks > 3x the stock aggregate.
    assert sized > 3 * stock
