"""Ablation: PCIe vs memory-interconnect device attachment (§V-B).

"It appears that shared hardware queues on the DRAM access path are
larger than on the PCIe path.  Therefore, integrating microsecond-
latency devices on the memory interconnect in conjunction with larger
per-core LFB queues may be a step in the right direction."
"""

from repro.config import (
    AccessMechanism,
    CpuConfig,
    DeviceAttachment,
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


def run_point(attachment, cores, lfbs, threads, bus_queue=48):
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH,
        cores=cores,
        threads_per_core=threads,
        cpu=CpuConfig(lfb_entries=lfbs),
        uncore=UncoreConfig(dram_queue_entries=bus_queue),
        device=DeviceConfig(total_latency_us=1.0, attachment=attachment),
    )
    value, _ = normalized(SweepJob(config=config, spec=SPEC, window=WINDOW))
    return value


def sweep(scale):
    figure = FigureResult(
        "ablation-attachment",
        "PCIe vs memory-bus attachment, prefetch at 1us, 8 cores",
        xlabel="threads per core",
        ylabel="normalized work IPC (vs 1-core baseline)",
    )
    grid = (2, 4, 8, 16) if scale == "full" else (4, 16)
    variants = (
        # Stock PCIe attach: 10 LFBs, 14-entry chip queue.
        ("pcie/stock", DeviceAttachment.PCIE, 10, 48),
        # Memory-bus attach, otherwise stock: the deeper (48-entry)
        # DRAM-style queue becomes the binding resource.
        ("membus/stock", DeviceAttachment.MEMORY_BUS, 10, 48),
        # The full section V-B recipe: 20x-latency LFBs AND a
        # 20 x latency x cores shared queue.
        ("membus/sized", DeviceAttachment.MEMORY_BUS, 20, 160),
    )
    for label, attachment, lfbs, bus_queue in variants:
        line = figure.new_series(label)
        for threads in grid:
            line.add(threads, run_point(attachment, 8, lfbs, threads, bus_queue))
    return figure


def test_memory_bus_attachment_lifts_the_chip_queue_wall(
    benchmark, scale, publish
):
    figure = benchmark.pedantic(sweep, args=(scale,), rounds=1, iterations=1)
    publish(figure)
    pcie = figure.get("pcie/stock").peak()
    membus = figure.get("membus/stock").peak()
    sized = figure.get("membus/sized").peak()
    # The DRAM-path queue (48) more than triples the PCIe path's 14.
    assert membus > 2.5 * pcie
    # The full sizing recipe approaches linear 8-core scaling (~8x the
    # single-core DRAM baseline).
    assert sized > 6.0
    assert sized > 1.4 * membus
