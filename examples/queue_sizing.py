#!/usr/bin/env python3
"""The paper's remedy: size the hardware queues to the latency.

Section V-B's back-of-the-envelope rule: per-core queues need about
``20 x latency_us`` entries, and chip-level shared queues about
``20 x latency_us x cores``.  This example sweeps the line-fill buffer
count and the chip-level queue and shows the prefetch mechanism
climbing to (and past) DRAM parity once the queues stop binding --
"conventional architectures can effectively hide microsecond-level
latencies".

Run:  python examples/queue_sizing.py
"""

from repro import (
    AccessMechanism,
    CpuConfig,
    DeviceConfig,
    MicrobenchSpec,
    SystemConfig,
    UncoreConfig,
)
from repro.harness import MeasureWindow, SweepJob, normalized


def sweep_lfb(latency_us: float) -> None:
    print(f"\nPer-core queue (LFB) sweep, {latency_us:g} us device, one core:")
    print(f"{'LFBs':>6s} {'threads':>8s} {'normalized work IPC':>21s}")
    rule = int(20 * latency_us)
    for lfbs in (10, 20, rule, 2 * rule):
        threads = max(12, lfbs + 4)
        config = SystemConfig(
            mechanism=AccessMechanism.PREFETCH,
            threads_per_core=threads,
            cpu=CpuConfig(lfb_entries=lfbs),
            uncore=UncoreConfig(pcie_queue_entries=max(14, 4 * lfbs)),
            device=DeviceConfig(total_latency_us=latency_us),
        )
        value, _ = normalized(SweepJob(
            config=config, spec=MicrobenchSpec(work_count=200),
            window=MeasureWindow(warmup_us=40, measure_us=120),
        ))
        tag = "  <- stock Xeon" if lfbs == 10 else ""
        print(f"{lfbs:>6d} {threads:>8d} {value:>21.3f}{tag}")


def sweep_chip_queue() -> None:
    cores = 8
    latency_us = 1.0
    print(f"\nChip-level queue sweep, {latency_us:g} us device, {cores} cores, "
          f"16 threads/core (normalized to the 1-core DRAM baseline):")
    print(f"{'chip queue':>11s} {'normalized work IPC':>21s}")
    rule = int(20 * latency_us * cores)
    for entries in (14, 40, rule, 2 * rule):
        config = SystemConfig(
            mechanism=AccessMechanism.PREFETCH,
            cores=cores,
            threads_per_core=16,
            cpu=CpuConfig(lfb_entries=20),
            uncore=UncoreConfig(pcie_queue_entries=entries),
            device=DeviceConfig(total_latency_us=latency_us),
        )
        value, _ = normalized(SweepJob(
            config=config, spec=MicrobenchSpec(work_count=200),
            window=MeasureWindow(warmup_us=40, measure_us=120),
        ))
        tag = "  <- stock Xeon" if entries == 14 else ""
        print(f"{entries:>11d} {value:>21.3f}{tag}")


def main() -> None:
    print("Rule of thumb (section V-B): ~20 in-flight accesses per core per")
    print("microsecond of device latency; chip queues scaled by core count.")
    sweep_lfb(1.0)
    sweep_lfb(4.0)
    sweep_chip_queue()


if __name__ == "__main__":
    main()
