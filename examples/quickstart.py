#!/usr/bin/env python3
"""Quickstart: measure one microsecond-latency device configuration.

Builds the paper's platform (Xeon-like host + 1 us PCIe device), runs
the microbenchmark under each access mechanism, and prints the
normalized work IPC -- the headline metric of "Taming the Killer
Microsecond" (MICRO 2018).

Run:  python examples/quickstart.py
"""

from repro import (
    AccessMechanism,
    DeviceConfig,
    MicrobenchSpec,
    SystemConfig,
)
from repro.harness import MeasureWindow, SweepJob, normalized


def main() -> None:
    spec = MicrobenchSpec(work_count=200)
    window = MeasureWindow(warmup_us=30, measure_us=100)
    device = DeviceConfig(total_latency_us=1.0)

    print("Microbenchmark, work-count 200, 1 us device, 10 threads/core")
    print(f"{'mechanism':18s} {'normalized work IPC':>20s} {'in-flight peak':>15s}")
    for mechanism in (
        AccessMechanism.ON_DEMAND,
        AccessMechanism.PREFETCH,
        AccessMechanism.SOFTWARE_QUEUE,
        AccessMechanism.KERNEL_QUEUE,
    ):
        threads = 1 if mechanism is AccessMechanism.ON_DEMAND else 10
        config = SystemConfig(
            mechanism=mechanism, threads_per_core=threads, device=device
        )
        value, run = normalized(SweepJob(config=config, spec=spec, window=window))
        in_flight = max(run.report["lfb_max_per_core"])
        print(f"{mechanism.value:18s} {value:>20.3f} {in_flight:>15d}")

    print()
    print("Reading the table:")
    print(" * on-demand loads collapse -- the ROB fills behind the miss;")
    print(" * prefetch + user-level threading reaches DRAM parity, pinned")
    print("   by the 10 line-fill buffers per core;")
    print(" * software queues scale past the LFBs but pay ~2x in software")
    print("   overhead; kernel queues pay microseconds per access.")

    # -- and the paper's remedy, in two lines of config -----------------------
    from repro import CpuConfig, DeviceAttachment, UncoreConfig

    fixed = SystemConfig(
        mechanism=AccessMechanism.PREFETCH,
        threads_per_core=24,
        cpu=CpuConfig(lfb_entries=20),                # 20 x latency_us
        uncore=UncoreConfig(dram_queue_entries=48),
        device=DeviceConfig(
            total_latency_us=1.0,
            attachment=DeviceAttachment.MEMORY_BUS,   # section V-B's hint
        ),
    )
    value, _ = normalized(SweepJob(config=fixed, spec=spec, window=window))
    print()
    print(f"with sized queues + memory-bus attach: {value:.3f}x DRAM --")
    print("'conventional architectures can effectively hide")
    print(" microsecond-level latencies' (section VII).")


if __name__ == "__main__":
    main()
