#!/usr/bin/env python3
"""The paper's two-run replay methodology, end to end.

The FPGA's on-board DRAM is too slow to serve random reads at device
rate, so the paper (section IV-A) records each experiment's access
sequence, preloads it over PCIe with a DMA engine, and *streams* it
ahead of the host's requests during the measured second run.

This example: (1) records a trace during a functional run, (2) models
the DMA preload, (3) re-runs in replay mode and shows that every
response met its latency deadline -- then (4) shows what the paper
avoided, an emulator serving on-demand from on-board DRAM, whose
random-access path cannot keep up.

Run:  python examples/replay_methodology.py
"""

from repro import AccessMechanism, DeviceConfig, MicrobenchSpec, SystemConfig
from repro.config import OnboardDramConfig
from repro.device.emulator import DmaEngine
from repro.host.system import System
from repro.units import to_us
from repro.workloads.microbench import install_microbench


def build(threads, spec):
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH,
        threads_per_core=threads,
        device=DeviceConfig(total_latency_us=1.0),
    )
    system = System(config)
    install_microbench(system, spec, threads)
    return system


def main() -> None:
    threads = 10
    spec = MicrobenchSpec(work_count=200, iterations=300)

    # -- Run 1: functional, with trace recording -------------------------------
    system = build(threads, spec)
    system.device.start_recording()
    system.run_to_completion(limit_ticks=10**11)
    traces = system.device.stop_recording()
    recorded = sum(len(trace) for trace in traces.values())
    print(f"run 1 (record): {recorded} accesses recorded")

    # -- DMA preload of the recorded traces ------------------------------------
    loader_system = build(threads, spec)
    engine = DmaEngine(
        loader_system.sim,
        loader_system.link,
        loader_system.device.stream_channel,
    )

    def preload_all():
        total = 0
        for trace in traces.values():
            total += yield from engine.preload(trace)
        return total

    load_ticks = loader_system.sim.run(loader_system.sim.process(preload_all()))
    print(
        f"preload: {engine.bytes_loaded} bytes over PCIe + on-board DRAM "
        f"in {to_us(load_ticks):.1f} us (simulated)"
    )

    # -- Run 2: replay mode (the measured run) ---------------------------------
    system = build(threads, spec)
    system.device.load_traces(traces, streamed=True)
    ticks = system.run_to_completion(limit_ticks=10**11)
    replay = system.device.replay_modules[0]
    delay = system.device.delay
    print(
        f"run 2 (replay): {to_us(ticks):.1f} us, "
        f"{replay.matches} window matches "
        f"({replay.in_order_matches} in order, "
        f"{replay.reordered_matches} reordered), "
        f"{replay.spurious_requests} spurious, "
        f"{delay.deadline_misses} deadline misses"
    )

    # -- The design the paper rejected: on-demand from on-board DRAM ------------
    slow = OnboardDramConfig(latency_ns=200.0, bandwidth_bytes_per_s=6.4e9)
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH,
        threads_per_core=threads,
        device=DeviceConfig(total_latency_us=1.0),
        onboard_dram=slow,
    )
    system = System(config)
    install_microbench(system, spec, threads)
    # Arm replay with EMPTY traces: every request misses the window and
    # falls back to the on-demand module's on-board DRAM reads.
    from repro.device.replay import AccessTrace

    system.device.load_traces(
        {core: AccessTrace() for core in range(1)}, streamed=False
    )
    ticks = system.run_to_completion(limit_ticks=10**11)
    print(
        f"on-demand-only emulator: {to_us(ticks):.1f} us for the same work, "
        f"{system.device.delay.deadline_misses} deadline misses "
        f"(why the paper built replay)"
    )


if __name__ == "__main__":
    main()
