"""Ablation: the emulator's replay design (section IV-A).

"The complexity of this design is necessary to ensure that the
internal device logic does not become the limiting factor when we
increase the number of parallel device requests."  An emulator serving
on-demand from its slow on-board DRAM misses response deadlines as
parallelism grows; the streamed replay design does not.
"""

from repro.config import AccessMechanism, DeviceConfig, SystemConfig
from repro.device.replay import AccessTrace
from repro.harness.figures import FigureResult
from repro.host.system import System
from repro.workloads.microbench import MicrobenchSpec, install_microbench


def run_emulator(threads, mode):
    """Returns (deadline_miss_fraction, completion_ticks)."""
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH,
        threads_per_core=threads,
        device=DeviceConfig(total_latency_us=1.0),
    )
    spec = MicrobenchSpec(work_count=200, iterations=150)

    if mode == "replay":
        recorder = System(config)
        install_microbench(recorder, spec, threads)
        recorder.device.start_recording()
        recorder.run_to_completion(limit_ticks=10**11)
        traces = recorder.device.stop_recording()

    system = System(config)
    install_microbench(system, spec, threads)
    if mode == "replay":
        system.device.load_traces(traces, streamed=True)
    elif mode == "on-demand-only":
        system.device.load_traces({0: AccessTrace()}, streamed=False)
    ticks = system.run_to_completion(limit_ticks=10**11)
    served = system.device.requests_served
    return system.device.delay.deadline_misses / served, ticks


def sweep(scale):
    figure = FigureResult(
        "ablation-emulator",
        "Emulator deadline misses: streamed replay vs on-demand-only",
        xlabel="threads",
        ylabel="fraction of responses missing the 1us deadline",
    )
    grid = (1, 4, 10) if scale == "full" else (1, 10)
    for mode in ("replay", "on-demand-only"):
        line = figure.new_series(mode)
        for threads in grid:
            fraction, _ = run_emulator(threads, mode)
            line.add(threads, fraction)
    return figure


def test_replay_design_meets_deadlines(benchmark, scale, publish):
    figure = benchmark.pedantic(sweep, args=(scale,), rounds=1, iterations=1)
    publish(figure)
    # The paper's design: essentially no deadline misses at any
    # parallelism.
    assert figure.get("replay").peak() < 0.01
    # The rejected design: the on-board DRAM random-access path cannot
    # produce data inside the delay budget.
    assert figure.get("on-demand-only").y_at(10) > 0.9
