"""Extension bench: device writes (the paper's future work, §VII).

"Because writes do not have return values, are often off the critical
path, and do not prevent context switching by blocking at the head of
the reorder buffer, their latency can be more easily hidden by later
instructions of the same thread without requiring prefetch
instructions."

This bench measures that conjecture on the reproduced platform: the
prefetch microbenchmark with 0-4 posted writes per iteration keeps
nearly all of its read-only throughput, until the write rate runs into
drain-path bandwidth.
"""

from repro.config import AccessMechanism, DeviceConfig, SystemConfig
from repro.harness.experiment import MeasureWindow, run_microbench
from repro.harness.figures import FigureResult
from repro.workloads.microbench import MicrobenchSpec

WINDOW = MeasureWindow(warmup_us=30.0, measure_us=100.0)


def sweep(scale):
    figure = FigureResult(
        "future-writes",
        "Posted writes per iteration vs prefetch throughput at 1us",
        xlabel="writes per iteration",
        ylabel="work IPC (absolute)",
    )
    writes_grid = (0, 1, 2, 4) if scale == "full" else (0, 1, 4)
    for mechanism, threads in (
        (AccessMechanism.PREFETCH, 10),
        (AccessMechanism.SOFTWARE_QUEUE, 16),
    ):
        line = figure.new_series(f"{mechanism.value}/{threads}thr")
        for writes in writes_grid:
            config = SystemConfig(
                mechanism=mechanism,
                threads_per_core=threads,
                device=DeviceConfig(total_latency_us=1.0),
            )
            spec = MicrobenchSpec(work_count=200, writes_per_batch=writes)
            line.add(writes, run_microbench(config, spec, WINDOW).payload["work_ipc"])
    return figure


def test_posted_writes_hide_behind_the_same_thread(benchmark, scale, publish):
    figure = benchmark.pedantic(sweep, args=(scale,), rounds=1, iterations=1)
    publish(figure)
    prefetch = figure.get("prefetch/10thr")
    # One posted write per read costs < 10% of throughput.
    assert prefetch.y_at(1) > 0.9 * prefetch.y_at(0)
    # Even 4 writes per read keep the mechanism within ~25%.
    assert prefetch.y_at(4) > 0.75 * prefetch.y_at(0)
    # SWQ writes cost an enqueue each, so they bite harder -- but the
    # thread still never waits on them.
    swq = figure.get("software-queue/16thr")
    assert swq.y_at(1) > 0.6 * swq.y_at(0)
