"""Ablation: SMT for on-demand accesses (section III-B).

"SMT offers an additional benefit for on-demand accesses by allowing a
core to make progress in one context while another context is blocked
on a long-latency access ... however, the number of hardware contexts
is limited (with only two contexts per core available in the majority
of today's commodity server hardware), limiting the utility of this
mechanism."

SMT doubles on-demand throughput -- and still leaves it an order of
magnitude from the DRAM baseline, which takes 10+ contexts' worth of
parallelism to reach (the prefetch mechanism's whole point).
"""

import pytest

from repro.config import AccessMechanism, CpuConfig, DeviceConfig, SystemConfig
from repro.harness.experiment import MeasureWindow, run_microbench
from repro.harness.figures import FigureResult
from repro.workloads.microbench import MicrobenchSpec

WINDOW = MeasureWindow(warmup_us=30.0, measure_us=100.0)
SPEC = MicrobenchSpec(work_count=200)


def run_smt(contexts, mechanism=AccessMechanism.ON_DEMAND, threads=1):
    config = SystemConfig(
        mechanism=mechanism,
        threads_per_core=threads,
        cpu=CpuConfig(smt_contexts=contexts),
        device=DeviceConfig(total_latency_us=1.0),
    )
    return run_microbench(config, SPEC, WINDOW).payload["work_ipc"]


def sweep(scale):
    figure = FigureResult(
        "ablation-smt",
        "SMT contexts vs on-demand device access at 1us",
        xlabel="hardware contexts",
        ylabel="work IPC (absolute)",
    )
    line = figure.new_series("on-demand")
    contexts_grid = (1, 2, 4) if scale == "full" else (1, 2)
    for contexts in contexts_grid:
        line.add(contexts, run_smt(contexts))
    reference = figure.new_series("prefetch/10-threads (1 context)")
    reference.add(1, run_smt(1, AccessMechanism.PREFETCH, threads=10))
    return figure


def test_smt_helps_on_demand_but_not_enough(benchmark, scale, publish):
    figure = benchmark.pedantic(sweep, args=(scale,), rounds=1, iterations=1)
    publish(figure)
    on_demand = figure.get("on-demand")
    # Two contexts roughly double on-demand throughput...
    assert on_demand.y_at(2) == pytest.approx(2 * on_demand.y_at(1), rel=0.15)
    # ...but remain far below what prefetch + 10 user threads achieve
    # on a single context.
    prefetch = figure.get("prefetch/10-threads (1 context)").y_at(1)
    assert prefetch > 4 * on_demand.y_at(2)
