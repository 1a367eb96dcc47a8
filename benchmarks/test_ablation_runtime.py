"""Ablations on the software runtime (sections III-A and IV-B).

* Context-switch cost: "we were able to reduce the context switch
  overheads from 2 microseconds in the original Pth library to 20-50
  nanoseconds" -- with stock-Pth switching, prefetch-based access
  cannot hide microsecond latencies.
* Kernel-managed queues: per-access overheads of "tens ... of
  microseconds ... dwarf the access latency", which is why the paper
  drops them from evaluation.
* Prefetch drop-vs-queue policy: if the core silently dropped
  prefetches at full LFBs, oversubscribed thread counts would collapse
  instead of plateauing.
"""

import pytest

from repro.config import (
    AccessMechanism,
    CpuConfig,
    DeviceConfig,
    SystemConfig,
    ThreadingConfig,
)
from repro.harness.experiment import MeasureWindow
from repro.harness.figures import FigureResult
from repro.harness.sweep import SweepJob, normalized
from repro.workloads.microbench import MicrobenchSpec

WINDOW = MeasureWindow(warmup_us=40.0, measure_us=120.0)
SPEC = MicrobenchSpec(work_count=200)


def sweep_switch_cost(scale):
    figure = FigureResult(
        "ablation-switch",
        "Context-switch cost (optimized Pth vs stock), prefetch at 1us",
        xlabel="threads",
        ylabel="normalized work IPC",
    )
    grid = (4, 8, 10, 16) if scale == "full" else (10, 16)
    for label, switch_ns in (("20ns", 20.0), ("35ns", 35.0), ("stock-2us", 2000.0)):
        line = figure.new_series(label)
        for threads in grid:
            config = SystemConfig(
                mechanism=AccessMechanism.PREFETCH,
                threads_per_core=threads,
                threading=ThreadingConfig(context_switch_ns=switch_ns),
                device=DeviceConfig(total_latency_us=1.0),
            )
            value, _ = normalized(SweepJob(config=config, spec=SPEC, window=WINDOW))
            line.add(threads, value)
    return figure


def test_switch_cost(benchmark, scale, publish):
    figure = benchmark.pedantic(
        sweep_switch_cost, args=(scale,), rounds=1, iterations=1
    )
    publish(figure)
    assert figure.get("20ns").peak() > 0.95
    assert figure.get("35ns").peak() > 0.95
    # A stock 2 us switch costs more than the latency it hides.
    assert figure.get("stock-2us").peak() < 0.15


def sweep_kernel_queue(scale):
    figure = FigureResult(
        "ablation-kernel-queue",
        "Kernel-managed vs application-managed queues at 1us",
        xlabel="threads",
        ylabel="normalized work IPC",
    )
    grid = (8, 16, 32) if scale == "full" else (16, 32)
    for label, mechanism in (
        ("application", AccessMechanism.SOFTWARE_QUEUE),
        ("kernel", AccessMechanism.KERNEL_QUEUE),
    ):
        line = figure.new_series(label)
        for threads in grid:
            config = SystemConfig(
                mechanism=mechanism,
                threads_per_core=threads,
                device=DeviceConfig(total_latency_us=1.0),
            )
            value, _ = normalized(SweepJob(config=config, spec=SPEC, window=WINDOW))
            line.add(threads, value)
    return figure


def test_kernel_queue_dominated(benchmark, scale, publish):
    figure = benchmark.pedantic(
        sweep_kernel_queue, args=(scale,), rounds=1, iterations=1
    )
    publish(figure)
    assert figure.get("kernel").peak() < 0.3 * figure.get("application").peak()


def sweep_prefetch_policy(scale):
    figure = FigureResult(
        "ablation-prefetch-policy",
        "Prefetch policy at full LFBs (queue in RS vs silent drop), 1us",
        xlabel="threads",
        ylabel="normalized work IPC",
    )
    grid = (8, 10, 12, 16) if scale == "full" else (10, 16)
    for label, drop in (("queue", False), ("drop", True)):
        line = figure.new_series(label)
        for threads in grid:
            config = SystemConfig(
                mechanism=AccessMechanism.PREFETCH,
                threads_per_core=threads,
                cpu=CpuConfig(prefetch_drop_when_full=drop),
                device=DeviceConfig(total_latency_us=1.0),
            )
            value, _ = normalized(SweepJob(config=config, spec=SPEC, window=WINDOW))
            line.add(threads, value)
    return figure


def test_prefetch_policy(benchmark, scale, publish):
    figure = benchmark.pedantic(
        sweep_prefetch_policy, args=(scale,), rounds=1, iterations=1
    )
    publish(figure)
    # At 10 threads both policies saturate the LFBs identically.
    assert figure.get("drop").y_at(10) == pytest.approx(
        figure.get("queue").y_at(10), rel=0.1
    )
    # Oversubscribed, the drop policy collapses; queueing stays flat
    # (the paper's measured plateau).
    assert figure.get("queue").y_at(16) > 0.9 * figure.get("queue").y_at(10)
    assert figure.get("drop").y_at(16) < 0.5 * figure.get("drop").y_at(10)
