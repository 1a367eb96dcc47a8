"""Ablation: the hardware stride prefetcher (section IV-A).

"Hardware prefetching is also disabled to avoid interference with the
software prefetch mechanism."  Measured here:

* unmodified on-demand code on a *sequential* scan: the stride
  prefetcher runs ahead of demand and claws back real performance --
  the one case where stock hardware partially tames the microsecond;
* the software-prefetch mechanism: the stride prefetcher adds nothing
  (it competes for the same ten LFBs) -- the interference the paper
  avoids by disabling it;
* a random-access workload (Bloom probes): the stride prefetcher
  never trains and stays silent.
"""

from repro.config import AccessMechanism, CpuConfig, DeviceConfig, SystemConfig
from repro.harness.experiment import MeasureWindow, run_microbench
from repro.harness.figures import FigureResult
from repro.host.system import System
from repro.workloads.bloom import BloomParams, install_bloom
from repro.workloads.microbench import MicrobenchSpec

WINDOW = MeasureWindow(warmup_us=30.0, measure_us=100.0)


def run_mechanism(mechanism, threads, hw_prefetch):
    config = SystemConfig(
        mechanism=mechanism,
        threads_per_core=threads,
        cpu=CpuConfig(hardware_prefetcher=hw_prefetch),
        device=DeviceConfig(total_latency_us=1.0),
    )
    return run_microbench(config, MicrobenchSpec(work_count=200), WINDOW).payload["work_ipc"]


def bloom_coverage():
    system = System(
        SystemConfig(
            mechanism=AccessMechanism.ON_DEMAND,
            threads_per_core=1,
            cpu=CpuConfig(hardware_prefetcher=True),
        )
    )
    install_bloom(system, BloomParams(queries_per_thread=48), 1)
    system.run_to_completion(limit_ticks=10**12)
    return system.cores[0].memsys.hw_prefetcher


def sweep(scale):
    figure = FigureResult(
        "ablation-hwpf",
        "Hardware stride prefetcher on vs off, 1us device",
        xlabel="variant (0=off, 1=on)",
        ylabel="work IPC (absolute)",
    )
    for label, mechanism, threads in (
        ("on-demand/sequential", AccessMechanism.ON_DEMAND, 1),
        ("sw-prefetch/10thr", AccessMechanism.PREFETCH, 10),
    ):
        line = figure.new_series(label)
        for hw_prefetch in (False, True):
            line.add(int(hw_prefetch), run_mechanism(mechanism, threads, hw_prefetch))
    return figure


def test_hw_prefetcher_interference(benchmark, scale, publish):
    figure = benchmark.pedantic(sweep, args=(scale,), rounds=1, iterations=1)
    publish(figure)

    on_demand = figure.get("on-demand/sequential")
    # Sequential on-demand code genuinely benefits (the microbenchmark
    # walks distinct lines in order, a stride the prefetcher learns).
    assert on_demand.y_at(1) > 1.7 * on_demand.y_at(0)

    software = figure.get("sw-prefetch/10thr")
    # The software mechanism gains nothing from the hardware unit --
    # they fight over the same line-fill buffers.
    assert software.y_at(1) <= 1.02 * software.y_at(0)

    # Random probes never train the stride detector.
    prefetcher = bloom_coverage()
    assert prefetcher.observed > 100
    assert prefetcher.issued < 0.05 * prefetcher.observed
