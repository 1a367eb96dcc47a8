"""Cross-validation: the DES against the closed-form envelope model.

Two independent derivations of the same numbers; agreement within
tolerance means neither hides a unit error.
"""

import pytest

from repro.config import AccessMechanism, CpuConfig, DeviceConfig, SystemConfig
from repro.harness.analytic import (
    predict_on_demand_ipc,
    predict_prefetch_bounds,
    predict_prefetch_ipc,
    predict_swq_peak_ipc,
)
from repro.harness.experiment import MeasureWindow, run_microbench
from repro.workloads.microbench import MicrobenchSpec

WINDOW = MeasureWindow(warmup_us=25.0, measure_us=80.0)


def measure(mechanism, threads, spec, **overrides):
    config = SystemConfig(
        mechanism=mechanism,
        threads_per_core=threads,
        device=DeviceConfig(total_latency_us=overrides.pop("latency_us", 1.0)),
        **overrides,
    )
    return config, run_microbench(config, spec, WINDOW).payload["work_ipc"]


@pytest.mark.parametrize("work", [100, 500, 2000])
@pytest.mark.parametrize("latency_us", [1.0, 4.0])
def test_on_demand_matches_envelope(work, latency_us):
    spec = MicrobenchSpec(work_count=work)
    config, measured = measure(
        AccessMechanism.ON_DEMAND, 1, spec, latency_us=latency_us
    )
    predicted = predict_on_demand_ipc(config, spec)
    # The simulator may exceed the envelope slightly (ROB run-ahead).
    assert measured == pytest.approx(predicted, rel=0.12)


@pytest.mark.parametrize("threads", [1, 4, 10, 16])
@pytest.mark.parametrize("latency_us", [1.0, 2.0])
def test_prefetch_matches_envelope(threads, latency_us):
    spec = MicrobenchSpec(work_count=200)
    config, measured = measure(
        AccessMechanism.PREFETCH, threads, spec, latency_us=latency_us
    )
    predicted = predict_prefetch_ipc(config, spec, threads)
    assert measured == pytest.approx(predicted, rel=0.12)


@pytest.mark.parametrize("reads", [1, 2, 4])
def test_prefetch_mlp_cap_matches_envelope(reads):
    spec = MicrobenchSpec(work_count=200, reads_per_batch=reads)
    config, measured = measure(AccessMechanism.PREFETCH, 16, spec)
    predicted = predict_prefetch_ipc(config, spec, 16)
    assert measured == pytest.approx(predicted, rel=0.12)


def test_prefetch_bigger_lfbs_within_compute_envelope():
    spec = MicrobenchSpec(work_count=200)
    config = SystemConfig(
        mechanism=AccessMechanism.PREFETCH,
        threads_per_core=24,
        cpu=CpuConfig(lfb_entries=20),
        device=DeviceConfig(total_latency_us=1.0),
    )
    measured = run_microbench(config, spec, WINDOW).payload["work_ipc"]
    # 20 in flight at 1 us -> the compute regime binds before the
    # queue; the measurement must land inside the serial/overlapped
    # envelope.
    lower, upper = predict_prefetch_bounds(config, spec, 24)
    assert 0.95 * lower <= measured <= 1.05 * upper


@pytest.mark.parametrize("reads", [1, 4])
def test_swq_peak_matches_envelope(reads):
    spec = MicrobenchSpec(work_count=200, reads_per_batch=reads)
    config, measured = measure(AccessMechanism.SOFTWARE_QUEUE, 32, spec)
    predicted = predict_swq_peak_ipc(config, spec)
    assert measured == pytest.approx(predicted, rel=0.18)
