"""Tests for the open-loop service driver and its sweep integration."""

import pytest

from repro.config import (
    AccessMechanism,
    CpuConfig,
    DeviceConfig,
    SwqConfig,
    SystemConfig,
)
from repro.errors import ConfigError
from repro.harness.experiment import MeasureWindow
from repro.harness.service import ServiceParams, run_service
from repro.harness.sweep import SweepEngine, SweepJob, baseline_job
from repro.workloads.loadgen import ArrivalKind, ArrivalSpec, KeySpec, OpenLoopSpec

WINDOW = MeasureWindow(warmup_us=10.0, measure_us=60.0)


def swq_config(cores=1, workers=8, ring=None):
    swq = SwqConfig() if ring is None else SwqConfig(ring_entries=ring)
    return SystemConfig(
        mechanism=AccessMechanism.SOFTWARE_QUEUE,
        cores=cores,
        threads_per_core=workers,
        device=DeviceConfig(total_latency_us=1.0),
        swq=swq,
    )


def service_params(rate=0.2, **kwargs):
    return ServiceParams(
        open_loop=OpenLoopSpec(arrivals=ArrivalSpec(rate_per_us=rate)),
        **kwargs,
    )


def test_run_service_reports_slo_quantities():
    result = run_service(swq_config(), service_params(), WINDOW)
    assert result.arrivals > 0
    assert result.completions > 0
    # Quantiles are ordered and in a sane band: at least the device
    # round-trip (~1 us), far below the measurement window.
    assert 500 < result.p50_ns <= result.p99_ns <= result.p999_ns
    assert result.p999_ns <= result.max_ns < 60_000.0
    assert result.jitter_ns >= 0
    assert result.achieved_per_us > 0
    payload = result.payload()
    assert payload["p99_ns"] == result.p99_ns
    assert payload["completions"] == result.completions


def test_run_service_is_deterministic():
    a = run_service(swq_config(), service_params(), WINDOW)
    b = run_service(swq_config(), service_params(), WINDOW)
    assert a.payload() == b.payload()


def test_run_service_seed_changes_results():
    params = service_params()
    reseeded = ServiceParams(
        open_loop=OpenLoopSpec(
            arrivals=params.open_loop.arrivals, seed=99
        ),
    )
    a = run_service(swq_config(), params, WINDOW)
    b = run_service(swq_config(), reseeded, WINDOW)
    assert a.payload() != b.payload()


def test_service_percentiles_exclude_warmup():
    # Drive the service directly so the sojourn probe can be checked
    # against every request the run completed: it must hold exactly
    # the requests that finished after the window opened.
    from repro.host.system import System
    from repro.sim.trace import percentile_of_sorted
    from repro.workloads.loadgen import install_service

    params = service_params(rate=0.3)
    system = System(swq_config())
    state = install_service(
        system, params.store_params(), params.open_loop,
        params.workers_per_core,
    )
    # A GET takes ~9 us end to end at 1 us device latency, so the
    # warmup must be long enough for warmup-era completions to exist.
    window = MeasureWindow(warmup_us=40.0, measure_us=60.0)
    system.run_window(window.warmup_ticks, window.measure_ticks)
    # Events at the warmup's last tick still belong to the warmup.
    in_window = [
        request for request in state.completed
        if request.finished_at > window.warmup_ticks
    ]
    # Warmup completed requests too, so the window holds strictly fewer.
    assert 0 < len(in_window) < len(state.completed)
    sojourns = sorted(
        request.finished_at - request.arrived_at for request in in_window
    )
    sojourn = state.sojourn
    assert sojourn.count == state.completions.total == len(in_window)
    assert sojourn.total == sum(sojourns)
    assert sojourn.maximum == sojourns[-1]
    assert sojourn.percentile(99) == percentile_of_sorted(sojourns, 99)
    # Offered load arrived open-loop at ~0.3/us over the 60 us window.
    assert state.arrivals.total == pytest.approx(0.3 * 60.0, rel=0.35)


def test_open_loop_reveals_saturation():
    # Closed-loop threads throttle themselves; the open loop must not.
    # Past saturation, arrivals keep landing and the queue grows.
    light = run_service(swq_config(), service_params(rate=0.1), WINDOW)
    overload = run_service(swq_config(), service_params(rate=2.0), WINDOW)
    assert overload.arrivals > 4 * light.arrivals
    assert overload.queue_depth_max > light.queue_depth_max
    assert overload.p99_ns > light.p99_ns


def test_small_ring_survives_many_workers():
    # Regression: with 16 workers per core and an 8-entry ring the
    # completion ring overflowed (ProtocolError) because the host kept
    # more reads outstanding than the CQ could hold.  The SQ/CQ credit
    # discipline in the runtime must bound submissions instead.
    config = swq_config(workers=16, ring=8)
    result = run_service(
        config,
        service_params(rate=0.3, workers_per_core=16),
        WINDOW,
    )
    assert result.completions > 0


def test_rule_sized_ring_beats_under_rule_tail():
    # Paper section V-B: ~20 x latency_us entries per core.  At 1 us
    # device latency the rule-sized (32) ring must not lose to the
    # under-provisioned (8) ring on p99 sojourn.
    under = run_service(
        swq_config(workers=16, ring=8),
        service_params(rate=0.3, workers_per_core=16),
        WINDOW,
    )
    rule = run_service(
        swq_config(workers=16, ring=32),
        service_params(rate=0.3, workers_per_core=16),
        WINDOW,
    )
    assert rule.p99_ns < under.p99_ns


def test_service_key_space_must_fit_store():
    params = ServiceParams(
        open_loop=OpenLoopSpec(keys=KeySpec(items=4096)), items=512
    )
    with pytest.raises(ConfigError, match="exceeds the populated store"):
        run_service(swq_config(), params, WINDOW)


def test_mmpp_arrivals_run_end_to_end():
    params = ServiceParams(
        open_loop=OpenLoopSpec(
            arrivals=ArrivalSpec(
                kind=ArrivalKind.MMPP, rate_per_us=0.2, mean_dwell_us=5.0
            )
        )
    )
    result = run_service(swq_config(), params, WINDOW)
    assert result.completions > 0


# -- sweep integration -------------------------------------------------------


def service_job(rate=0.2, label=None):
    return SweepJob(
        config=swq_config(),
        service=service_params(rate=rate),
        window=WINDOW,
        label=label,
    )


def test_sweep_job_kind_and_validation():
    job = service_job()
    assert job.kind == "service"
    assert "service poisson" in job.describe()
    with pytest.raises(ConfigError, match="no spec/app"):
        SweepJob(
            config=swq_config(),
            service=service_params(),
            app="memcached",
        )
    with pytest.raises(ConfigError, match="no normalizing baseline"):
        baseline_job(job)


def test_service_jobs_identical_serial_and_parallel(tmp_path):
    jobs = [service_job(rate=r, label=r) for r in (0.1, 0.2)]
    serial = SweepEngine(jobs=1, cache_dir=tmp_path / "serial").run(jobs)
    parallel = SweepEngine(jobs=2, cache_dir=tmp_path / "parallel").run(jobs)
    assert [o.payload for o in serial] == [o.payload for o in parallel]
    assert serial[0].payload["kind"] == "service"
    assert serial[0].payload["p99_ns"] > 0


def test_service_jobs_cache_warm(tmp_path):
    jobs = [service_job(rate=0.2)]
    cache_dir = tmp_path / "cache"
    cold_engine = SweepEngine(jobs=1, cache_dir=cache_dir)
    cold = cold_engine.run(jobs)
    warm_engine = SweepEngine(jobs=1, cache_dir=cache_dir)
    warm = warm_engine.run(jobs)
    assert warm_engine.last_stats["simulated"] == 0
    assert warm_engine.last_stats["cache_hits"] == 1
    assert [o.payload for o in warm] == [o.payload for o in cold]
    assert all(o.cached for o in warm)


# -- request-scoped span attribution (repro.obs.spans) ---------------------


def _attributed(config=None, **param_kwargs):
    config = config or swq_config()
    params = service_params(spans=True, **param_kwargs)
    return run_service(config, params, WINDOW)


def test_run_service_with_spans_attributes_latency():
    result = _attributed()
    attribution = result.attribution
    assert attribution is not None and result.exemplars is not None
    conservation = attribution["conservation"]
    assert conservation["sojourn_ticks"] == conservation["segments_ticks"]
    assert conservation["checked"] == conservation["closed"]
    assert attribution["requests"] == result.completions
    assert sum(
        row["share"] for row in attribution["segments"].values()
    ) == pytest.approx(1.0)
    # An SWQ run exercises the full taxonomy: every segment sees time.
    for name in ("queue", "sq", "device", "cq", "work"):
        assert attribution["segments"][name]["total_ns"] > 0, name


def test_span_exemplar_trees_tile_their_sojourns():
    result = _attributed(span_exemplars=4)
    slowest = result.exemplars["slowest"]
    assert 1 <= len(slowest) <= 4
    sojourns = [tree["sojourn_ticks"] for tree in slowest]
    assert sojourns == sorted(sojourns, reverse=True)
    for tree in slowest:
        cursor = tree["arrived_at"]
        for _name, begin, end in tree["segments"]:
            assert begin == cursor and end >= begin
            cursor = end
        assert cursor == tree["finished_at"]
    assert set(result.exemplars["stratified"]) == {"p50", "p90", "p99"}


def test_spans_are_model_passive():
    base = run_service(swq_config(), service_params(), WINDOW)
    attributed = _attributed()
    payload = attributed.payload()
    payload.pop("attribution")
    payload.pop("exemplars")
    assert payload == base.payload()


@pytest.mark.parametrize(
    "mechanism",
    [AccessMechanism.ON_DEMAND, AccessMechanism.PREFETCH],
)
def test_span_conservation_holds_without_completion_ring(mechanism):
    # Memory-mapped mechanisms have no sq/cq hops: submission is a
    # load/prefetch, so their time lands in device/work -- but the
    # conservation law is mechanism-independent.
    config = SystemConfig(
        mechanism=mechanism,
        cores=1,
        threads_per_core=8,
        device=DeviceConfig(total_latency_us=1.0),
    )
    result = _attributed(config=config)
    conservation = result.attribution["conservation"]
    assert conservation["sojourn_ticks"] == conservation["segments_ticks"]
    assert result.attribution["requests"] == result.completions > 0


def test_spans_clean_under_invariant_monitor():
    result = run_service(
        swq_config(), service_params(spans=True), WINDOW,
        check_invariants=True,
    )
    # A violation raises out of run_service; reaching here means the
    # monitor's periodic sweeps (span bookkeeping included) all passed.
    assert result.report["invariants"]["checks_run"] > 0
    assert result.attribution["requests"] == result.completions


def test_smt_core_first_seen_in_the_window_is_attributed():
    # With a 1 us warmup, logical core 1's first completion lands inside
    # the window, so its per-core stats are created there; they must
    # still count every request it served in the window.
    config = SystemConfig(
        mechanism=AccessMechanism.SOFTWARE_QUEUE,
        cores=1,
        threads_per_core=4,
        cpu=CpuConfig(smt_contexts=2),
        device=DeviceConfig(total_latency_us=1.0),
    )
    params = service_params(spans=True, workers_per_core=4)
    result = run_service(
        config, params, MeasureWindow(warmup_us=1.0, measure_us=100.0)
    )
    attribution = result.attribution
    counts = {
        core: rows["queue"]["count"]
        for core, rows in attribution["per_core"].items()
    }
    assert set(counts) == {"core0", "core1"}
    assert counts["core0"] > 0 and counts["core1"] > 0
    assert sum(counts.values()) == attribution["requests"]
    assert attribution["requests"] == result.completions


def test_spans_deterministic_across_runs():
    a = _attributed()
    b = _attributed()
    assert a.payload() == b.payload()
    assert a.exemplars == b.exemplars


def test_service_rejects_bad_span_exemplars():
    with pytest.raises(ConfigError, match="exemplar"):
        service_params(spans=True, span_exemplars=0)
