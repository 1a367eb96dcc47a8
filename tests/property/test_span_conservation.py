"""Property tests for span conservation and exemplar determinism.

The conservation law -- every request's segment durations sum exactly
to its measured sojourn, per request and in aggregate -- must hold for
*any* service configuration, not just the figure grids.  Hypothesis
drives randomized configs through the open-loop driver; the sweep
tests then pin the other half of the contract: exemplar span trees are
deterministic across worker counts and bit-identical through the JSON
sweep cache.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import (
    AccessMechanism,
    DeviceConfig,
    SwqConfig,
    SystemConfig,
)
from repro.harness.experiment import MeasureWindow
from repro.harness.service import ServiceParams
from repro.harness.sweep import SweepEngine, SweepJob, run_job
from repro.workloads.loadgen import ArrivalSpec, KeySpec, OpenLoopSpec

WINDOW = MeasureWindow(warmup_us=5.0, measure_us=30.0)


def _run(mechanism, cores, workers, rate, ring, theta, seed):
    config = SystemConfig(
        mechanism=mechanism,
        cores=cores,
        threads_per_core=workers,
        device=DeviceConfig(total_latency_us=1.0),
        swq=SwqConfig(ring_entries=ring),
    )
    params = ServiceParams(
        open_loop=OpenLoopSpec(
            arrivals=ArrivalSpec(rate_per_us=rate),
            keys=KeySpec(theta=theta),
            seed=seed,
        ),
        workers_per_core=workers,
        spans=True,
        span_exemplars=4,
    )
    return run_job(SweepJob(config=config, service=params, window=WINDOW)).payload


@given(
    mechanism=st.sampled_from(list(AccessMechanism)),
    cores=st.sampled_from([1, 2]),
    workers=st.sampled_from([4, 8]),
    rate=st.sampled_from([0.1, 0.25, 0.4]),
    ring=st.sampled_from([16, 64]),
    theta=st.sampled_from([0.0, 0.9]),
    seed=st.integers(min_value=1, max_value=2**31),
)
# A measurement window that records no completion: the attribution
# table must report the window's 0 requests, not fall back to the one
# request that completed during warmup.
@example(
    mechanism=AccessMechanism.ON_DEMAND, cores=1, workers=4, rate=0.1,
    ring=16, theta=0.0, seed=723,
)
@settings(max_examples=12, deadline=None)
def test_span_conservation_holds_for_random_configs(
    mechanism, cores, workers, rate, ring, theta, seed
):
    result = _run(mechanism, cores, workers, rate, ring, theta, seed)
    attribution = result["attribution"]
    conservation = attribution["conservation"]
    # Aggregate conservation is tick-exact (attribution() itself
    # raises on a violation; the equality is asserted for the record).
    assert conservation["sojourn_ticks"] == conservation["segments_ticks"]
    assert conservation["checked"] == conservation["closed"]
    assert attribution["requests"] == result["completions"]
    if attribution["requests"]:
        shares = sum(
            row["share"] for row in attribution["segments"].values()
        )
        assert shares == pytest.approx(1.0)
    # Every retained exemplar tree tiles its own lifetime.
    trees = list(result["exemplars"]["slowest"])
    trees.extend(result["exemplars"]["stratified"].values())
    for tree in trees:
        cursor = tree["arrived_at"]
        total = 0
        for _name, begin, end in tree["segments"]:
            assert begin == cursor and end >= begin
            total += end - begin
            cursor = end
        assert cursor == tree["finished_at"]
        assert total == tree["sojourn_ticks"]


def _span_job(rate, label=None):
    config = SystemConfig(
        mechanism=AccessMechanism.SOFTWARE_QUEUE,
        cores=2,
        threads_per_core=8,
        device=DeviceConfig(total_latency_us=1.0),
        swq=SwqConfig(ring_entries=32),
    )
    params = ServiceParams(
        open_loop=OpenLoopSpec(arrivals=ArrivalSpec(rate_per_us=rate)),
        workers_per_core=8,
        spans=True,
    )
    return SweepJob(config=config, service=params, window=WINDOW, label=label)


def test_exemplars_identical_serial_and_parallel(tmp_path):
    jobs = [_span_job(rate=r, label=str(r)) for r in (0.1, 0.3)]
    serial = SweepEngine(jobs=1, cache_dir=tmp_path / "serial").run(jobs)
    parallel = SweepEngine(jobs=2, cache_dir=tmp_path / "parallel").run(jobs)
    assert [o.payload for o in serial] == [o.payload for o in parallel]
    for outcome in serial:
        assert outcome.payload["exemplars"]["slowest"]
        conservation = outcome.payload["attribution"]["conservation"]
        assert (
            conservation["sojourn_ticks"] == conservation["segments_ticks"]
        )


def test_exemplars_bit_identical_through_sweep_cache(tmp_path):
    jobs = [_span_job(rate=0.3)]
    cache_dir = tmp_path / "cache"
    cold = SweepEngine(jobs=1, cache_dir=cache_dir).run(jobs)
    warm_engine = SweepEngine(jobs=1, cache_dir=cache_dir)
    warm = warm_engine.run(jobs)
    assert warm_engine.last_stats["cache_hits"] == 1
    assert all(o.cached for o in warm)
    # The cached payload crossed a JSON round-trip; exemplar span
    # trees (nested lists) must come back bit-identical.
    assert [o.payload for o in warm] == [o.payload for o in cold]
    fresh = json.loads(json.dumps(cold[0].payload))
    assert fresh == warm[0].payload


def test_span_flag_changes_job_digest(tmp_path):
    # A spans-on job must never collide with the spans-off cache entry
    # (the payload shapes differ).
    on = _span_job(rate=0.2)
    off = SweepJob(
        config=on.config,
        service=ServiceParams(
            open_loop=on.service.open_loop,
            workers_per_core=on.service.workers_per_core,
        ),
        window=WINDOW,
    )
    from repro.harness.sweep import job_digest

    assert job_digest(on) != job_digest(off)
