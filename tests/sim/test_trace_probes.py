"""Unit tests for the instrumentation probes."""

import pytest

from repro.sim.trace import (
    Counter,
    LatencyStat,
    ProbeSet,
    TimeWeighted,
    percentile_of_sorted,
)


def test_counter_windowing():
    counter = Counter("c")
    counter.add(5)  # warmup
    counter.reset()  # the window opens
    counter.add(3)
    counter.add(2)
    assert counter.total == 5
    counter.reset()
    assert counter.total == 0


def test_time_weighted_mean_and_max():
    stat = TimeWeighted("util")
    stat.update(0, 1.0)
    stat.update(100, 0.0)
    assert stat.mean(200) == pytest.approx(0.5)
    assert stat.maximum == 1.0


def test_time_weighted_rejects_backwards_time():
    stat = TimeWeighted("util")
    stat.update(100, 1.0)
    with pytest.raises(ValueError):
        stat.update(50, 0.0)


def test_latency_stat_basic_moments():
    stat = LatencyStat("lat")
    for value in (10, 20, 30, 40):
        stat.record(value)
    assert stat.count == 4
    assert stat.minimum == 10
    assert stat.maximum == 40
    assert stat.mean == 25
    assert stat.percentile(0) == 10
    assert stat.percentile(100) == 40
    assert stat.percentile(50) == pytest.approx(25)


def test_latency_stat_empty():
    import math

    stat = LatencyStat("lat")
    assert math.isnan(stat.mean)
    assert math.isnan(stat.percentile(50))


def test_time_weighted_anchors_at_first_update():
    # Regression: a probe created mid-run must average over
    # [first update, now], not [0, now] -- dividing by t-from-zero
    # understated every mid-run mean.
    stat = TimeWeighted("util")
    stat.update(1_000, 1.0)
    stat.update(2_000, 0.0)
    # Busy 1000 of the 2000 observed ticks: mean 0.5, not 1000/3000.
    assert stat.mean(3_000) == pytest.approx(0.5)


def test_time_weighted_mean_before_any_update_is_zero():
    stat = TimeWeighted("util")
    assert stat.mean(500) == 0.0
    stat.update(100, 1.0)
    # Zero elapsed observed time is still well-defined.
    assert stat.mean(100) == 0.0


def test_latency_stat_subsample_keeps_phase():
    # Regression: after halving, the next retained sample must come
    # exactly one (new) stride after the just-kept one.  The old
    # ``count % stride`` test lost phase because the count at overflow
    # is odd (1 + MAX_SAMPLES), so whole strides of samples could be
    # skipped or doubled.
    stat = LatencyStat("lat")
    n = LatencyStat.MAX_SAMPLES + 1  # first overflow halves to stride 2
    for value in range(1, n + 1):
        stat.record(value)
    assert stat._stride == 2
    kept = len(stat._samples)
    before = list(stat._samples)
    # The very next recorded values land one new stride apart.
    stat.record(n + 1)
    assert len(stat._samples) == kept  # n+1 is off-stride: not kept
    stat.record(n + 2)
    assert len(stat._samples) == kept + 1 and stat._samples[-1] == n + 2
    # Retained samples stay evenly spaced (every ``stride`` values).
    assert before[1] - before[0] == stat._stride


def test_latency_stat_window_excludes_warmup():
    import math

    probes = ProbeSet()
    stat = probes.latency("lat")
    stat.record(1_000_000)  # warmup sample: huge, must not pollute
    probes.reset()  # the window opens
    stat.record(10)
    stat.record(20)
    assert stat.count == 2
    assert stat.mean == pytest.approx(15)
    assert stat.minimum == 10 and stat.maximum == 20
    probes.reset()
    assert stat.count == 0
    assert math.isnan(stat.mean)
    assert stat.minimum is None and stat.maximum is None


def test_latency_stat_subsamples_beyond_cap():
    stat = LatencyStat("lat")
    n = LatencyStat.MAX_SAMPLES * 2 + 100
    for value in range(n):
        stat.record(value)
    assert stat.count == n
    assert len(stat._samples) <= LatencyStat.MAX_SAMPLES + 1
    # Percentiles stay approximately right after subsampling.
    assert stat.percentile(50) == pytest.approx(n / 2, rel=0.02)
    assert stat.minimum == 0 and stat.maximum == n - 1


def test_probe_set_dedupes_by_name():
    probes = ProbeSet()
    assert probes.counter("a") is probes.counter("a")
    assert probes.latency("l") is probes.latency("l")


def test_probe_set_window_toggle():
    probes = ProbeSet()
    first = probes.counter("x")
    second = probes.counter("y")
    first.add(7)  # warmup
    probes.reset()  # the window opens: every probe in the set restarts
    first.add(1)
    second.add(2)
    assert first.total == 1 and second.total == 2
    probes.reset()
    assert first.total == 0 and second.total == 0


def test_latency_stat_windowed_percentile_excludes_warmup():
    # Regression: percentile() once read a reservoir filled during
    # warmup, so warmup outliers polluted every reported tail (p99 of a
    # 40us-warmup run could be a warmup-era sample).
    probes = ProbeSet()
    stat = probes.latency("lat")
    for _ in range(100):
        stat.record(1_000_000)  # warmup: pathological queueing
    probes.reset()  # the window opens
    for value in range(1, 101):
        stat.record(value)
    # Every quantile, and the max, come from the window's samples.
    assert stat.percentile(50) == pytest.approx(50.5)
    assert stat.percentile(99) <= 100
    assert stat.percentile(100) == stat.maximum == 100


def test_latency_stat_window_reset_clears_reservoir():
    probes = ProbeSet()
    stat = probes.latency("lat")
    for value in range(LatencyStat.MAX_SAMPLES + 1):
        stat.record(value)  # warmup long enough to subsample
    assert stat._stride == 2
    probes.reset()
    assert stat.count == 0
    assert stat._samples == []
    # A fresh window samples every observation from its first one.
    stat.record(42)
    stat.record(43)
    assert stat._samples == [42, 43]
    assert stat.percentile(0) == 42 and stat.percentile(100) == 43


def test_latency_stat_jitter_is_windowed_stddev():
    import math
    import statistics

    probes = ProbeSet()
    stat = probes.latency("lat")
    stat.record(10_000)  # warmup noise must not enter jitter
    probes.reset()  # the window opens
    values = [10, 20, 30, 40, 50]
    for value in values:
        stat.record(value)
    assert stat.jitter == pytest.approx(statistics.pstdev(values))
    probes.reset()
    assert math.isnan(stat.jitter)


def test_percentile_of_sorted_reference():
    import math

    assert math.isnan(percentile_of_sorted([], 50))
    assert percentile_of_sorted([5], 50) == 5
    assert percentile_of_sorted([1, 2, 3, 4], 50) == pytest.approx(2.5)
    assert percentile_of_sorted([1, 2, 3, 4], 0) == 1
    assert percentile_of_sorted([1, 2, 3, 4], 100) == 4


def test_percentile_of_sorted_clamps_out_of_range_p():
    ordered = [10, 20, 30]
    assert percentile_of_sorted(ordered, -5) == 10
    assert percentile_of_sorted(ordered, 0) == 10
    assert percentile_of_sorted(ordered, 100) == 30
    assert percentile_of_sorted(ordered, 250) == 30


def test_percentile_of_sorted_interpolates_between_neighbours():
    ordered = [0, 100]
    assert percentile_of_sorted(ordered, 25) == pytest.approx(25.0)
    assert percentile_of_sorted(ordered, 99.9) == pytest.approx(99.9)
    # Ranks landing exactly on a sample return it un-interpolated.
    assert percentile_of_sorted([1, 2, 3], 50) == 2.0


def test_percentile_of_sorted_single_sample_every_p():
    for p in (-1, 0, 37.5, 50, 99.9, 100, 1000):
        assert percentile_of_sorted([42], p) == 42.0


def test_percentile_of_sorted_returns_float_type():
    value = percentile_of_sorted([7], 50)
    assert isinstance(value, float) and value == 7.0


def test_latency_stat_percentile_empty_is_nan():
    import math

    stat = LatencyStat("empty")
    assert math.isnan(stat.percentile(50))
    assert math.isnan(stat.percentile(99))
    assert math.isnan(stat.jitter)


def test_latency_stat_windowed_percentile_nan_before_window_samples():
    import math

    probes = ProbeSet()
    stat = probes.latency("warming")
    stat.record(100)  # warmup only
    # Before the window opens the stat holds every sample so far ...
    assert stat.percentile(50) == 100.0
    probes.reset()
    # ... and a window with no sample yet reports NaN, not warmup.
    assert math.isnan(stat.percentile(50))
    assert math.isnan(stat.mean)


def test_latency_stat_percentile_clamps_extreme_p():
    stat = LatencyStat("clamp")
    for value in (10, 20, 30, 40):
        stat.record(value)
    assert stat.percentile(-10) == 10.0
    assert stat.percentile(0) == 10.0
    assert stat.percentile(100) == 40.0
    assert stat.percentile(999) == 40.0
