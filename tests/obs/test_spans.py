"""Unit tests for the request-scoped span layer (repro.obs.spans).

The ledger's contract is arithmetic, so the tests are arithmetic:
segments must tile the request lifetime exactly (conservation), the
exemplar reservoirs must be deterministic (worst-K with stable ties,
stride-subsampled stratification), and the rendered Chrome-trace
async spans must satisfy the validator.
"""

import json

import pytest

from repro.obs import MetricsRegistry, TraceConfig, Tracer
from repro.obs.spans import (
    SEGMENTS,
    RequestSpan,
    SpanConservationError,
    SpanLedger,
    emit_exemplar_trace,
)
from repro.obs.validate import validate_trace
from repro.sim.trace import ProbeSet


def _closed(ledger, key=1, core=0, arrive=0, marks=(), finish=100):
    """Open a span, replay ``marks`` (name, tick), close at ``finish``."""
    span = ledger.open(key, core, arrive)
    for name, tick in marks:
        span.mark(name, tick)
    ledger.close(span, finish)
    return span


# -- RequestSpan cursor semantics -----------------------------------------


def test_mark_closes_open_segment_and_opens_next():
    span = RequestSpan(seq=1, key=7, core_id=0, arrived_at=100)
    span.mark("sq", 130)
    span.mark("device", 150)
    span._close(250)
    assert span.segments == [
        ["queue", 100, 130], ["sq", 130, 150], ["device", 150, 250],
    ]
    assert span.sojourn == 150
    assert span.durations() == {
        "queue": 30, "sq": 20, "device": 100, "cq": 0, "work": 0,
    }


def test_zero_width_transition_back_merges_with_previous_segment():
    span = RequestSpan(seq=1, key=7, core_id=0, arrived_at=0)
    span.mark("work", 10)
    span.mark("sq", 40)
    # sq..device..back-to-work, all at tick 40: the empty excursion
    # re-opens the previous segment instead of recording zero slices.
    span.mark("work", 40)
    span._close(60)
    assert span.segments == [["queue", 0, 10], ["work", 10, 60]]


def test_unknown_segment_name_raises():
    span = RequestSpan(seq=1, key=7, core_id=0, arrived_at=0)
    with pytest.raises(SpanConservationError, match="unknown span segment"):
        span.mark("dma", 10)


def test_backwards_stamp_raises():
    span = RequestSpan(seq=1, key=7, core_id=0, arrived_at=50)
    span.mark("work", 80)
    with pytest.raises(SpanConservationError, match="moved backwards"):
        span.mark("sq", 70)


def test_close_before_open_segment_raises():
    ledger = SpanLedger()
    span = ledger.open(1, 0, 50)
    with pytest.raises(SpanConservationError, match="closed before"):
        ledger.close(span, 40)


def test_payload_round_trips_through_json_bit_identically():
    span = RequestSpan(seq=3, key=11, core_id=2, arrived_at=5)
    span.mark("sq", 9)
    span.mark("work", 21)
    span._close(30)
    payload = span.to_payload()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["sojourn_ticks"] == 25
    assert payload["segments"] == [
        ["queue", 5, 9], ["sq", 9, 21], ["work", 21, 30],
    ]


# -- ledger conservation ---------------------------------------------------


def test_close_asserts_per_request_conservation():
    ledger = SpanLedger()
    span = ledger.open(1, 0, 0)
    span.mark("work", 10)
    span.segments[0][1] = 3  # tear a hole in the tiling
    with pytest.raises(SpanConservationError, match="do not tile"):
        ledger.close(span, 20)
    assert ledger.conservation_checks == 1
    assert ledger.closed == 0


def test_ledger_counts_and_bookkeeping_check():
    ledger = SpanLedger()
    _closed(ledger, marks=[("work", 40)])
    open_span = ledger.open(2, 0, 50)
    assert (ledger.opened, ledger.closed, ledger.open_count) == (2, 1, 1)
    assert ledger.check() is None
    assert ledger.summary()["in_flight"] == 1
    del open_span


def test_check_flags_cooked_books():
    ledger = SpanLedger()
    _closed(ledger)
    ledger.conservation_checks = 0
    assert "conservation checked" in ledger.check()


def test_attribution_aggregate_conservation_is_tick_exact():
    ledger = SpanLedger(k_slowest=4)
    for i in range(20):
        _closed(
            ledger, key=i, core=i % 2, arrive=i * 100,
            marks=[
                ("sq", i * 100 + 10), ("device", i * 100 + 30),
                ("cq", i * 100 + 80), ("work", i * 100 + 90),
            ],
            finish=i * 100 + 95 + i,
        )
    table = ledger.attribution()
    conservation = table["conservation"]
    assert conservation["sojourn_ticks"] == conservation["segments_ticks"]
    assert conservation["checked"] == conservation["closed"] == 20
    assert table["requests"] == 20
    shares = sum(row["share"] for row in table["segments"].values())
    assert shares == pytest.approx(1.0)
    for rows in table["per_core"].values():
        assert sum(r["share"] for r in rows.values()) == pytest.approx(1.0)
    assert set(table["segments"]) == set(SEGMENTS)


def test_attribution_raises_when_aggregation_loses_a_request():
    ledger = SpanLedger()
    _closed(ledger, marks=[("work", 50)])
    ledger.sojourn.record(17)  # a sojourn no segment stats ever saw
    with pytest.raises(SpanConservationError, match="aggregate conservation"):
        ledger.attribution()


# -- exemplar reservoirs ---------------------------------------------------


def test_k_slowest_keeps_worst_with_deterministic_ties():
    ledger = SpanLedger(k_slowest=2)
    sojourns = [30, 50, 50, 10, 50, 40]
    for i, sojourn in enumerate(sojourns):
        _closed(ledger, key=i, arrive=0, finish=sojourn)
    worst = ledger.slowest()
    assert [span.sojourn for span in worst] == [50, 50]
    # Three requests tie at 50; the two earliest arrivals (seq 2, 3)
    # win, worst-first ordering breaks the tie by arrival order too.
    assert [span.seq for span in worst] == [2, 3]


def test_k_slowest_requires_positive_k():
    with pytest.raises(Exception, match="k_slowest"):
        SpanLedger(k_slowest=0)


def test_stratified_picks_percentile_neighbours():
    ledger = SpanLedger()
    for i in range(100):
        _closed(ledger, key=i, arrive=0, finish=i + 1)
    strata = ledger.stratified()
    assert set(strata) == {"p50", "p90", "p99"}
    assert strata["p50"].sojourn < strata["p90"].sojourn
    assert strata["p90"].sojourn < strata["p99"].sojourn
    assert strata["p99"].sojourn >= 99


def test_retention_buffer_subsamples_deterministically(monkeypatch):
    monkeypatch.setattr("repro.obs.spans._MAX_RETAINED", 8)
    ledger = SpanLedger()
    for i in range(40):
        _closed(ledger, key=i, arrive=0, finish=i + 1)
    retained = ledger._retained
    assert len(retained) <= 8
    # Stride doubling keeps an arithmetic subsequence -- evenly spaced
    # seqs, not a random sample.
    seqs = [span.seq for span in retained]
    strides = {b - a for a, b in zip(seqs, seqs[1:])}
    assert len(strides) == 1


def test_reset_window_drops_warmup_exemplars_only():
    ledger = SpanLedger(k_slowest=4)
    _closed(ledger, key=1, arrive=0, finish=1000)  # warmup monster
    ledger.reset_window()
    assert ledger.slowest() == [] and ledger.stratified() == {}
    _closed(ledger, key=2, arrive=0, finish=10)
    assert [span.key for span in ledger.slowest()] == [2]
    assert ledger.closed == 2  # lifetime counters survive the reset
    assert ledger.check() is None


# -- probes / metrics integration -----------------------------------------


def test_windowed_probes_exclude_warmup_from_attribution():
    probes = ProbeSet()
    ledger = SpanLedger(probes)
    _closed(ledger, key=1, arrive=0, finish=10_000)  # warmup outlier
    probes.reset()  # the window opens
    _closed(ledger, key=2, arrive=0, marks=[("work", 30)], finish=50)
    _closed(ledger, key=3, arrive=0, marks=[("work", 10)], finish=50)
    table = ledger.attribution()
    assert table["requests"] == 2
    assert table["conservation"]["sojourn_ticks"] == 100
    core0 = table["per_core"]["core0"]
    assert sum(row["total_ns"] for row in core0.values()) == pytest.approx(
        table["sojourn"]["total_ns"]
    )


def test_windowed_ledger_reports_an_empty_window_as_zero_requests():
    probes = ProbeSet()
    ledger = SpanLedger(probes)
    _closed(ledger, key=1, arrive=0, finish=10_000)  # warmup only
    probes.reset()  # the window opens and sees no completion
    table = ledger.attribution()
    assert table["requests"] == 0
    assert table["sojourn"]["count"] == 0
    assert table["conservation"]["sojourn_ticks"] == 0
    assert table["conservation"]["closed"] == 1


def test_standalone_ledger_reports_lifetime_counts():
    ledger = SpanLedger()
    _closed(ledger, key=1, arrive=0, finish=40)
    assert ledger.attribution()["requests"] == 1


def test_register_metrics_exposes_ledger_probes():
    registry = MetricsRegistry()
    ledger = SpanLedger()
    _closed(ledger, marks=[("work", 60)])
    ledger.register_metrics(registry, "spans")
    snapshot = registry.snapshot(now=1000)
    assert snapshot["spans.opened"]["value"] == 1
    assert snapshot["spans.closed"]["value"] == 1
    assert snapshot["spans.in_flight"]["value"] == 0
    assert snapshot["spans.conservation_checks"]["value"] == 1
    assert snapshot["spans.work"]["count"] == 1


# -- exemplar trace rendering ---------------------------------------------


def _ledger_with_traffic():
    ledger = SpanLedger(k_slowest=3)
    for i in range(12):
        base = i * 1_000_000
        _closed(
            ledger, key=i, core=i % 2, arrive=base,
            marks=[
                ("sq", base + 100_000), ("device", base + 200_000),
                ("cq", base + 500_000), ("work", base + 600_000),
            ],
            finish=base + 700_000 + i * 10_000,
        )
    return ledger


def test_emit_trace_renders_validator_clean_async_spans():
    ledger = _ledger_with_traffic()
    tracer = Tracer(TraceConfig(tracks=frozenset({"spans"})))
    emitted = emit_exemplar_trace(tracer, ledger.exemplar_payload(), pid=5)
    assert emitted >= 3
    assert validate_trace(tracer.to_dict()) == []
    begins = [e for e in tracer.events if e.get("ph") == "b"]
    ends = [e for e in tracer.events if e.get("ph") == "e"]
    assert len(begins) == len(ends)
    # One root span + one per segment, per tree, grouped by seq.
    roots = [e for e in begins if e["name"].startswith("request ")]
    assert len(roots) == emitted


def test_emit_trace_deduplicates_slowest_and_stratified_overlap():
    ledger = SpanLedger(k_slowest=3)
    for i in range(3):
        _closed(ledger, key=i, arrive=0, marks=[("work", 10)], finish=20 + i)
    payload = ledger.exemplar_payload()
    stratified_seqs = {t["seq"] for t in payload["stratified"].values()}
    slowest_seqs = {t["seq"] for t in payload["slowest"]}
    assert stratified_seqs <= slowest_seqs  # fully overlapping by design
    tracer = Tracer(TraceConfig(tracks=frozenset({"spans"})))
    emitted = emit_exemplar_trace(tracer, payload, pid=5)
    assert emitted == len(slowest_seqs)
    assert validate_trace(tracer.to_dict()) == []


def test_emit_trace_from_json_round_trip_is_identical():
    ledger = _ledger_with_traffic()
    payload = ledger.exemplar_payload()
    fresh = Tracer(TraceConfig(tracks=frozenset({"spans"})))
    cooked = Tracer(TraceConfig(tracks=frozenset({"spans"})))
    emit_exemplar_trace(fresh, payload, pid=5)
    emit_exemplar_trace(cooked, json.loads(json.dumps(payload)), pid=5)
    assert fresh.events == cooked.events


def test_emit_trace_is_noop_without_tracer():
    assert emit_exemplar_trace(None, {"slowest": []}, pid=5) == 0
