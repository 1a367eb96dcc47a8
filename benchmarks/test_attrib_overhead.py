"""Attribution benchmark: spans cost when on, bit-for-bit free when off.

The span ledger (:mod:`repro.obs.spans`) extends the observability
layer's promise: a service run with ``spans=False`` pays nothing --
the hot-path hooks are ``span is None`` checks (SIM404 enforces the
guard shape statically) and no ledger object exists.  This module
measures the open-loop SLO scenario's wall time with spans off vs on,
asserts the two runs produce bit-for-bit identical model outputs
(the spans-on payload minus its attribution block equals the spans-off
payload), re-checks the golden fig3 series with the span layer merged,
and writes the outcome to ``benchmarks/results/BENCH_attrib.json`` for
PR-over-PR tracking.

Like ``test_obs_overhead.py``, absolute wall times are incomparable
across machines, so the committed gates are the exact-equality
passivity checks; the wall-ratio assertions are sanity bounds, with a
tighter ratio enforced only under ``REPRO_KERNEL_BENCH_ENFORCE``.
The timing helper comes from ``benchmarks/timing.py``.
"""

import json
import os
import pathlib

from repro.config import (
    AccessMechanism,
    DeviceConfig,
    SwqConfig,
    SystemConfig,
)
from repro.harness.experiment import MeasureWindow
from repro.harness.figures import fig3
from repro.harness.regression import figure_to_dict
from repro.harness.service import ServiceParams
from repro.harness.sweep import MODEL_VERSION, SweepEngine, SweepJob, run_job
from repro.obs.runlog import git_sha
from repro.obs.spans import PID_SPANS_TID, SEGMENTS, emit_exemplar_trace
from repro.obs.tracer import TraceConfig, Tracer
from repro.obs.validate import validate_trace
from repro.workloads.loadgen import ArrivalSpec, KeySpec, OpenLoopSpec
from timing import time_mode

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
GOLDEN_FIG3 = (
    pathlib.Path(__file__).parent.parent
    / "tests"
    / "golden"
    / "fig3_quick_prepr2.json"
)

#: One figA_slo-style grid point: rule-sized SWQ ring under open-loop
#: Poisson load, long enough for a populated exemplar reservoir.
CORES = 2
WINDOW = MeasureWindow(warmup_us=20.0, measure_us=200.0)
PID_BENCH = 41


def _config() -> SystemConfig:
    return SystemConfig(
        mechanism=AccessMechanism.SOFTWARE_QUEUE,
        cores=CORES,
        threads_per_core=8,
        device=DeviceConfig(total_latency_us=1.0),
        swq=SwqConfig(ring_entries=32),
    )


def _params(spans: bool) -> ServiceParams:
    return ServiceParams(
        open_loop=OpenLoopSpec(
            arrivals=ArrivalSpec(rate_per_us=0.3),
            keys=KeySpec(theta=0.0),
        ),
        workers_per_core=8,
        spans=spans,
    )


def _run_mode(spans: bool) -> dict:
    job = SweepJob(config=_config(), service=_params(spans), window=WINDOW)
    return run_job(job).payload


def test_attrib_overhead_writes_bench_json():
    """Time spans-off vs spans-on on the SLO scenario; the off path
    must be deterministic and the on path model-passive."""
    _run_mode(True)  # warm both code paths before timing

    wall_off, result_off = time_mode(lambda: _run_mode(False))
    wall_on, result_on = time_mode(lambda: _run_mode(True))

    # Spans-off determinism: two runs, one payload.
    assert result_off == _run_mode(False)
    assert "attribution" not in result_off and "exemplars" not in result_off

    # Model passivity: attribution observes the run, never steers it.
    # The spans-on payload minus its attribution block is bit-for-bit
    # the spans-off payload, kernel counters included.
    payload_on = dict(result_on)
    attribution = payload_on.pop("attribution")
    payload_on.pop("exemplars")
    assert payload_on == result_off

    # Conservation at aggregate: segments tile every sojourn exactly
    # (attribution() itself raises SpanConservationError otherwise).
    conservation = attribution["conservation"]
    assert conservation["sojourn_ticks"] == conservation["segments_ticks"]
    assert conservation["checked"] == conservation["closed"]
    # Windowed populations line up: the attribution table covers
    # exactly the measurement window's completions (raw ``closed``
    # also counts post-window drain, so it can only be larger).
    assert attribution["requests"] == result_on["completions"]
    assert conservation["closed"] >= result_on["completions"]
    assert set(attribution["segments"]) == set(SEGMENTS)

    payload = {
        "schema": "repro-attrib-bench-v1",
        "git_sha": git_sha(),
        "model_version": MODEL_VERSION,
        "workload": (
            f"open-loop SLO point ({_config().describe()}, "
            f"0.3 req/us/core, {WINDOW.warmup_us:g}+{WINDOW.measure_us:g} "
            "us window)"
        ),
        "modes": {
            "spans-off": {"wall_s": wall_off},
            "spans-on": {"wall_s": wall_on},
        },
        "overhead_on_vs_off": wall_on / wall_off,
        "passive": True,
        "conservation": conservation,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_attrib.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    # Sanity: per-request span bookkeeping is a few dict ops per hop,
    # not a second simulation.
    assert payload["overhead_on_vs_off"] < 10
    if os.environ.get("REPRO_KERNEL_BENCH_ENFORCE"):
        assert payload["overhead_on_vs_off"] < 3, (
            f"span bookkeeping overhead regressed: "
            f"{payload['overhead_on_vs_off']:.2f}x vs spans-off"
        )


def test_exemplar_trees_render_as_valid_chrome_trace():
    """The retained exemplars round-trip through JSON and render as
    validator-clean Chrome-trace async spans."""
    exemplars = json.loads(json.dumps(_run_mode(True)["exemplars"]))
    assert len(exemplars["slowest"]) >= 3
    assert set(exemplars["stratified"]) == {"p50", "p90", "p99"}
    for tree in exemplars["slowest"]:
        names = [name for name, _begin, _end in tree["segments"]]
        assert set(names) <= set(SEGMENTS)

    tracer = Tracer(TraceConfig(tracks=frozenset({"spans"})))
    emitted = emit_exemplar_trace(tracer, exemplars, PID_BENCH)
    assert emitted >= 3
    assert validate_trace(tracer.to_dict()) == []
    events = tracer.events
    async_ids = {
        event["id"] for event in events if event.get("ph") in ("b", "e")
    }
    assert len(async_ids) == emitted
    assert all(
        event["tid"] == PID_SPANS_TID
        for event in events
        if event.get("ph") in ("b", "e")
    )


def test_span_layer_is_passive_on_golden_fig3():
    """Acceptance gate: with the span layer merged (and its modules
    imported), the closed-loop golden figure is bit-for-bit unchanged."""
    figure = fig3("quick", engine=SweepEngine(jobs=1, use_cache=False))
    assert figure_to_dict(figure) == json.loads(GOLDEN_FIG3.read_text())
