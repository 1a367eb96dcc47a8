"""End-to-end tests: traced runs, metrics snapshots, and the CLI."""

import io
import json

from repro.cli import main
from repro.config import AccessMechanism, DeviceConfig, SystemConfig
from repro.harness.applications import default_params
from repro.harness.experiment import MeasureWindow, run_microbench
from repro.harness.sweep import SweepEngine, SweepJob, run_job
from repro.obs import TraceConfig, Tracer
from repro.obs.validate import validate_trace
from repro.units import to_ns
from repro.workloads.microbench import MicrobenchSpec

TINY = MeasureWindow(warmup_us=2.0, measure_us=8.0)


def _config(**kwargs) -> SystemConfig:
    kwargs.setdefault("mechanism", AccessMechanism.PREFETCH)
    kwargs.setdefault("threads_per_core", 4)
    kwargs.setdefault("device", DeviceConfig(total_latency_us=1.0))
    return SystemConfig(**kwargs)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_tracing_does_not_perturb_the_simulation():
    spec = MicrobenchSpec(work_count=100)
    plain = run_microbench(_config(), spec, TINY)
    tracer = Tracer()
    traced = run_microbench(_config(), spec, TINY, tracer=tracer)
    assert traced.payload["work_ipc"] == plain.payload["work_ipc"]
    assert traced.report == plain.report
    assert len(tracer.events) > 0


def test_traced_run_emits_valid_multi_track_trace():
    tracer = Tracer()
    run_microbench(_config(), MicrobenchSpec(work_count=100), TINY,
                   tracer=tracer)
    assert validate_trace(tracer.to_dict()) == []
    summary = tracer.summary()
    assert len(summary["tracks"]) >= 4
    assert {"rob", "lfb", "pcie"} <= set(summary["tracks"])


def test_track_filter_restricts_traced_output():
    tracer = Tracer(TraceConfig(tracks=frozenset({"rob"})))
    run_microbench(_config(), MicrobenchSpec(work_count=100), TINY,
                   tracer=tracer)
    assert set(tracer.track_counts) == {"rob"}


def _metered():
    spec = MicrobenchSpec(work_count=100)
    return run_job(
        SweepJob(config=_config(), spec=spec, window=TINY, collect_metrics=True)
    )


def test_system_metrics_snapshot_covers_every_layer():
    result = _metered()
    metrics = result.report["metrics"]
    assert metrics["core0.instructions"]["total"] > 0
    assert metrics["core0.lfb.fills"]["value"] > 0
    assert metrics["pcie.upstream.packets"]["value"] > 0
    assert 0 <= metrics["pcie.upstream.util"]["mean"] <= 1
    assert metrics["device.delay.released"]["value"] > 0
    assert metrics["runtime0.context_switches"]["value"] > 0
    assert metrics["work"]["total"] > 0
    # The snapshot round-trips as strict JSON (CI consumes it).
    json.dumps(metrics, allow_nan=False)


def test_registry_latency_rows_cover_the_measurement_window():
    # The registry row and the report describe one population: the
    # accesses since the window opened, warmup excluded from every field.
    result = _metered()
    row = result.report["metrics"]["access_latency"]
    report = result.report["access_latency_ns"]
    assert row["count"] == report["count"] > 0
    assert to_ns(row["mean"]) == report["mean"]
    assert to_ns(row["max"]) == report["max"]
    assert to_ns(row["p99"]) == report["p99"]


def test_sweep_metrics_use_a_disjoint_cache_keyspace(tmp_path):
    microbench = SweepJob(
        config=_config(), spec=MicrobenchSpec(work_count=50), window=TINY
    )
    application = SweepJob(
        config=_config(threads_per_core=2),
        app="bloom",
        params=default_params("bloom", ops_per_thread=4),
    )
    for job in (microbench, application):
        plain = SweepEngine(jobs=1, cache_dir=tmp_path)
        assert "metrics" not in plain.run([job])[0].payload
        with_metrics = SweepEngine(jobs=1, cache_dir=tmp_path,
                                   collect_metrics=True)
        outcome = with_metrics.run([job])[0]
        # The metrics-bearing payload must not be served from the plain
        # run's cache entry (different payload shape, different key).
        assert with_metrics.last_stats["simulated"] == 1
        assert outcome.payload["metrics"]["core0.instructions"]["total"] > 0


def test_trace_cli_smoke(tmp_path):
    out_path = tmp_path / "trace.json"
    code, text = run_cli(
        "trace", "--figure", "fig3", "--quick", "--out", str(out_path)
    )
    assert code == 0
    assert "INVALID" not in text
    data = json.loads(out_path.read_text())
    assert validate_trace(data) == []
    tracks = [line.split(":")[0].strip() for line in text.splitlines()
              if line.startswith("  ")]
    assert len(tracks) >= 4


def test_trace_cli_track_and_sampling_flags(tmp_path):
    out_path = tmp_path / "trace.json"
    code, text = run_cli(
        "trace", "--figure", "fig2", "--quick", "--out", str(out_path),
        "--tracks", "rob,sched", "--sample", "4",
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert {e["ph"] for e in data["traceEvents"]} <= {"X", "C", "i", "M"}
    tracks = {line.split(":")[0].strip() for line in text.splitlines()
              if line.startswith("  ")}
    assert tracks <= {"rob", "sched"}


def test_run_cli_writes_metrics_snapshot(tmp_path):
    metrics_path = tmp_path / "metrics.json"
    code, text = run_cli(
        "run", "--threads", "4", "--warmup-us", "2", "--measure-us", "8",
        "--metrics", str(metrics_path),
    )
    assert code == 0
    assert "metrics" in text
    snapshot = json.loads(metrics_path.read_text())
    assert snapshot["core0.instructions"]["total"] > 0
