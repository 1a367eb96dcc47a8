"""Tests for the command-line interface."""

import io
import json
import shlex

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_list_command():
    code, text = run_cli("list")
    assert code == 0
    assert "fig3" in text and "memcached" in text


def test_run_command_prefetch():
    code, text = run_cli(
        "run", "--mechanism", "prefetch", "--threads", "10",
        "--warmup-us", "15", "--measure-us", "40",
    )
    assert code == 0
    assert "normalized" in text
    assert "LFB peak      : 10 / 10" in text


def test_run_command_with_overrides():
    code, text = run_cli(
        "run", "--mechanism", "prefetch", "--threads", "24", "--lfb", "20",
        "--chip-queue", "80", "--warmup-us", "15", "--measure-us", "40",
    )
    assert code == 0
    assert "/ 20" in text


def test_run_command_memory_bus():
    code, text = run_cli(
        "run", "--attachment", "memory-bus", "--threads", "10",
        "--warmup-us", "15", "--measure-us", "40",
    )
    assert code == 0
    assert "PCIe upstream : 0.00 GB/s" in text


def test_run_command_mlp_and_writes():
    code, text = run_cli(
        "run", "--mlp", "2", "--writes", "1",
        "--warmup-us", "15", "--measure-us", "40",
    )
    assert code == 0
    assert "MLP 2, 1 writes/iter" in text


def test_app_command():
    code, text = run_cli(
        "app", "bloom", "--mechanism", "prefetch", "--threads", "4"
    )
    assert code == 0
    assert "normalized" in text and "ns / operation" in text


def test_serve_command_reports_slo_metrics():
    code, text = run_cli(
        "serve", "--rate", "0.2", "--workers", "8", "--ring", "32",
        "--warmup-us", "10", "--measure-us", "60",
    )
    assert code == 0
    assert "sojourn p50" in text
    assert "sojourn p999" in text
    assert "queue wait p99" in text
    assert "poisson arrivals" in text


def test_serve_command_mmpp_and_zipf():
    code, text = run_cli(
        "serve", "--rate", "0.2", "--arrivals", "mmpp", "--theta", "0.9",
        "--warmup-us", "10", "--measure-us", "60",
    )
    assert code == 0
    assert "mmpp arrivals" in text
    assert "zipf theta 0.9" in text


def test_serve_runs_diff_identical_runs_match():
    # Acceptance: open-loop service runs are deterministic end to end,
    # ledger included -- two identical serves diff clean.
    args = (
        "serve", "--rate", "0.2", "--workers", "8",
        "--warmup-us", "10", "--measure-us", "60",
    )
    run_cli(*args)
    run_cli(*args)
    code, text = run_cli("runs", "diff", "0", "1")
    assert code == 0
    assert "runs match: no deviations" in text


def test_serve_run_records_slo_results():
    from repro.obs.runlog import RunLedger

    run_cli(
        "serve", "--rate", "0.2",
        "--warmup-us", "10", "--measure-us", "60",
    )
    entry = RunLedger().resolve("-1")
    assert entry["command"] == "serve"
    assert entry["status"] == 0
    assert len(entry["config_digest"]) == 64
    results = entry["results"]
    assert results["completions"] > 0
    assert results["p50_ns"] <= results["p99_ns"] <= results["p999_ns"]


def test_serve_rejects_bad_ring():
    import pytest as _pytest

    from repro.errors import ConfigError

    with _pytest.raises(ConfigError, match="power of 2"):
        run_cli(
            "serve", "--ring", "12",
            "--warmup-us", "5", "--measure-us", "10",
        )


_EXPLAIN_ARGS = (
    "explain", "--rate", "0.2", "--workers", "8",
    "--warmup-us", "10", "--measure-us", "60",
)


def test_explain_reports_layer_attribution():
    code, text = run_cli(*_EXPLAIN_ARGS)
    assert code == 0
    assert "layer attribution (measurement window):" in text
    for segment in ("queue", "sq", "device", "cq", "work"):
        assert segment in text
    assert "ticks aggregate" in text  # the conservation line
    assert "tail exemplars" in text
    assert "stratified" in text


def test_explain_writes_exemplars_and_valid_trace(tmp_path):
    import json

    from repro.obs.validate import validate_file

    exemplars_path = tmp_path / "exemplars.json"
    trace_path = tmp_path / "trace.json"
    code, text = run_cli(
        *_EXPLAIN_ARGS, "--top", "3",
        "--exemplars-out", str(exemplars_path),
        "--trace-out", str(trace_path),
    )
    assert code == 0
    assert "INVALID trace" not in text
    exemplars = json.loads(exemplars_path.read_text())
    assert 1 <= len(exemplars["slowest"]) <= 3
    assert set(exemplars["stratified"]) == {"p50", "p90", "p99"}
    for tree in exemplars["slowest"]:
        total = sum(end - begin for _n, begin, end in tree["segments"])
        assert total == tree["sojourn_ticks"]
    assert validate_file(str(trace_path)) == []


def test_explain_records_attribution_in_ledger():
    from repro.obs.runlog import RunLedger

    run_cli(*_EXPLAIN_ARGS)
    entry = RunLedger().resolve("-1")
    assert entry["command"] == "explain"
    assert entry["status"] == 0
    attribution = entry["results"]["attribution"]
    conservation = attribution["conservation"]
    assert conservation["sojourn_ticks"] == conservation["segments_ticks"]
    shares = sum(
        row["share"] for row in attribution["segments"].values()
    )
    assert shares == pytest.approx(1.0)


def test_explain_with_invariants_clean():
    code, text = run_cli(*_EXPLAIN_ARGS, "--check-invariants")
    assert code == 0
    assert "layer attribution" in text


def test_figure_command_with_csv(tmp_path):
    csv_path = tmp_path / "fig.csv"
    code, text = run_cli("figure", "fig3", "--scale", "quick",
                         "--csv", str(csv_path))
    assert code == 0
    assert "fig3" in text
    assert csv_path.exists()
    assert csv_path.read_text().startswith("figure,series,x,y")


def test_sweep_command_cold_then_warm_cache(tmp_path):
    cache_dir = str(tmp_path / "cache")
    code, text = run_cli(
        "figure", "fig3", "--scale", "quick", "--jobs", "2",
        "--cache-dir", cache_dir, "--stats",
    )
    assert code == 0
    assert "fig3" in text
    assert "0 hits" in text
    assert "workers       : 2" in text
    code, warm = run_cli(
        "figure", "fig3", "--scale", "quick", "--jobs", "2",
        "--cache-dir", cache_dir, "--stats",
    )
    assert code == 0
    assert "0 misses" in warm
    assert "simulated     : 0 jobs" in warm


def test_figure_command_no_cache_flag(tmp_path):
    cache_dir = tmp_path / "cache"
    code, text = run_cli(
        "figure", "fig3", "--scale", "quick", "--no-cache",
        "--cache-dir", str(cache_dir),
    )
    assert code == 0
    assert "fig3" in text
    assert not cache_dir.exists()  # --no-cache wins over --cache-dir


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "fig99"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_figure_command_with_chart():
    code, text = run_cli("figure", "fig3", "--scale", "quick", "--chart")
    assert code == 0
    assert "o = 1us" in text


def test_table1_command():
    code, text = run_cli("table1")
    assert code == 0
    assert "Overlapping" in text and "User-mode context switch" in text


def test_profile_command_microbench():
    code, text = run_cli(
        "profile", "microbench", "--threads", "4",
        "--warmup-us", "5", "--measure-us", "10", "--top", "5",
    )
    assert code == 0
    assert "events fired" in text
    assert "bypass ratio" in text
    assert "events/sec" in text
    # cProfile output made it through, with the kernel on top.
    assert "cumtime" in text
    assert "kernel.py" in text


def test_profile_command_figure():
    code, text = run_cli("profile", "fig3", "--scale", "quick", "--top", "3")
    assert code == 0
    assert "profiled      : fig3 --scale quick" in text
    assert "events fired" in text
    assert "events/sec" in text


def test_profile_rejects_unknown_target():
    with pytest.raises(SystemExit):
        run_cli("profile", "not-a-figure")


# ---------------------------------------------------------------------------
# Provenance ledger: recording + runs list/show/diff
# ---------------------------------------------------------------------------

def test_recorded_commands_append_ledger_entries():
    from repro.obs.runlog import RunLedger

    run_cli("run", "--threads", "2", "--warmup-us", "2", "--measure-us", "8")
    entries = RunLedger().entries()
    assert len(entries) == 1
    entry = entries[0]
    assert entry["command"] == "run"
    assert entry["status"] == 0
    assert entry["kernel_stats"]["events_fired"] > 0
    assert entry["results"]["work_ipc"] > 0
    assert len(entry["config_digest"]) == 64
    assert entry["model_version"]


def test_no_ledger_env_disables_recording(monkeypatch):
    from repro.obs.runlog import RunLedger

    monkeypatch.setenv("REPRO_NO_LEDGER", "1")
    run_cli("run", "--threads", "2", "--warmup-us", "2", "--measure-us", "8")
    assert RunLedger().entries() == []


def test_runs_list_and_show():
    run_cli("run", "--threads", "2", "--warmup-us", "2", "--measure-us", "8")
    code, text = run_cli("runs", "list")
    assert code == 0
    assert "repro run --threads 2" in text
    assert "status=0" in text
    code, text = run_cli("runs", "show", "-1")
    assert code == 0
    assert '"command": "run"' in text


def test_runs_list_empty_ledger():
    code, text = run_cli("runs", "list")
    assert code == 0
    assert "no runs recorded" in text


def test_runs_diff_identical_runs_match():
    args = ("run", "--threads", "2", "--warmup-us", "2", "--measure-us", "8")
    run_cli(*args)
    run_cli(*args)
    code, text = run_cli("runs", "diff", "0", "1")
    assert code == 0
    assert "runs match: no deviations" in text


def test_runs_diff_flags_changed_config_and_counters():
    run_cli("run", "--threads", "2", "--warmup-us", "2", "--measure-us", "8")
    run_cli("run", "--threads", "4", "--warmup-us", "2", "--measure-us", "8")
    code, text = run_cli("runs", "diff", "0", "1")
    assert code == 1
    assert "config_digest" in text
    assert "kernel_stats.events_fired" in text
    assert "deviation(s)" in text


def test_runs_diff_tolerance_relaxes_value_checks():
    run_cli("run", "--threads", "2", "--warmup-us", "2", "--measure-us", "8")
    run_cli("run", "--threads", "4", "--warmup-us", "2", "--measure-us", "8")
    strict = run_cli("runs", "diff", "0", "1")[1]
    loose = run_cli("runs", "diff", "0", "1", "--rtol", "1e9")[1]
    assert len(loose) < len(strict)  # value deviations suppressed


def test_failed_run_is_recorded_as_error():
    from repro.obs.runlog import RunLedger

    with pytest.raises(ValueError, match="unknown trace tracks"):
        run_cli("trace", "--figure", "fig3", "--tracks", "bogus")
    entries = RunLedger().entries()
    assert len(entries) == 1
    assert entries[0]["status"] == "error"
    assert "ValueError" in entries[0]["error"]


def test_check_invariants_flag_accepted_on_run_and_figure(tmp_path):
    code, _ = run_cli(
        "run", "--threads", "2", "--warmup-us", "2", "--measure-us", "8",
        "--check-invariants",
    )
    assert code == 0
    code, _ = run_cli(
        "figure", "fig3", "--check-invariants",
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0


def test_figure_run_records_series_digests():
    from repro.obs.runlog import RunLedger

    run_cli("figure", "fig3", "--no-cache")
    entry = RunLedger().resolve("-1")
    figure = entry["figure"]
    assert figure["name"] == "fig3"
    assert figure["payload"]["series"]
    assert set(figure["series_digests"]) == set(figure["payload"]["series"])
    assert entry["sweep"]["kernel_stats"]["events_fired"] > 0


def test_sweep_with_queue_is_resumable(tmp_path):
    queue_dir = str(tmp_path / "queue")
    code, text = run_cli(
        "figure", "fig3", "--scale", "quick", "--jobs", "2", "--stats",
        "--queue", queue_dir, "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    assert "queue         : " in text
    assert "manifest      : spec " in text
    # Re-entering the same queue with a cold cache replays done
    # records; nothing simulates again.
    code, replay = run_cli(
        "figure", "fig3", "--scale", "quick", "--jobs", "2", "--stats",
        "--queue", queue_dir, "--cache-dir", str(tmp_path / "cache2"),
    )
    assert code == 0
    assert "simulated     : 0 jobs" in replay
    assert "jobs served from queue records" in replay


def test_sweep_queue_manifest_links_ledger_runs(tmp_path):
    from repro.harness.coordinator import find_queues
    from repro.obs.runlog import RunLedger

    queue_dir = tmp_path / "queue"
    code, _ = run_cli(
        "figure", "fig3", "--scale", "quick", "--stats",
        "--queue", str(queue_dir), "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    [queue] = find_queues(queue_dir)
    entry = RunLedger().resolve("-1")
    assert queue.manifest()["runs"] == [entry["run_id"]]
    # runs show renders the experiment manifest alongside the entry.
    code, text = run_cli("runs", "show", "-1")
    assert code == 0
    assert "experiment manifest" in text
    assert "spec_digest" in text


def test_resume_flag_defaults_to_local_queue_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(
        "figure", "fig3", "--scale", "quick", "--stats", "--resume",
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    assert (tmp_path / ".repro_queue").is_dir()


def test_sweep_worker_drains_a_standalone_queue(tmp_path):
    from repro.config import SystemConfig
    from repro.harness.coordinator import WorkQueue
    from repro.harness.experiment import MeasureWindow
    from repro.harness.sweep import MODEL_VERSION, SweepJob, job_digest
    from repro.workloads.microbench import MicrobenchSpec

    job = SweepJob(
        config=SystemConfig(threads_per_core=2),
        spec=MicrobenchSpec(work_count=10),
        window=MeasureWindow(warmup_us=2.0, measure_us=8.0),
        collect_metrics=True,
    )
    key = job_digest(job, "salt")
    queue = WorkQueue.ensure(
        tmp_path / "queue" / "unit", name="unit", salt="salt",
        model_version=MODEL_VERSION, keys=[key],
    )
    queue.enqueue(key, job)
    code, text = run_cli(
        "sweep-worker", "--queue", str(tmp_path / "queue"),
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    assert "queues        : 1 drained" in text
    assert "claims        : 1 (1 done, 0 failed, 0 cache hits)" in text
    assert queue.unresolved() == 0
    # The job file carried the metrics option to the worker.
    assert queue.done_record(key)["payload"]["metrics"]


def test_sweep_surfaces_failed_jobs_in_exit_code(monkeypatch):
    from repro.harness import sweep as sweep_mod

    def _always_fails(job, tracer=None):
        raise ValueError("injected CLI fault")

    monkeypatch.setattr(sweep_mod, "run_job", _always_fails)
    code, text = run_cli(
        "figure", "fig3", "--scale", "quick", "--no-cache", "--stats"
    )
    assert code == 1
    assert "FAILED" in text
    assert "ValueError: injected CLI fault" in text


def test_engine_flags_accept_failure_tuning(tmp_path):
    code, _ = run_cli(
        "figure", "fig3", "--scale", "quick", "--no-cache", "--stats",
        "--timeout-s", "120", "--retries", "2",
    )
    assert code == 0


@pytest.mark.parametrize("variable", [
    "REPRO_SWEEP_JOBS", "REPRO_SWEEP_TIMEOUT_S", "REPRO_SWEEP_RETRIES",
])
def test_malformed_sweep_environment_fails_only_sweeps(monkeypatch, variable):
    from repro.errors import ConfigError

    monkeypatch.setenv(variable, "lots")
    # Every command still parses; only the engine's construction fails.
    build_parser().parse_args(["run", "--threads", "2"])
    with pytest.raises(ConfigError, match=variable):
        main(["figure", "fig3", "--no-cache", "--stats"], out=io.StringIO())


def test_sweep_environment_reaches_the_cli_engine(monkeypatch, tmp_path):
    from repro.cli import _engine_from_args

    monkeypatch.setenv("REPRO_SWEEP_METRICS", "1")
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "3")
    monkeypatch.setenv("REPRO_SWEEP_QUEUE", str(tmp_path / "queue"))
    engine = _engine_from_args(
        build_parser().parse_args(["figure", "fig3", "--stats"])
    )
    assert engine.collect_metrics
    assert engine.jobs == 3
    assert engine.queue_dir == str(tmp_path / "queue")
    # A given flag wins over its variable.
    flagged = _engine_from_args(
        build_parser().parse_args(["figure", "fig3", "--stats", "--jobs", "2"])
    )
    assert flagged.jobs == 2


def test_interrupt_hint_names_the_environment_queue(monkeypatch, tmp_path):
    from repro.harness import sweep as sweep_mod

    real_run = sweep_mod.run_job
    calls = []

    def _interrupt_third(job, tracer=None):
        calls.append(job)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real_run(job, tracer)

    monkeypatch.setattr(sweep_mod, "run_job", _interrupt_third)
    monkeypatch.setenv("REPRO_SWEEP_QUEUE", str(tmp_path / "queue"))
    code, text = run_cli(
        "figure", "fig3", "--scale", "quick", "--no-cache", "--stats"
    )
    assert code == 130
    assert "interrupted" in text
    # The queue came from the environment, not a flag: the resume hint
    # must still point at it.
    assert f"--queue {tmp_path / 'queue'}" in text


@pytest.mark.parametrize("flags, environ", [
    (("--check-invariants",), {}),
    ((), {"REPRO_SWEEP_METRICS": "1"}),
], ids=["check-invariants", "metrics"])
def test_interrupt_hint_resumes_the_same_queue(monkeypatch, tmp_path, flags, environ):
    from repro.harness import sweep as sweep_mod

    real_run = sweep_mod.run_job
    calls = []

    def _interrupt_third(job, tracer=None):
        calls.append(job)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real_run(job, tracer)

    monkeypatch.setattr(sweep_mod, "run_job", _interrupt_third)
    for variable, value in environ.items():
        monkeypatch.setenv(variable, value)
    queue = tmp_path / "queue"
    code, text = run_cli("figure", "fig3", *flags, "--no-cache", "--queue", str(queue))
    assert code == 130
    # Invariant checks and metrics enter every job's digest: a hint that
    # dropped them resumed into a second queue subdirectory and
    # simulated every job again.  Follow the hint exactly as printed.
    monkeypatch.setattr(sweep_mod, "run_job", real_run)
    for variable in environ:
        monkeypatch.delenv(variable)
    hint = next(line for line in text.splitlines() if line.startswith("resume with"))
    argv = shlex.split(hint.split(":", 1)[1])
    while "=" in argv[0]:
        variable, value = argv.pop(0).split("=", 1)
        monkeypatch.setenv(variable, value)
    assert argv[0] == "repro"
    code, text = run_cli(*argv[1:], "--stats")
    assert code == 0
    (subdir,) = queue.iterdir()
    assert f"queue         : {subdir} (2 jobs served from queue records" in text
    counts = json.loads((subdir / "manifest.json").read_text())["counts"]
    assert counts.get("pending", 0) == counts.get("leased", 0) == 0


def test_run_command_pcie_rate_fits_the_link():
    # The link counts wire bytes from time zero: dividing them by the
    # measurement window alone printed more than the 4 GB/s link.
    code, text = run_cli(
        "run", "--mechanism", "software-queue", "--threads", "24",
        "--cores", "8", "--warmup-us", "10", "--measure-us", "40",
    )
    assert code == 0
    line = next(
        line for line in text.splitlines() if line.startswith("PCIe upstream")
    )
    assert float(line.split(":")[1].split()[0]) <= 4.00
    assert "(whole run)" in line


def test_figure_without_stats_prints_no_engine_statistics(tmp_path):
    code, text = run_cli("figure", "fig3", "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    for line in text.splitlines():
        assert not line.startswith(("workers", "cache", "simulated", "total wall"))


def test_explain_top_zero_is_rejected():
    from repro.errors import ConfigError

    # --top reaches ServiceParams.span_exemplars as given: 0 is as
    # invalid as a negative count, not a request for the default 8.
    with pytest.raises(ConfigError, match="need at least one span exemplar slot"):
        run_cli(*_EXPLAIN_ARGS, "--top", "0")


# ---------------------------------------------------------------------------
# Ledger identity: a job command's config_digest is its job's job_digest
# ---------------------------------------------------------------------------

def test_app_runs_of_different_applications_record_different_digests():
    from repro.obs.runlog import RunLedger

    run_cli("app", "bloom", "--threads", "2")
    run_cli("app", "memcached", "--threads", "2")
    bloom, memcached = RunLedger().entries()
    assert bloom["config_digest"] != memcached["config_digest"]
    code, text = run_cli("runs", "diff", "0", "1")
    assert code == 1
    assert "  config_digest: " in text


def test_job_commands_record_the_job_digest():
    from repro.config import AccessMechanism, SystemConfig
    from repro.harness.applications import default_params
    from repro.harness.experiment import MeasureWindow
    from repro.harness.service import ServiceParams
    from repro.harness.sweep import SweepJob, job_digest
    from repro.obs.runlog import RunLedger
    from repro.workloads.loadgen import ArrivalSpec, OpenLoopSpec
    from repro.workloads.microbench import MicrobenchSpec

    prefetch = SystemConfig(mechanism=AccessMechanism.PREFETCH, threads_per_core=2)
    expected = {
        ("run", "--threads", "2", "--warmup-us", "2", "--measure-us", "8"): SweepJob(
            config=prefetch,
            spec=MicrobenchSpec(work_count=200),
            window=MeasureWindow(warmup_us=2.0, measure_us=8.0),
        ),
        ("app", "bloom", "--threads", "2"): SweepJob(
            config=prefetch, app="bloom", params=default_params("bloom"),
        ),
        ("serve", "--warmup-us", "10", "--measure-us", "60"): SweepJob(
            config=SystemConfig(
                mechanism=AccessMechanism.SOFTWARE_QUEUE, threads_per_core=8
            ),
            service=ServiceParams(
                open_loop=OpenLoopSpec(arrivals=ArrivalSpec(rate_per_us=0.2))
            ),
            window=MeasureWindow(warmup_us=10.0, measure_us=60.0),
        ),
    }
    for argv, job in expected.items():
        assert run_cli(*argv)[0] == 0
        assert RunLedger().resolve("-1")["config_digest"] == job_digest(job)


@pytest.mark.parametrize("command", ["app", "explain", "trace"])
def test_identical_job_runs_diff_clean(command, tmp_path):
    argv = {
        "app": ("app", "bloom", "--threads", "2"),
        "explain": _EXPLAIN_ARGS,
        "trace": ("trace", "--quick", "--out", str(tmp_path / "trace.json")),
    }[command]
    run_cli(*argv)
    run_cli(*argv)
    code, text = run_cli("runs", "diff", "0", "1")
    assert code == 0, text
    assert "runs match: no deviations" in text


def test_runs_diff_compares_the_exemplar_digest():
    from repro.obs.runlog import RunLedger

    run_cli(*_EXPLAIN_ARGS)
    ledger = RunLedger()
    entry = ledger.resolve("-1")
    assert len(entry["exemplars_digest"]) == 64
    ledger.record({**entry, "exemplars_digest": "0" * 64})
    code, text = run_cli("runs", "diff", "-2", "-1")
    assert code == 1
    assert "  exemplars_digest: " in text


def test_runs_diff_reports_a_moved_figure_point(tmp_path):
    from repro.obs.runlog import RunLedger

    run_cli("figure", "fig3", "--cache-dir", str(tmp_path / "cache"))
    ledger = RunLedger()
    entry = ledger.resolve("-1")
    entry["figure"]["payload"]["series"]["1us"][0][1] += 0.5
    ledger.record(entry)
    code, text = run_cli("runs", "diff", "-2", "-1")
    assert code == 1
    assert "  1us @ x=" in text
