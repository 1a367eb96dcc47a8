"""Figure-regeneration benchmark: host time to regenerate slices of the
paper's figures, with the simulated outputs checked on every pass.

Usage (from the repository root):

    python3 perfbench/run.py --workload prefetch_closed [--seed N]
        [--seconds 30] [--trace 0|1]

Runs fresh-interpreter passes of the workload's sweep (``passrun.py``) one
at a time until ``--seconds`` is spent (at least three), and reports each
host-time metric from the fastest pass of every piece of work.  ``--trace
1`` adds one cProfile pass and reports the per-layer metrics instead.  The
last line of stdout is the JSON result; the lines above it are the report,
with every pass's raw numbers.  NOTES.md explains workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
E2E_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
LAYER_UNITS = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
SERVICE_BASELINE = ROOT / "benchmarks" / "service_baseline.json"

MIN_PASSES = 3
#: Every run must end well inside 180 s, traced pass included.
RUN_LIMIT_S = 170.0
#: Host time of the simulated-time slices a simulate call is cut into.
SLICE_S = 0.05


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a wrong output)."""


def run_pass(workload, seed, work, index, deadline, trace=False) -> dict:
    """One pass in a fresh interpreter with an empty cache directory."""
    cache_dir = work / f"cache{index}"
    out = work / f"pass{index}.json"
    command = [
        sys.executable, str(HERE / "passrun.py"), workload,
        "default" if seed is None else str(seed), str(cache_dir), str(out),
    ]
    if trace:
        command.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index} did not finish inside the run's time limit")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(out) as handle:
        return json.load(handle)


# -- fastest-pass estimators ----------------------------------------------------


def _time_at(progress, values, boundary) -> float:
    """Host time at which a sampled call's progress reached ``boundary``,
    interpolated between the two samples around it."""
    index = bisect.bisect_left(values, boundary)
    if index == 0:
        return progress[0][0]
    (t0, n0), (t1, n1) = progress[index - 1], progress[index]
    return t0 + (t1 - t0) * (boundary - n0) / (n1 - n0)


def fastest_sliced(progresses) -> float:
    """Time of one sampled call, fastest pass per slice.

    The call does the same work between the same two progress values
    (simulated times, or words written) in every pass, so it is cut at
    fixed progress values into slices of about ``SLICE_S`` host seconds,
    and each slice takes its fastest pass.  A host slowdown then has to
    cover a whole slice in every pass to count, rather than any part of
    the whole call.
    """
    start, end = progresses[0][0][1], progresses[0][-1][1]
    durations = [progress[-1][0] - progress[0][0] for progress in progresses]
    slices = max(1, round(min(durations) / SLICE_S))
    same_work = all(
        (progress[0][1], progress[-1][1]) == (start, end) for progress in progresses
    )
    if end <= start or slices == 1 or not same_work:
        # Nothing to cut (no progress), or the passes disagree, which
        # failed_jobs reports: fall back to the fastest whole call.
        return min(durations)
    bounds = [start + (end - start) * k / slices for k in range(1, slices)]
    best = [float("inf")] * slices
    for progress in progresses:
        values = [value for _t, value in progress]
        times = [progress[0][0]]
        times += [_time_at(progress, values, bound) for bound in bounds]
        times.append(progress[-1][0])
        for k in range(slices):
            best[k] = min(best[k], times[k + 1] - times[k])
    return sum(best)


def fastest_spans(passes) -> dict[str, dict[str, float]]:
    """Per job key: each span's time in its fastest pass."""
    by_key: dict[str, list[dict]] = {}
    for result in passes:
        for job in result["jobs"]:
            by_key.setdefault(job["key"], []).append(job)
    spans = {}
    for key, runs in by_key.items():
        spans[key] = {
            name: min(job[f"{name}_s"] for job in runs) for name in ("build", "report", "store")
        }
        for name in ("install", "sim"):
            spans[key][name] = fastest_sliced([job[f"{name}_progress"] for job in runs])
        spans[key]["rest"] = min(
            job["wall_s"] - job["build_s"] - job["install_s"] - job["sim_s"] - job["report_s"]
            for job in runs
        )
    return spans


def harness_overhead(result) -> float:
    """``SweepEngine.run`` time outside the jobs the progress hook timed."""
    return result["run_s"] - sum(job["wall_s"] for job in result["jobs"])


def end_to_end(passes, spans) -> dict[str, float]:
    import_s = min(result["import_s"] for result in passes)
    engine = min(
        harness_overhead(result) - sum(job["store_s"] for job in result["jobs"])
        for result in passes
    )
    return {
        "wall_s": import_s + sum(sum(job.values()) for job in spans.values()) + engine,
        "setup_s": import_s + sum(job["build"] + job["install"] for job in spans.values()),
        "peak_rss_mb": max(result["peak_rss_mib"] for result in passes),
    }


def _ops(payload: dict) -> int:
    """Workload-level operations a job completed."""
    for field in ("operations", "completions", "accesses"):
        if field in payload:
            return payload[field]
    return 0


def per_layer(passes, spans, traced) -> dict[str, float]:
    kernel = passes[0]["stats"]["kernel_stats"]
    events = kernel["events_fired"]
    scheduled = kernel["runq_bypasses"] + kernel["heap_pushes"]
    metrics = {f"{layer}.self_s": value for layer, value in traced["self_s"].items()}
    metrics.update({
        "sim.events": events,
        "sim.bypass_ratio": kernel["runq_bypasses"] / scheduled if scheduled else 0.0,
        "sim.ns_per_event": sum(job["sim"] for job in spans.values()) / events * 1e9,
        "workloads.install_s": sum(job["install"] for job in spans.values()),
        "workloads.ops": sum(_ops(job["payload"]) for job in passes[0]["jobs"]),
        "host.build_s": sum(job["build"] for job in spans.values()),
        "harness.overhead_s": min(harness_overhead(result) for result in passes),
        "harness.jobs": passes[0]["stats"]["simulated"],
        "trace.overhead": traced["run_s"] / min(result["run_s"] for result in passes),
    })
    for job in traced["jobs"]:
        for name, value in job["counts"].items():
            metrics[name] = metrics.get(name, 0) + value
    return {name: metrics[name] for name in LAYER_UNITS}


# -- output checks ------------------------------------------------------------


def failed_jobs(passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every job of every pass.

    A job fails if it raised or came back failed, if its functional
    results were wrong, or if its payload differs from the first pass's.
    A pass that hit the cache or skipped a job fails all of its jobs.
    """
    reference = {job["key"]: job["payload"] for job in passes[0]["jobs"]}
    attempted = failed = 0
    reasons = []
    for index, result in enumerate(passes):
        stats = result["stats"]
        clean = (
            stats["simulated"] == stats["unique"] == len(result["jobs"])
            and stats["cache_hits"] == 0
            and not result["errors"]
        )
        if not clean:
            reasons.append(f"pass {index}: not a clean cold pass {stats} {result['errors']}")
        for job in result["jobs"]:
            attempted += 1
            problems = list(job["errors"])
            if job["payload"] != reference.get(job["key"]):
                problems.append("payload differs from pass 0")
            if problems or not clean:
                failed += 1
                reasons.extend(f"pass {index} {job['describe']}: {p}" for p in problems)
    return attempted, failed, reasons


def digest(result) -> str:
    """sha256 of every simulated payload in job order (host-side kernel
    counters excluded)."""
    payloads = [
        {k: v for k, v in job["payload"].items() if k != "kernel_stats"}
        for job in result["jobs"]
    ]
    return hashlib.sha256(json.dumps(payloads, sort_keys=True).encode()).hexdigest()


def check_slo_baseline(result) -> list[str]:
    """The service p99s equal those recorded at the default seed."""
    with open(SERVICE_BASELINE) as handle:
        recorded = json.load(handle)["p99_us"]
    errors = []
    for job in result["jobs"]:
        p99_us = job["payload"]["p99_ns"] / 1000.0
        if p99_us != recorded.get(job["label"]):
            errors.append(f"{job['label']}: p99 {p99_us!r} us, recorded {recorded.get(job['label'])!r}")
    return errors


# -- one run ------------------------------------------------------------------


def measure(args, work: Path) -> tuple[dict, list[str]]:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    passes: list[dict] = []
    while True:
        passes.append(run_pass(args.workload, args.seed, work, len(passes), deadline))
        elapsed = time.monotonic() - started
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    traced = None
    if args.trace:
        traced = run_pass(args.workload, args.seed, work, len(passes), deadline, trace=True)

    attempted, failed, reasons = failed_jobs(passes + ([traced] if traced else []))
    spans = fastest_spans(passes)
    e2e = end_to_end(passes, spans)
    seed = passes[0]["seed"]
    default_seed = passes[0]["default_seed"]
    lines = [f"perfbench {args.workload} seed={seed} (default {default_seed}): "
             f"{len(passes)} passes" + (" + 1 traced pass" if traced else "")]
    lines.append("  pass  wall_s   setup_s  run_s    import_s  peak_rss_mb  cpu (probe ms per cpu)")
    for index, result in enumerate(passes):
        setup = result["import_s"] + sum(j["build_s"] + j["install_s"] for j in result["jobs"])
        lines.append(
            f"  {index:<4}  {result['import_s'] + result['run_s']:<7.4f}  {setup:<7.4f}  "
            f"{result['run_s']:<7.4f}  {result['import_s']:<8.4f}  {result['peak_rss_mib']:<11.1f}  "
            f"{result['cpu']} ("
            + " ".join(f"{1000 * probe:.1f}" for probe in result["probe_s"].values()) + ")"
        )
    lines.append("fastest pass of every span:")
    for name, value in e2e.items():
        lines.append(f"  {name:<12} {value:10.4f} {E2E_UNITS[name]}")
    lines.append(f"  {'error_rate':<12} {failed / attempted:10.4f} fraction of {attempted} jobs attempted")
    lines.extend(f"  FAILED {reason}" for reason in reasons[:20])

    correct = failed == 0
    payload_digest = digest(passes[0])
    recorded = json.loads((HERE / "digests.json").read_text()).get(args.workload, {})
    matches = recorded.get("digest") == payload_digest
    lines.append(
        f"payload digest {payload_digest}: "
        + ("matches" if matches else "does not match")
        + f" the digest recorded at the default seed {recorded.get('seed')}"
        + ("" if matches or seed != recorded.get("seed") else " (a model change; see NOTES.md)")
    )
    if args.workload == "service_openloop" and seed == default_seed:
        slo_errors = check_slo_baseline(passes[0])
        correct = correct and not slo_errors
        lines.append(
            "service p99s equal benchmarks/service_baseline.json: "
            + ("yes" if not slo_errors else "NO " + "; ".join(slo_errors))
        )

    units, metrics = E2E_UNITS, e2e
    if traced:
        units, metrics = LAYER_UNITS, per_layer(passes, spans, traced)
        shares = layers.shares(traced["self_s"])
        lines.append("per layer (self time from the traced pass, host times from the fastest pass):")
        lines.append("  layer         self_s    share")
        for layer in layers.LAYERS:
            lines.append(f"  {layer:<12} {traced['self_s'][layer]:8.4f}  {shares[layer]:6.1%}")
        for name, unit in LAYER_UNITS.items():
            if not name.endswith(".self_s"):
                lines.append(f"  {name:<26} {metrics[name]:>14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the figure's own seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, lines = measure(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
