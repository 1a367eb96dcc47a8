"""Meta-benchmark: what observability costs, and that "off" is free.

The observability layer (metrics registry, tracer hooks, invariant
sanitizer) is built on the promise that a run with everything disabled
pays nothing -- the hooks are ``None`` checks on hot paths.  This
module measures the fig3 scenario's events/sec with observability off
vs metrics / invariants / both enabled and writes the outcome to
``benchmarks/results/BENCH_obs.json`` for PR-over-PR tracking.

The regression gate is machine-independent: absolute wall times are
incomparable across machines, so the "disabled path is still fast"
check re-runs the kernel-vs-frozen-reference event-loop speedup
measurement (the ``event_loop`` entry of
``benchmarks/kernel_baseline.json``) with the observability modules
imported, and requires it to stay within 2% of that baseline's
enforced floor.  The timing helpers come from ``benchmarks/timing.py``.
"""

import json
import os
import pathlib
from dataclasses import replace

from repro.harness.experiment import MeasureWindow
from repro.harness.sweep import MODEL_VERSION, run_job
from repro.obs.runlog import git_sha
from repro.obs.scenarios import trace_scenario
from repro.sim import Simulator, Store
from repro.sim import _reference
from timing import event_loop, paired_speedup, time_mode

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = pathlib.Path(__file__).parent / "kernel_baseline.json"

#: The fig3 quick-look workload: the paper's headline scenario on a
#: short window, so four modes x several reps stay benchmark-sized.
WINDOW = MeasureWindow(warmup_us=5.0, measure_us=20.0)

_MODES = {
    "disabled": {},
    "metrics": {"collect_metrics": True},
    "invariants": {"check_invariants": True},
    "metrics+invariants": {"collect_metrics": True, "check_invariants": True},
}


def test_obs_overhead_writes_bench_json():
    """Measure fig3-scenario events/sec per observability mode; every
    mode must produce bit-for-bit the same simulation results."""
    scenario = replace(trace_scenario("fig3"), window=WINDOW)
    run_job(scenario)  # warm code paths before timing

    modes = {}
    reference_result = None
    for mode, options in _MODES.items():
        wall, result = time_mode(lambda: run_job(replace(scenario, **options)))
        stats = result.payload["kernel_stats"]
        modes[mode] = {
            "wall_s": wall,
            "events_fired": stats["events_fired"],
            "events_per_sec": stats["events_fired"] / wall,
        }
        if reference_result is None:
            reference_result = result
        else:
            # Observers are passive: identical model outputs in every mode.
            assert result.payload["work_ipc"] == reference_result.payload["work_ipc"]
            assert result.payload["accesses"] == reference_result.payload["accesses"]
            assert (
                stats["events_fired"] >= modes["disabled"]["events_fired"]
            )

    disabled = modes["disabled"]["events_per_sec"]
    payload = {
        "schema": "repro-obs-bench-v1",
        "git_sha": git_sha(),
        "model_version": MODEL_VERSION,
        "workload": (
            f"fig3 scenario ({scenario.config.describe()}, "
            f"{WINDOW.warmup_us:g}+{WINDOW.measure_us:g} us window)"
        ),
        "modes": modes,
        "overhead_vs_disabled": {
            mode: disabled / data["events_per_sec"]
            for mode, data in modes.items()
            if mode != "disabled"
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_obs.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    # Sanity only (absolute ratios are noisy on shared machines): the
    # fully-instrumented mode must not be catastrophically slower.
    assert payload["overhead_vs_disabled"]["metrics+invariants"] < 10


def test_disabled_path_keeps_kernel_speedup_within_2pct():
    """Acceptance gate: with the observability layer imported but
    disabled, the kernel's speedup over the frozen reference stays
    within 2% of the PR 2 benchmark floor.  Wall-clock-independent:
    both kernels run back to back on this machine."""
    run_new = lambda: event_loop(Simulator, Store)
    run_ref = lambda: event_loop(_reference.Simulator, _reference.Store)
    assert run_new() == run_ref() == sum(range(10_000))

    speedup, _best_ref, _best_new = paired_speedup(run_ref, run_new)
    assert speedup >= 0.98 * 1.3, (
        f"kernel speedup collapsed with obs layer loaded: {speedup:.2f}x"
    )
    if os.environ.get("REPRO_KERNEL_BENCH_ENFORCE"):
        baseline = json.loads(BASELINE_PATH.read_text())
        loop_base = baseline["workloads"]["event_loop"]["speedup_vs_reference"]
        floor = 0.98 * max(1.5, 0.7 * loop_base)
        assert speedup >= floor, (
            f"disabled-path regression: {speedup:.2f}x vs reference, "
            f"2%-tolerance floor {floor:.2f}x"
        )
