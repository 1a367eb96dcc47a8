"""Figure A (beyond the paper): open-loop tail latency vs offered load.

The paper's figure 8 sweeps *closed-loop* thread counts, which cannot
show SLO tails: offered load collapses exactly when the system slows
down.  This benchmark regenerates the open-loop companion figure --
p50/p99/p999 end-to-end sojourn vs offered Poisson load on the fig8
multicore SWQ configuration -- and checks the paper's section V-B
queue-sizing rule (~20 x latency_us entries per core) against an
undersized ring at the tail.

The run is fully deterministic (seeded arrivals, discrete-event
timeline), so the committed ``benchmarks/service_baseline.json`` is an
*exact* gate: any drift in the p99 numbers means the model changed,
and either the change is a bug or the baseline must be regenerated
alongside a MODEL_VERSION bump.  The outcome lands in
``benchmarks/results/BENCH_service.json`` for PR-over-PR tracking.
"""

import json
import pathlib

from repro.harness.figures import figA_slo, queue_rule_report
from repro.harness.sweep import MODEL_VERSION
from repro.obs.runlog import git_sha

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = pathlib.Path(__file__).parent / "service_baseline.json"


def test_figA_open_loop_slo(benchmark, scale, publish):
    figure = benchmark.pedantic(figA_slo, args=(scale,), rounds=1, iterations=1)
    publish(figure)
    report = queue_rule_report(figure)

    # Quantile ordering within every policy/core combination.
    labels = {line.label: line for line in figure.series}
    prefixes = {label.rsplit("/", 1)[0] for label in labels}
    for prefix in prefixes:
        p50 = labels[f"{prefix}/p50"]
        p99 = labels[f"{prefix}/p99"]
        p999 = labels[f"{prefix}/p999"]
        for (x, lo), (_, mid), (_, hi) in zip(
            p50.points, p99.points, p999.points
        ):
            assert lo <= mid <= hi, f"{prefix} quantiles disordered at {x}"

    # The load-latency shape is the figure's story: an undersized ring
    # serializes bursts, so its p99 climbs steeply with offered load; a
    # rule-sized ring absorbs them, so its p99 stays nearly flat.
    for label, line in labels.items():
        if not label.endswith("/p99"):
            continue
        first, last = line.points[0][1], line.points[-1][1]
        if label.startswith("under-rule/"):
            assert last > 1.8 * first, f"{label} tail did not climb: {line.points}"
        else:
            assert last < 1.3 * first, f"{label} tail not flat: {line.points}"

    # Acceptance: the ~20 x latency_us x cores sizing rule holds under
    # open-loop Poisson load -- the rule-sized ring's p99 never loses
    # to the under-provisioned ring's.
    assert report["holds"], f"queue-sizing rule violated: {report}"

    # The gap is material at the highest load, not a rounding tie: an
    # undersized ring serializes bursts and visibly fattens the tail.
    for cores, entry in report["per_cores"].items():
        assert entry["under-rule"] > 1.5 * entry["rule-sized"], (
            f"{cores} cores: expected a clear tail win for the "
            f"rule-sized ring, got {entry}"
        )

    payload = {
        "schema": "repro-service-bench-v1",
        "git_sha": git_sha(),
        "model_version": MODEL_VERSION,
        "figure": "figA_slo",
        "scale": scale,
        "queue_rule": report,
        "p99_us": {
            label: line.points[-1][1]
            for label, line in sorted(labels.items())
            if label.endswith("/p99")
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_service.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    # Exact determinism gate against the committed baseline.  Quick
    # scale only: the baseline is committed for the CI grid.  Like
    # perfbench's check, it applies whatever MODEL_VERSION says, so a
    # version bump cannot skip it.
    baseline = json.loads(BASELINE_PATH.read_text())
    if scale == baseline["scale"]:
        assert payload["p99_us"] == baseline["p99_us"], (
            "service p99 drifted from the committed baseline; if the "
            "model change is intentional, bump MODEL_VERSION and "
            "regenerate benchmarks/service_baseline.json"
        )
