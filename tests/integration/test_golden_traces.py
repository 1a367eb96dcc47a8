"""Golden trace digests for the quick ``fig3``, ``fig7`` and ``fig10`` traces.

``test_golden_fig3`` pins figure series, and only for prefetch.  These
traces pin the simulation at tick level instead: ROB stalls, LFB fills,
uncore queue samples, PCIe wire and propagation slices, DMA-driven
descriptor fetchers and completion-queue polls, each with its exact
timestamp.  ``tests/golden/trace_quick_digests.json`` holds the sha256
of each trace's ``traceEvents`` (canonical JSON, as ``repro runs``
digests payloads), recorded with the same 5 + 20 us window as
``repro trace --figure figN --quick``.  Any change to the order or the
timing of a traced event changes a digest; a host-speed change must
not.
"""

import json
import pathlib

import pytest

from repro.harness.experiment import MeasureWindow, run_microbench
from repro.obs import TraceConfig, Tracer
from repro.obs.runlog import digest_of
from repro.obs.scenarios import trace_scenario

GOLDEN = pathlib.Path(__file__).parent.parent / "golden" / "trace_quick_digests.json"

#: ``repro trace --quick``'s window.
QUICK = MeasureWindow(warmup_us=5.0, measure_us=20.0)


@pytest.mark.parametrize("figure", ["fig3", "fig7", "fig10"])
def test_quick_trace_is_event_for_event_identical(figure):
    golden = json.loads(GOLDEN.read_text())[figure]
    scenario = trace_scenario(figure)
    tracer = Tracer(TraceConfig.from_track_list(None))
    run_microbench(scenario.config, scenario.spec, QUICK, tracer=tracer)
    trace = tracer.to_dict()
    assert trace["otherData"]["dropped_events"] == golden["dropped"]
    assert len(trace["traceEvents"]) == golden["events"]
    assert digest_of(trace["traceEvents"]) == golden["sha256"]
