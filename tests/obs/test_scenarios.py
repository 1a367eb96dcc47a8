"""Every trace scenario builds, records, and produces a valid trace.

Satellite coverage for :mod:`repro.obs.scenarios`: the scenario table
is the ``repro trace`` CLI's menu, so each entry must (a) build a
working system, (b) record a non-trivial timeline, and (c) emit JSON
that passes :mod:`repro.obs.validate` -- the same check CI runs as
``python -m repro.obs.validate trace.json``.
"""

import pytest

from repro.harness.experiment import MeasureWindow, run_microbench
from repro.obs import TraceConfig, Tracer
from repro.obs.scenarios import TRACE_SCENARIOS, trace_scenario
from repro.obs.validate import validate_file, validate_trace

TINY = MeasureWindow(warmup_us=2.0, measure_us=6.0)


@pytest.mark.parametrize("name", sorted(TRACE_SCENARIOS))
def test_scenario_records_a_valid_trace(name):
    scenario = trace_scenario(name)
    tracer = Tracer(TraceConfig())
    run_microbench(scenario.config, scenario.spec, TINY, tracer=tracer)
    payload = tracer.to_dict()
    assert tracer.summary()["events"] > 0
    assert validate_trace(payload) == []


def test_scenario_table_covers_every_figure_sweep():
    # One scenario per paper figure reproduced by a sweep (2-10).
    assert sorted(TRACE_SCENARIOS) == sorted(
        f"fig{n}" for n in range(2, 11)
    )
    for scenario in TRACE_SCENARIOS.values():
        assert scenario.label


def test_fig10_scenario_matches_the_application_study_shape():
    scenario = trace_scenario("fig10")
    assert scenario.config.cores == 8
    assert scenario.spec.reads_per_batch == 4


def test_unknown_scenario_lists_choices():
    with pytest.raises(KeyError, match="fig2"):
        trace_scenario("fig99")


def test_written_scenario_trace_passes_file_validator(tmp_path):
    scenario = trace_scenario("fig3")
    tracer = Tracer(TraceConfig())
    run_microbench(scenario.config, scenario.spec, TINY, tracer=tracer)
    out = tmp_path / "trace.json"
    tracer.write(out)
    assert validate_file(str(out)) == []
