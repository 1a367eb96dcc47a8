"""Checks on the layer map.  Run: python3 -m pytest perfbench/test_layers.py"""

from __future__ import annotations

import cProfile
import math
import sys
from pathlib import Path

import pytest

import layers

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def _modules() -> list[str]:
    return sorted(
        layers.module_of(str(path), SRC) for path in (SRC / "repro").resolve().rglob("*.py")
    )


def test_every_module_maps_to_one_layer():
    modules = _modules()
    assert modules and None not in modules
    for module in modules:
        assert layers.layer_of(module) in layers.LAYERS


def test_layer_map_names_only_existing_modules():
    present = {module.split(".")[1] for module in _modules()}
    assert set(layers.LAYER_OF) == present


def test_unmapped_module_is_rejected():
    with pytest.raises(KeyError, match="no layer"):
        layers.layer_of("repro.newpackage.thing")


def test_self_time_shares_sum_to_one():
    from repro.config import AccessMechanism, SystemConfig
    from repro.harness.experiment import MeasureWindow, run_microbench
    from repro.workloads.microbench import MicrobenchSpec

    profiler = cProfile.Profile()
    profiler.enable()
    run_microbench(
        SystemConfig(mechanism=AccessMechanism.PREFETCH, threads_per_core=4),
        MicrobenchSpec(),
        MeasureWindow(warmup_us=2.0, measure_us=5.0),
    )
    profiler.disable()
    profiler.create_stats()
    self_s = layers.self_time_by_layer(profiler.stats, SRC)
    recorded = sum(entry[2] for entry in profiler.stats.values())
    assert math.isclose(sum(self_s.values()), recorded, rel_tol=1e-9)
    assert math.isclose(sum(layers.shares(self_s).values()), 1.0, rel_tol=1e-9)
    assert self_s["sim"] > 0 and self_s["cpu"] > 0
