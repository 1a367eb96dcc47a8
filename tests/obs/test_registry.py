"""Unit tests for the hierarchical metrics registry."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs import MetricsRegistry
from repro.sim.trace import Counter, LatencyStat, TimeWeighted


def test_registers_all_probe_kinds_and_snapshots():
    registry = MetricsRegistry()
    counter = Counter("c")
    counter.add(5)
    latency = LatencyStat("l")
    latency.record(100)
    latency.record(300)
    weighted = TimeWeighted("w")
    weighted.update(0, 1.0)
    weighted.update(50, 0.0)
    registry.register("core0.instructions", counter)
    registry.register("core0.fill_latency", latency)
    registry.register("pcie.upstream.util", weighted)
    registry.register("core0.lfb.in_flight", lambda: 7)

    snapshot = registry.snapshot(now=100)
    assert snapshot["core0.instructions"] == {"type": "counter", "total": 5}
    assert snapshot["core0.fill_latency"]["count"] == 2
    assert snapshot["core0.fill_latency"]["mean"] == pytest.approx(200)
    assert snapshot["pcie.upstream.util"]["mean"] == pytest.approx(0.5)
    assert snapshot["core0.lfb.in_flight"] == {"type": "gauge", "value": 7}
    # Snapshot keys are sorted, so equal states serialize identically.
    assert list(snapshot) == sorted(snapshot)


def test_snapshot_is_strict_json():
    registry = MetricsRegistry()
    registry.register("empty_latency", LatencyStat("l"))
    payload = json.dumps(registry.snapshot(now=0), allow_nan=False)
    decoded = json.loads(payload)
    # NaN percentiles/means render as null, not as invalid JSON.
    assert decoded["empty_latency"]["mean"] is None
    assert decoded["empty_latency"]["p99"] is None


def test_duplicate_and_invalid_names_rejected():
    registry = MetricsRegistry()
    registry.register("a.b", lambda: 1)
    with pytest.raises(ConfigError):
        registry.register("a.b", lambda: 2)
    with pytest.raises(ConfigError):
        registry.register("", lambda: 3)
    with pytest.raises(ConfigError):
        registry.register("bad", object())


def test_register_many_prefixes_names():
    registry = MetricsRegistry()
    registry.register_many("lfb", {"fills": lambda: 1, "merges": lambda: 2})
    assert "lfb.fills" in registry and "lfb.merges" in registry
    assert len(registry) == 2
    assert list(registry.names()) == ["lfb.fills", "lfb.merges"]
