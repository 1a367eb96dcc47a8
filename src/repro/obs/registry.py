"""A hierarchical metrics registry over the simulation probes.

Components register their :class:`~repro.sim.trace.Counter` /
:class:`~repro.sim.trace.TimeWeighted` /
:class:`~repro.sim.trace.LatencyStat` probes (or plain zero-argument
callables, rendered as gauges) under dotted hierarchical names --
``core0.lfb.in_flight``, ``pcie.upstream.util`` -- and a single
:meth:`MetricsRegistry.snapshot` renders everything to one JSON-able
dict, in the spirit of gem5's stat dumps.

The registry is *pull-based*: registration stores a reference to the
live probe, so building a registry costs nothing per simulated event
and a snapshot can be taken at any simulated time.  A probe renders
what it holds: a system :class:`~repro.sim.trace.ProbeSet` member
(``work``, ``access_latency``, ``spans.*``) describes the measurement
window, since the set is reset when the window opens, and a
component-owned probe counts from construction.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, Union

from repro.errors import ConfigError
from repro.sim.trace import Counter, LatencyStat, TimeWeighted

__all__ = ["MetricsRegistry", "Probe"]

Probe = Union[Counter, LatencyStat, TimeWeighted, Callable[[], Any]]


def _finite(value: float) -> Any:
    """NaN is not valid strict JSON; render it as null."""
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _render(probe: Probe, now: int) -> dict:
    if isinstance(probe, Counter):
        return {"type": "counter", "total": probe.total}
    if isinstance(probe, LatencyStat):
        return {
            "type": "latency",
            "count": probe.count,
            "mean": _finite(probe.mean),
            "min": probe.minimum,
            "max": probe.maximum,
            "p50": _finite(probe.percentile(50)),
            "p99": _finite(probe.percentile(99)),
            "p999": _finite(probe.percentile(99.9)),
            "jitter": _finite(probe.jitter),
        }
    if isinstance(probe, TimeWeighted):
        return {
            "type": "time_weighted",
            "mean": probe.mean(now),
            "max": probe.maximum,
        }
    return {"type": "gauge", "value": probe()}


class MetricsRegistry:
    """Named bag of live probes; one ``snapshot()`` renders them all."""

    def __init__(self) -> None:
        self._probes: Dict[str, Probe] = {}

    def register(self, name: str, probe: Probe) -> None:
        """Register ``probe`` under the hierarchical ``name``.

        Names are dotted paths (``core0.lfb.in_flight``); duplicates
        are a :class:`~repro.errors.ConfigError` -- two components
        silently sharing a name would make one of them unreadable.
        """
        if not name:
            raise ConfigError("metric name must be non-empty")
        if name in self._probes:
            raise ConfigError(f"duplicate metric name {name!r}")
        if not isinstance(
            probe, (Counter, LatencyStat, TimeWeighted)
        ) and not callable(probe):
            raise ConfigError(
                f"metric {name!r}: unsupported probe type "
                f"{type(probe).__name__}"
            )
        self._probes[name] = probe

    def names(self) -> Iterable[str]:
        return sorted(self._probes)

    def __len__(self) -> int:
        return len(self._probes)

    def __contains__(self, name: str) -> bool:
        return name in self._probes

    def snapshot(self, now: int) -> dict:
        """Render every probe at simulated time ``now`` (JSON-able,
        names sorted, so equal states serialize identically)."""
        return {
            name: _render(self._probes[name], now)
            for name in sorted(self._probes)
        }
