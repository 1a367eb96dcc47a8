"""Instrumentation helpers: counters, time-weighted stats, histograms.

The experiment harness measures "work IPC" over a steady-state window
(section IV-C of the paper).  The window is one rule: the probes in a
:class:`ProbeSet` count from construction, and the harness calls
:meth:`ProbeSet.reset` when the window opens, at a simulated time, so
every probe in the set then describes the window alone, exactly with
respect to event order.  Probes a component owns outside any set count
from construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Counter", "TimeWeighted", "LatencyStat", "ProbeSet"]


class Counter:
    """An event counter (e.g. retired work instructions)."""

    __slots__ = ("name", "total")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.total = 0

    def add(self, amount: int = 1) -> None:
        self.total += amount

    def reset(self) -> None:
        self.total = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name} total={self.total}>"


class TimeWeighted:
    """Time-weighted statistic of a piecewise-constant value.

    Used for queue occupancy and link utilization: ``update(now, v)``
    records that the value is ``v`` from ``now`` onward.
    """

    __slots__ = ("name", "_value", "_last", "_integral", "maximum", "_start")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._value = 0.0
        self._last = 0
        self._integral = 0.0
        self.maximum = 0.0
        #: Time of the first update; the mean is taken over
        #: ``[_start, now]`` so a probe created mid-run is not diluted
        #: by the pre-creation span it never observed.  Components that
        #: want "idle since construction" folded in (e.g. link
        #: utilization) anchor explicitly with ``update(sim.now, 0.0)``.
        self._start: Optional[int] = None

    def update(self, now: int, value: float) -> None:
        if self._start is None:
            self._start = now
            self._last = now
        elif now < self._last:
            raise ValueError("time-weighted update moved backwards in time")
        self._integral += self._value * (now - self._last)
        self._last = now
        self._value = value
        self.maximum = max(self.maximum, value)

    def mean(self, now: int) -> float:
        start = self._start
        if start is None or now <= start:
            return 0.0
        return (self._integral + self._value * (now - self._last)) / (now - start)


class LatencyStat:
    """Streaming min/mean/max/percentile tracker for latencies.

    Keeps the moments (count, total, sum of squares, min, max) and a
    stride-subsampled sample reservoir of every observation since
    construction or the last :meth:`reset`.
    """

    __slots__ = ("name", "count", "total", "total_sq",
                 "minimum", "maximum",
                 "_samples", "_stride", "_next_sample")

    #: Cap on retained samples; beyond it we subsample deterministically.
    #: Must stay even: subsampling keeps even indices, and the proof
    #: that the just-appended sample survives relies on MAX_SAMPLES
    #: (the index it lands on) being even.
    MAX_SAMPLES = 65536

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.total = 0
        self.total_sq = 0
        self.minimum: Optional[int] = None
        self.maximum: Optional[int] = None
        self._samples: list[int] = []
        self._stride = 1
        #: 1-based index of the next observation to retain.  An explicit
        #: counter keeps phase with the retained samples across
        #: subsampling: retained samples sit at counts 1, 1+s, 1+2s, …,
        #: and after halving, the freshly appended sample (an even
        #: index, hence kept) re-anchors the sequence.
        self._next_sample = 1

    def record(self, value: int) -> None:
        self.count += 1
        self.total += value
        self.total_sq += value * value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if self.count == self._next_sample:
            self._samples.append(value)
            if len(self._samples) > self.MAX_SAMPLES:
                # Keep every other sample and double the stride.  The
                # sample just appended landed on index MAX_SAMPLES
                # (even), so it survives and the next retained count is
                # exactly one new stride later.
                self._samples = self._samples[::2]
                self._stride *= 2
            self._next_sample = self.count + self._stride

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    @property
    def jitter(self) -> float:
        """Latency jitter: the population standard deviation."""
        count = self.count
        if not count:
            return math.nan
        mean = self.total / count
        # Clamp: catastrophic cancellation can leave a tiny negative.
        return math.sqrt(max(0.0, self.total_sq / count - mean * mean))

    def percentile(self, p: float) -> float:
        """Approximate percentile ``p`` in [0, 100] (NaN when empty)."""
        return percentile_of_sorted(sorted(self._samples), p)


@dataclass
class ProbeSet:
    """A named bag of probes shared across a system's components."""

    counters: dict[str, Counter] = field(default_factory=dict)
    latencies: dict[str, LatencyStat] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def latency(self, name: str) -> LatencyStat:
        if name not in self.latencies:
            self.latencies[name] = LatencyStat(name)
        return self.latencies[name]

    def reset(self) -> None:
        """Zero every probe in the set (the measurement window opens)."""
        for counter in self.counters.values():
            counter.reset()
        for latency in self.latencies.values():
            latency.reset()


def percentile_of_sorted(ordered: list[int], p: float) -> float:
    """Linear-interpolated percentile of an already-sorted list."""
    if not ordered:
        return math.nan
    if p <= 0:
        return float(ordered[0])
    if p >= 100:
        return float(ordered[-1])
    rank = p / 100 * (len(ordered) - 1)
    low = int(rank)
    frac = rank - low
    if low + 1 >= len(ordered):
        return float(ordered[-1])
    return ordered[low] * (1 - frac) + ordered[low + 1] * frac
