"""Test doubles used by the test suite.

Shipping these in the package (rather than burying them in conftest)
lets downstream users unit-test their own extensions against the same
fakes.
"""

from __future__ import annotations

from typing import Optional

from repro.memory import FlatMemory
from repro.sim import Event, Simulator

__all__ = ["FixedLatencyTarget"]


class FixedLatencyTarget:
    """A :class:`repro.cpu.uncore.MemoryTarget` with a constant service
    time and unlimited parallelism, backed by a functional memory."""

    def __init__(
        self,
        sim: Simulator,
        latency_ticks: int,
        memory: Optional[FlatMemory] = None,
        line_bytes: int = 64,
    ) -> None:
        self.sim = sim
        self.latency_ticks = latency_ticks
        self.memory = memory if memory is not None else FlatMemory(line_bytes)
        self.reads = 0
        self.in_flight = 0
        self.max_in_flight = 0

    def read_line(self, line_addr: int) -> Event:
        self.reads += 1
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        event = Event(self.sim)
        data = self.memory.read_line(line_addr)
        event.add_callback(lambda _ev: self._finish())
        self.sim._schedule_value(event, self.latency_ticks, data)
        return event

    def _finish(self) -> None:
        self.in_flight -= 1
