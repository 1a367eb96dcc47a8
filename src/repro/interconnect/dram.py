"""DRAM channel models (host DDR4 and the FPGA's on-board DDR3).

A channel pipelines requests: the data bus serializes transfers at the
configured bandwidth, and each transfer completes a fixed access
latency after its bus slot.  This captures the two properties the
paper's analysis depends on: bounded bandwidth and a fixed random
access latency, with concurrency limited upstream (by the uncore
queue for host DRAM, by the streaming design for on-board DRAM).
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigError
from repro.interconnect.fifo import FifoServer
from repro.sim import Event, Simulator
from repro.sim.trace import TimeWeighted
from repro.units import transfer_ticks

__all__ = ["DramChannel"]

# Bus requests are plain ``(num_bytes, done, value, latency)`` tuples:
# ``latency`` is the channel's access latency for reads and 0 for posted
# writes, which complete at the end of their bus slot.


class DramChannel(FifoServer):
    """A bandwidth-limited, fixed-latency memory channel.

    ``access(num_bytes)`` returns an event that fires when the data is
    available.  Requests occupy the data bus FIFO for their transfer
    time; completion fires ``latency`` ticks after the bus slot ends.
    The bus is a :class:`~repro.interconnect.fifo.FifoServer`.
    """

    def __init__(
        self,
        sim: Simulator,
        latency_ticks: int,
        bandwidth_bytes_per_s: float,
        name: str = "dram",
    ) -> None:
        if latency_ticks < 0:
            raise ConfigError(f"{name}: negative latency {latency_ticks}")
        if bandwidth_bytes_per_s <= 0:
            raise ConfigError(f"{name}: bandwidth must be positive")
        super().__init__(sim)
        self.name = name
        self.latency_ticks = latency_ticks
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s
        self.utilization = TimeWeighted(f"{name}-util")
        # Anchor at construction so idle time from t=0 counts in the
        # mean (the probe otherwise starts at its first update).
        self.utilization.update(sim.now, 0.0)
        self.bytes_transferred = 0
        self.accesses = 0

    def register_metrics(self, registry, prefix: str) -> None:
        registry.register(
            f"{prefix}.bytes_transferred", lambda: self.bytes_transferred
        )
        registry.register(f"{prefix}.accesses", lambda: self.accesses)
        registry.register(f"{prefix}.queued", lambda: self.queued)
        registry.register(f"{prefix}.util", self.utilization)

    def access(self, num_bytes: int, value: Any = None) -> Event:
        """Read or write ``num_bytes``; the event fires with ``value``
        when the transfer completes."""
        if num_bytes <= 0:
            raise ConfigError(f"{self.name}: access of {num_bytes} bytes")
        done = Event(self.sim)
        self._submit((num_bytes, done, value, self.latency_ticks))
        return done

    def post_write(self, num_bytes: int) -> Event:
        """A posted write: the event fires once the bus slot ends (the
        caller does not wait for the array update)."""
        if num_bytes <= 0:
            raise ConfigError(f"{self.name}: write of {num_bytes} bytes")
        done = Event(self.sim)
        self._submit((num_bytes, done, None, 0))
        return done

    def _begin(self, request: tuple) -> int:
        """Put ``request`` on the data bus."""
        self.utilization.update(self.sim.now, 1.0)
        return transfer_ticks(request[0], self.bandwidth_bytes_per_s)

    def _end(self, request: tuple) -> None:
        """Bus slot over: complete ``request``."""
        num_bytes, done, value, latency = request
        sim = self.sim
        self.utilization.update(sim.now, 0.0)
        self.bytes_transferred += num_bytes
        self.accesses += 1
        sim._schedule_value(done, latency, value)

