"""A PCIe link model: two simplex byte-serialized channels.

Each direction serializes packets FIFO at the configured bandwidth and
delivers them after a fixed propagation delay.  Per-TLP header bytes
are charged on the wire, so protocols that use many small packets (the
software-managed queue of section V-C) pay the paper's observed ~38%+
overhead and saturate the link at a fraction of its payload capacity.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config import PcieConfig
from repro.errors import ProtocolError
from repro.interconnect.fifo import FifoServer
from repro.interconnect.packets import Tlp
from repro.sim import Event, Simulator
from repro.sim.trace import TimeWeighted
from repro.units import ns, transfer_ticks

__all__ = ["PcieDirection", "PcieLink"]

Receiver = Callable[[Tlp], None]


class PcieDirection(FifoServer):
    """One simplex channel (downstream: host->device, or upstream).

    The transmitter is a :class:`~repro.interconnect.fifo.FifoServer`:
    a TLP occupies the wire for its serialization time, and the end of
    its serialization schedules its delivery.
    """

    def __init__(
        self,
        sim: Simulator,
        config: PcieConfig,
        name: str,
    ) -> None:
        super().__init__(sim)
        self.config = config
        self.name = name
        self._receiver: Optional[Receiver] = None
        self._propagation = ns(config.propagation_ns)
        # The TLP on the wire: (wire bytes, serialization start).
        self._on_wire: tuple[int, int] = (0, 0)
        self.utilization = TimeWeighted(f"{name}-util")
        # Anchor the time-weighted mean at construction: the channel is
        # *idle* from t=0, and that idle time belongs in the mean (the
        # probe otherwise starts its clock at the first transmission).
        self.utilization.update(sim.now, 0.0)
        # Accounting for the bandwidth analysis of section V-C.
        self.wire_bytes = 0
        self.payload_bytes = 0
        self.packets = 0
        self.packets_by_kind: dict[str, int] = {}
        # TLP conservation accounting for the invariant monitor:
        # ``tlps_sent == packets serialized + queued + (0|1 heading for
        # or on the wire)`` and ``tlps_delivered <= packets`` at any
        # stable tick.
        self.tlps_sent = 0
        self.tlps_delivered = 0
        #: Optional observability hooks (None keeps hot paths untouched).
        self.tracer = None
        self._trace_pid = 0
        self._trace_tid_wire = 0
        self._trace_tid_prop = 0

    def attach_tracer(
        self, tracer, pid: int, tid_wire: int, tid_prop: int
    ) -> None:
        """Wire tids: serialization slices on ``tid_wire``; in-flight
        propagation (which overlaps across TLPs) on ``tid_prop``."""
        self.tracer = tracer
        self._trace_pid = pid
        self._trace_tid_wire = tid_wire
        self._trace_tid_prop = tid_prop

    def register_metrics(self, registry, prefix: str) -> None:
        registry.register(f"{prefix}.wire_bytes", lambda: self.wire_bytes)
        registry.register(f"{prefix}.payload_bytes", lambda: self.payload_bytes)
        registry.register(f"{prefix}.packets", lambda: self.packets)
        registry.register(f"{prefix}.tlps_sent", lambda: self.tlps_sent)
        registry.register(
            f"{prefix}.tlps_delivered", lambda: self.tlps_delivered
        )
        registry.register(
            f"{prefix}.packets_by_kind", lambda: dict(self.packets_by_kind)
        )
        registry.register(
            f"{prefix}.useful_fraction", lambda: self.useful_fraction()
        )
        registry.register(f"{prefix}.util", self.utilization)

    def set_receiver(self, receiver: Receiver) -> None:
        """Register the single delivery callback for this direction."""
        if self._receiver is not None:
            raise ProtocolError(f"{self.name}: receiver already attached")
        self._receiver = receiver

    def send(self, tlp: Tlp) -> None:
        """Enqueue ``tlp`` for transmission (never blocks the sender --
        posted semantics; backpressure appears as queueing delay)."""
        tlp.sent_at = self.sim.now
        self.tlps_sent += 1
        self._submit(tlp)

    def _begin(self, tlp: Tlp) -> int:
        """Serialize ``tlp`` onto the wire."""
        if self._receiver is None:
            raise ProtocolError(f"{self.name}: packet sent with no receiver")
        size = tlp.wire_bytes(self.config.header_bytes)
        serialize_start = self.sim.now
        self._on_wire = (size, serialize_start)
        self.utilization.update(serialize_start, 1.0)
        tracer = self.tracer
        if tracer is not None:
            tracer.counter(
                "pcie",
                self._trace_pid,
                f"{self.name}.txq",
                serialize_start,
                {"queued": len(self._queue), "busy": 1},
            )
        return transfer_ticks(size, self.config.bandwidth_bytes_per_s)

    def _end(self, tlp: Tlp) -> None:
        """Serialization done: account for ``tlp`` and propagate it."""
        size, serialize_start = self._on_wire
        now = self.sim.now
        propagation = self._propagation
        self.utilization.update(now, 0.0)
        self.wire_bytes += size
        self.payload_bytes += tlp.payload_bytes
        self.packets += 1
        kind = tlp.kind.value
        self.packets_by_kind[kind] = self.packets_by_kind.get(kind, 0) + 1
        tracer = self.tracer
        if tracer is not None:
            tracer.complete(
                "pcie",
                self._trace_pid,
                self._trace_tid_wire,
                f"tlp-{kind}",
                serialize_start,
                now,
                args={
                    "wire_bytes": size,
                    "payload_bytes": tlp.payload_bytes,
                    "queued_ticks": serialize_start - tlp.sent_at,
                },
            )
            tracer.complete(
                "pcie",
                self._trace_pid,
                self._trace_tid_prop,
                f"prop-{kind}",
                now,
                now + propagation,
            )
            tracer.counter(
                "pcie",
                self._trace_pid,
                f"{self.name}.txq",
                now,
                {"queued": len(self._queue), "busy": 0},
            )
        self.sim.timeout(propagation, tlp).add_callback(self._deliver)

    def _deliver(self, event: Event) -> None:
        self.tlps_delivered += 1
        self._receiver(event._value)

    def useful_fraction(self) -> float:
        """Payload bytes / wire bytes delivered so far."""
        if self.wire_bytes == 0:
            return 0.0
        return self.payload_bytes / self.wire_bytes


class PcieLink:
    """A full-duplex link: ``downstream`` (host->device) + ``upstream``."""

    def __init__(self, sim: Simulator, config: PcieConfig) -> None:
        self.sim = sim
        self.config = config
        self.downstream = PcieDirection(sim, config, "downstream")
        self.upstream = PcieDirection(sim, config, "upstream")

    def register_metrics(self, registry, prefix: str) -> None:
        self.downstream.register_metrics(registry, f"{prefix}.downstream")
        self.upstream.register_metrics(registry, f"{prefix}.upstream")

    def round_trip_ticks(self, response_payload_bytes: int) -> int:
        """Uncontended round trip of a read: request serialization +
        propagation each way + completion serialization."""
        request = transfer_ticks(
            self.config.header_bytes, self.config.bandwidth_bytes_per_s
        )
        completion = transfer_ticks(
            self.config.header_bytes + response_payload_bytes,
            self.config.bandwidth_bytes_per_s,
        )
        return request + completion + 2 * ns(self.config.propagation_ns)

    def total_wire_bytes(self) -> int:
        return self.downstream.wire_bytes + self.upstream.wire_bytes
