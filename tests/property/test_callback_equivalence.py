"""Differential property tests: callback-chain queues vs process-driven ones.

The reorder buffer's retirement, the PCIe transmitters and the DRAM
data bus run as chains of event callbacks.  They used to be helper
processes fed through a :class:`~repro.sim.Store`.  The reference
classes below keep those helpers verbatim (retire loop, pump), bolted
onto the current classes, so the two versions can be driven with the
same hypothesis-drawn schedules -- same-tick bursts, already-fired and
zero-delay completions, shared completion events, requesters that wait
for their completion -- and must log the same ``(tick, order)``
sequence of retirements, grants and deliveries and end with the same
statistics.
"""

from dataclasses import dataclass
from typing import Any

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import PcieConfig
from repro.cpu.rob import ReorderBuffer
from repro.errors import ProtocolError, SimulationError
from repro.interconnect.dram import DramChannel
from repro.interconnect.packets import Tlp, TlpKind
from repro.interconnect.pcie import PcieDirection
from repro.sim import Event, Simulator, Store
from repro.units import ns, transfer_ticks

# ---------------------------------------------------------------------------
# Reference implementations: the helpers as processes over a Store
# ---------------------------------------------------------------------------


class ReferenceReorderBuffer(ReorderBuffer):
    """Retirement as a ``_retire_loop`` process fed through a Store."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "rob") -> None:
        super().__init__(sim, capacity, name=name)
        self._store = Store(sim, name=f"{name}-entries")
        sim.process(self._retire_loop(), name=f"{name}-retire")

    def commit(self, slots, done, on_retire=None) -> None:
        self._store.put((slots, done, on_retire))

    def _retire_loop(self):
        while True:
            slots, done, on_retire = yield self._store.get()
            if not done.fired:
                yield done
            self.free += slots
            self.retired_slots += slots
            if self.free > self.capacity:  # pragma: no cover - invariant
                raise SimulationError(f"{self.name}: retired more than allocated")
            self.retired_groups += 1
            if on_retire is not None:
                on_retire()
            self._grant_waiters()
            if self.free == self.capacity and not self._waiters:
                waiters, self._idle_waiters = self._idle_waiters, []
                for waiter in waiters:
                    waiter.succeed(None)


class ReferencePcieDirection(PcieDirection):
    """The transmitter as a ``_pump`` process fed through a Store."""

    def __init__(self, sim: Simulator, config: PcieConfig, name: str) -> None:
        super().__init__(sim, config, name)
        self._store = Store(sim, name=f"{name}-txq")
        sim.process(self._pump(), name=f"pcie-{name}")

    def send(self, tlp: Tlp) -> None:
        tlp.sent_at = self.sim.now
        self.tlps_sent += 1
        self._store.put(tlp)

    @property
    def queued(self) -> int:
        return len(self._store)

    def _pump(self):
        propagation = ns(self.config.propagation_ns)
        while True:
            tlp = yield self._store.get()
            if self._receiver is None:
                raise ProtocolError(f"{self.name}: packet sent with no receiver")
            size = tlp.wire_bytes(self.config.header_bytes)
            self.utilization.update(self.sim.now, 1.0)
            yield self.sim.timeout(
                transfer_ticks(size, self.config.bandwidth_bytes_per_s)
            )
            self.utilization.update(self.sim.now, 0.0)
            self.wire_bytes += size
            self.payload_bytes += tlp.payload_bytes
            self.packets += 1
            kind = tlp.kind.value
            self.packets_by_kind[kind] = self.packets_by_kind.get(kind, 0) + 1
            delivery = self.sim.timeout(propagation)
            delivery.add_callback(self._deliver_tlp(tlp))

    def _deliver_tlp(self, tlp: Tlp):
        def callback(_event) -> None:
            self.tlps_delivered += 1
            self._receiver(tlp)

        return callback


@dataclass
class _DramRequest:
    num_bytes: int
    done: Event
    value: Any
    include_latency: bool = True


class ReferenceDramChannel(DramChannel):
    """The data bus as a ``_pump`` process fed through a Store."""

    def __init__(self, sim, latency_ticks, bandwidth_bytes_per_s, name="dram"):
        super().__init__(sim, latency_ticks, bandwidth_bytes_per_s, name=name)
        self._store = Store(sim, name=f"{name}-q")
        sim.process(self._pump(), name=f"{name}-pump")

    def access(self, num_bytes: int, value: Any = None) -> Event:
        done = Event(self.sim)
        self._store.put(_DramRequest(num_bytes, done, value))
        return done

    def post_write(self, num_bytes: int) -> Event:
        done = Event(self.sim)
        self._store.put(_DramRequest(num_bytes, done, None, include_latency=False))
        return done

    @property
    def queued(self) -> int:
        return len(self._store)

    def _pump(self):
        while True:
            request = yield self._store.get()
            self.utilization.update(self.sim.now, 1.0)
            yield self.sim.timeout(
                transfer_ticks(request.num_bytes, self.bandwidth_bytes_per_s)
            )
            self.utilization.update(self.sim.now, 0.0)
            self.bytes_transferred += request.num_bytes
            self.accesses += 1
            latency = self.latency_ticks if request.include_latency else 0
            self.sim._schedule_value(request.done, latency, request.value)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def _gaps(*aligned: int):
    """Pause before a step: ``None`` is a same-tick burst (no yield at
    all), 0 a zero-delay hop, otherwise a timeout of that many ticks.
    ``aligned`` pauses equal the channel's transfer times, so steps land
    on the very tick a transfer ends and same-tick ordering is tested."""
    return st.one_of(
        st.none(),
        st.integers(min_value=0, max_value=6),
        st.sampled_from(aligned or (0,)),
    )


def _pause(sim, gap):
    if gap is not None:
        yield sim.timeout(gap)


# -- reorder buffer ------------------------------------------------------------

#: How a group's completion event is built: a timeout (``later``, delay
#: 0 is a zero-delay completion), an event that already fired before
#: the commit (``fired``), or one of the shared gates that a separate
#: process fires (``gate``).
_groups = st.tuples(
    st.integers(min_value=1, max_value=6),  # slots
    st.sampled_from(["later", "fired", "gate"]),
    st.integers(min_value=0, max_value=12),  # delay / gate index
    _gaps(),
)


@st.composite
def _rob_schedules(draw):
    capacity = draw(st.integers(min_value=6, max_value=12))
    front_ends = draw(
        st.lists(st.lists(_groups, min_size=1, max_size=8), min_size=1, max_size=2)
    )
    gate_times = draw(
        st.lists(st.integers(min_value=0, max_value=25), min_size=1, max_size=3)
    )
    return capacity, front_ends, gate_times


def _run_rob(cls, schedule):
    capacity, front_ends, gate_times = schedule
    sim = Simulator()
    rob = cls(sim, capacity)
    log: list = []
    gates = [sim.event() for _ in gate_times]

    def fire_gates():
        for index in sorted(range(len(gates)), key=lambda i: gate_times[i]):
            wait = gate_times[index] - sim.now
            if wait:
                yield sim.timeout(wait)
            gates[index].succeed(index)
            log.append(("gate", sim.now, index))

    def front_end(fid, groups):
        for gid, (slots, kind, param, gap) in enumerate(groups):
            yield from _pause(sim, gap)
            yield from rob.allocate(slots)
            log.append(("grant", sim.now, fid, gid, rob.used))
            if kind == "later":
                done = sim.timeout(param)
            elif kind == "fired":
                done = sim.timeout(0)
                yield done
            else:
                done = gates[param % len(gates)]
            rob.commit(
                slots,
                done,
                on_retire=lambda fid=fid, gid=gid: log.append(
                    ("retire", sim.now, fid, gid, rob.free)
                ),
            )
        yield rob.idle()
        log.append(("idle", sim.now, fid))

    sim.process(fire_gates())
    for fid, groups in enumerate(front_ends):
        sim.process(front_end(fid, groups))
    sim.run()
    stats = (
        sim.now, rob.free, rob.max_used, rob.retired_groups,
        rob.allocated_slots, rob.retired_slots, sim.heap_pushes,
    )
    return log, stats


@given(_rob_schedules())
@settings(max_examples=150, deadline=None)
def test_rob_retirement_matches_the_process_reference(schedule):
    assert _run_rob(ReorderBuffer, schedule) == _run_rob(
        ReferenceReorderBuffer, schedule
    )


# -- PCIe direction --------------------------------------------------------------

#: At 4 GB/s with 24-byte headers a TLP serializes in 6,000 (read),
#: 8,000, 22,000 or 38,000 ticks.
_sends = st.tuples(
    _gaps(6_000, 8_000, 22_000, 38_000),
    st.sampled_from([TlpKind.MEM_READ, TlpKind.MEM_WRITE, TlpKind.COMPLETION]),
    st.sampled_from([8, 64, 128]),
)


@st.composite
def _link_schedules(draw):
    config = PcieConfig(
        bandwidth_bytes_per_s=4e9,
        propagation_ns=draw(st.sampled_from([0.0, 5.0, 385.0])),
    )
    senders = draw(
        st.lists(st.lists(_sends, min_size=1, max_size=10), min_size=1, max_size=3)
    )
    probes = draw(st.lists(st.integers(min_value=0, max_value=200_000), max_size=6))
    return config, senders, probes


def _run_pcie(cls, schedule):
    config, senders, probes = schedule
    sim = Simulator()
    direction = cls(sim, config, "downstream")
    log: list = []
    direction.set_receiver(
        lambda tlp: log.append(("deliver", sim.now, tlp.address, direction.queued))
    )

    def sender(sid, sends):
        for index, (gap, kind, payload) in enumerate(sends):
            yield from _pause(sim, gap)
            payload = 0 if kind is TlpKind.MEM_READ else payload
            address = sid * 1000 + index
            direction.send(Tlp(kind, address=address, payload_bytes=payload))
            log.append(("send", sim.now, address, direction.queued))

    def prober():
        for tick in sorted(probes):
            if tick > sim.now:
                yield sim.timeout(tick - sim.now)
            log.append(("probe", sim.now, direction.queued, direction.packets))

    for sid, sends in enumerate(senders):
        sim.process(sender(sid, sends))
    sim.process(prober())
    sim.run()
    stats = (
        sim.now, direction.packets, direction.wire_bytes,
        direction.payload_bytes, dict(direction.packets_by_kind),
        direction.tlps_sent, direction.tlps_delivered, direction.queued,
        direction.utilization.mean(sim.now), sim.heap_pushes,
    )
    return log, stats


#: Two same-tick sends, then a sender that sends each time a TLP
#: leaves the wire (8,000 ticks apart).  The next TLP starts one
#: zero-delay hop after the previous one ends -- after that sender's
#: step -- so the sender's third send sees the wire's queue before,
#: not after, the second TLP ends.
_WIRE_HANDOFF = (
    PcieConfig(bandwidth_bytes_per_s=4e9, propagation_ns=5.0),
    [
        [(None, TlpKind.MEM_WRITE, 8), (None, TlpKind.MEM_WRITE, 8)],
        [
            (0, TlpKind.MEM_WRITE, 8),
            (8_000, TlpKind.MEM_WRITE, 8),
            (8_000, TlpKind.MEM_WRITE, 8),
        ],
    ],
    [],
)


@given(_link_schedules())
@example(_WIRE_HANDOFF)
@settings(max_examples=150, deadline=None)
def test_pcie_direction_matches_the_process_reference(schedule):
    assert _run_pcie(PcieDirection, schedule) == _run_pcie(
        ReferencePcieDirection, schedule
    )


# -- DRAM channel ------------------------------------------------------------------

#: At 12.8 GB/s a transfer takes 78, 625, 5,000 or 20,000 ticks.
_requests = st.tuples(
    _gaps(78, 625, 5_000, 20_000),
    st.sampled_from(["read", "write"]),
    st.sampled_from([1, 8, 64, 256]),
    st.booleans(),  # wait for completion before the next request
)


@st.composite
def _dram_schedules(draw):
    latency = draw(st.sampled_from([0, 1, 50, 5_000]))
    bandwidth = 12.8e9
    requesters = draw(
        st.lists(st.lists(_requests, min_size=1, max_size=10), min_size=1, max_size=3)
    )
    probes = draw(st.lists(st.integers(min_value=0, max_value=100_000), max_size=6))
    return latency, bandwidth, requesters, probes


def _run_dram(cls, schedule):
    latency, bandwidth, requesters, probes = schedule
    sim = Simulator()
    channel = cls(sim, latency, bandwidth)
    log: list = []

    def requester(rid, requests):
        for index, (gap, kind, num_bytes, wait) in enumerate(requests):
            yield from _pause(sim, gap)
            tag = (rid, index)
            if kind == "read":
                done = channel.access(num_bytes, value=tag)
            else:
                done = channel.post_write(num_bytes)
            done.add_callback(
                lambda event, tag=tag: log.append(
                    ("done", sim.now, tag, event.value, channel.queued)
                )
            )
            log.append(("submit", sim.now, tag, channel.queued))
            if wait:
                yield done

    def prober():
        for tick in sorted(probes):
            if tick > sim.now:
                yield sim.timeout(tick - sim.now)
            log.append(("probe", sim.now, channel.queued, channel.accesses))

    for rid, requests in enumerate(requesters):
        sim.process(requester(rid, requests))
    sim.process(prober())
    sim.run()
    stats = (
        sim.now, channel.accesses, channel.bytes_transferred, channel.queued,
        channel.utilization.mean(sim.now), sim.heap_pushes,
    )
    return log, stats


#: Two requesters each wait for a zero-latency read.  A completion fires
#: before the next request takes the bus, as in the process pump, so the
#: second requester, woken by its read and pausing one transfer time,
#: submits just before, not just after, the next transfer ends.
_BUS_HANDOFF = (
    0,
    12.8e9,
    [
        [(None, "read", 1, True), (None, "read", 1, False)],
        [(None, "read", 1, True), (78, "read", 1, False)],
    ],
    [],
)


@given(_dram_schedules())
@example(_BUS_HANDOFF)
@settings(max_examples=150, deadline=None)
def test_dram_channel_matches_the_process_reference(schedule):
    assert _run_dram(DramChannel, schedule) == _run_dram(
        ReferenceDramChannel, schedule
    )
