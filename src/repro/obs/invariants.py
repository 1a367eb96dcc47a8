"""Online invariant sanitizer: the simulator checks its own books.

The model is a web of queues with conservation laws -- every TLP that
enters a PCIe direction must leave it, every descriptor enqueued to a
ring is either fetched or still pending, every ROB slot dispatched is
eventually retired, and no occupancy-limited structure may exceed its
capacity.  A refactoring bug that breaks one of these laws can still
produce plausible-looking figures; this module makes such bugs loud.

:class:`InvariantMonitor` attaches to a built
:class:`~repro.host.system.System` and re-checks every law from a
periodic watch process (its events are pure observers: they never touch
model state, so a monitored run stays bit-for-bit identical to an
unmonitored one).  The monitor also implements the
:class:`~repro.obs.tracer.Tracer` recording interface, keeping the last
N trace events in a ring so a violation's diagnostic shows what the
simulation was doing when the law broke.

Enable with ``--check-invariants`` on ``repro run/figure/sweep`` (and
``app``/``serve``/``explain``/``trace``), ``SweepJob(check_invariants=True)``
on one job, or ``SweepEngine(check_invariants=True)`` on every job of a
sweep: :func:`~repro.harness.sweep.run_job` attaches the monitor, teed
with the run's tracer, and reports its :meth:`InvariantMonitor.summary`
under ``report["invariants"]``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.units import us

__all__ = [
    "InvariantViolation",
    "InvariantMonitor",
    "TeeTracer",
]


class InvariantViolation(SimulationError):
    """A conservation law or capacity bound broke.

    Carries the simulated ``tick``, the dotted ``component`` name that
    failed, and the last N trace events the monitor observed
    (``recent_events``) for post-mortem context.
    """

    def __init__(
        self,
        message: str,
        tick: int,
        component: str,
        recent_events: Optional[list] = None,
    ) -> None:
        self.tick = tick
        self.component = component
        self.recent_events = list(recent_events or [])
        detail = f"[tick {tick}] {component}: {message}"
        if self.recent_events:
            tail = "; ".join(
                f"{kind}:{name}@{when}"
                for kind, _track, name, when in self.recent_events[-8:]
            )
            detail += f" (recent events: {tail})"
        super().__init__(detail)


class TeeTracer:
    """Forwards the tracer recording interface to several sinks.

    Used when a run wants both a real :class:`~repro.obs.tracer.Tracer`
    and an :class:`InvariantMonitor` on the single tracer slot the
    components expose.
    """

    def __init__(self, sinks) -> None:
        self.sinks = [sink for sink in sinks if sink is not None]

    def wants(self, track: str) -> bool:
        return any(sink.wants(track) for sink in self.sinks)

    def complete(self, *args, **kwargs) -> None:
        for sink in self.sinks:
            sink.complete(*args, **kwargs)

    def instant(self, *args, **kwargs) -> None:
        for sink in self.sinks:
            sink.instant(*args, **kwargs)

    def counter(self, *args, **kwargs) -> None:
        for sink in self.sinks:
            sink.counter(*args, **kwargs)

    def async_span(self, *args, **kwargs) -> None:
        for sink in self.sinks:
            sink.async_span(*args, **kwargs)

    def process_name(self, pid: int, name: str) -> None:
        for sink in self.sinks:
            sink.process_name(pid, name)

    def thread_name(self, pid: int, tid: int, name: str) -> None:
        for sink in self.sinks:
            sink.thread_name(pid, tid, name)


class InvariantMonitor:
    """Re-checks the model's conservation laws while it runs.

    ``interval_ticks`` sets the watch cadence (default 5 us of simulated
    time); :meth:`check_now` can additionally be called at any stable
    point (the harness calls it once after the measured window).  All
    checks read component state only -- a monitored run's figures are
    bit-for-bit those of an unmonitored run.
    """

    def __init__(self, interval_ticks: int = us(5), recent: int = 64) -> None:
        if interval_ticks < 1:
            raise SimulationError("watch interval must be >= 1 tick")
        self.interval_ticks = interval_ticks
        self.recent_events: deque = deque(maxlen=recent)
        self.checks_run = 0
        self.system = None
        self._last_tick = -1
        self._checkers: list[tuple[str, Callable[[], Optional[str]]]] = []

    # -- tracer interface (event ring only) --------------------------------

    def wants(self, track: str) -> bool:
        return True

    def complete(self, track, pid, tid, name, start_tick, end_tick, args=None):
        self.recent_events.append(("X", track, name, end_tick))

    def instant(self, track, pid, tid, name, tick, args=None):
        self.recent_events.append(("i", track, name, tick))

    def counter(self, track, pid, name, tick, values):
        self.recent_events.append(("C", track, name, tick))

    def async_span(
        self, track, pid, tid, name, span_id, start_tick, end_tick, args=None
    ):
        self.recent_events.append(("b", track, name, end_tick))

    def process_name(self, pid: int, name: str) -> None:
        pass

    def thread_name(self, pid: int, tid: int, name: str) -> None:
        pass

    # -- wiring ------------------------------------------------------------

    def tee(self, tracer):
        """This monitor as a tracer, merged with ``tracer`` if given."""
        if tracer is None:
            return self
        return TeeTracer((tracer, self))

    def attach(self, system) -> None:
        """Bind to a built system and start the periodic watch process."""
        if self.system is not None:
            raise SimulationError("monitor already attached to a system")
        self.system = system
        self._build_checkers(system)
        system.sim.process(self._watch(), name="invariant-watch")

    def _watch(self):
        sim = self.system.sim
        while True:
            yield sim.timeout(self.interval_ticks)
            self.check_now()

    # -- checks ------------------------------------------------------------

    def _build_checkers(self, system) -> None:
        from repro.cpu.uncore import AddressSpace

        add = self._checkers.append
        add(("sim.kernel", lambda: self._check_kernel(system.sim)))
        smt = system.config.cpu.smt_contexts
        for index, core in enumerate(system.cores):
            add(
                (f"core{core.core_id}.rob",
                 lambda rob=core.rob: self._check_rob(rob))
            )
            if index % smt == 0:
                add(
                    (f"core{core.core_id}.lfb",
                     lambda lfb=core.memsys.lfb: self._check_lfb(lfb))
                )
        for space in AddressSpace:
            add(
                (f"uncore.{space.value}_queue",
                 lambda q=system.uncore.queue(space): self._check_resource(q))
            )
        for direction in (system.link.downstream, system.link.upstream):
            add(
                (f"pcie.{direction.name}",
                 lambda d=direction: self._check_pcie(d))
            )
        for pair in system.queue_pairs:
            add(
                (f"swq.core{pair.core_id}",
                 lambda p=pair: self._check_queue_pair(p))
            )
        spans = getattr(system, "spans", None)
        if spans is not None:
            # The span ledger asserts per-request conservation itself
            # at every close; this re-checks its aggregate books
            # (opened/closed balance, reservoir bounds) periodically.
            add(("obs.spans", spans.check))

    def check_now(self) -> None:
        """Run every check at the current tick; raise on the first
        violation (the diagnostic carries tick + component + the last
        trace events seen)."""
        system = self.system
        if system is None:
            raise SimulationError("monitor not attached to a system")
        now = system.sim.now
        if now < self._last_tick:
            self._violate(
                "sim.clock",
                f"tick went backwards: {self._last_tick} -> {now}",
            )
        self._last_tick = now
        for component, check in self._checkers:
            problem = check()
            if problem is not None:
                self._violate(component, problem)
        self.checks_run += 1

    def _violate(self, component: str, message: str) -> None:
        raise InvariantViolation(
            message,
            tick=self.system.sim.now,
            component=component,
            recent_events=list(self.recent_events),
        )

    @staticmethod
    def _check_kernel(sim) -> Optional[str]:
        problems = sim.sanity_check()
        return problems[0] if problems else None

    @staticmethod
    def _check_rob(rob) -> Optional[str]:
        if not 0 <= rob.used <= rob.capacity:
            return f"occupancy {rob.used} outside [0, {rob.capacity}]"
        outstanding = rob.allocated_slots - rob.retired_slots
        if outstanding != rob.used:
            return (
                "dispatch/retire imbalance: "
                f"{rob.allocated_slots} allocated - {rob.retired_slots} "
                f"retired = {outstanding}, but occupancy is {rob.used}"
            )
        return None

    @staticmethod
    def _check_lfb(lfb) -> Optional[str]:
        if not 0 <= lfb.occupied <= lfb.capacity:
            return (
                f"{lfb.occupied} buffers granted with capacity {lfb.capacity}"
            )
        if lfb.occupied > lfb.in_flight:
            return (
                f"{lfb.occupied} buffers granted for only "
                f"{lfb.in_flight} live miss entries"
            )
        return None

    @staticmethod
    def _check_resource(queue) -> Optional[str]:
        if not 0 <= queue.in_use <= queue.capacity:
            return f"occupancy {queue.in_use} outside [0, {queue.capacity}]"
        return None

    @staticmethod
    def _check_pcie(direction) -> Optional[str]:
        sent = direction.tlps_sent
        serialized = direction.packets
        delivered = direction.tlps_delivered
        queued = direction.queued
        if delivered > serialized or serialized > sent:
            return (
                f"TLP pipeline out of order: {sent} sent, "
                f"{serialized} serialized, {delivered} delivered"
            )
        # sent == delivered + in-flight, where in-flight decomposes into
        # the tx queue, at most one TLP heading for or on the wire,
        # and (serialized - delivered) packets in propagation.
        serializing = sent - serialized - queued
        if serializing not in (0, 1):
            return (
                f"TLPs leaked: {sent} sent = {serialized} serialized + "
                f"{queued} queued + {serializing} serializing (expected 0 or 1)"
            )
        return None

    @staticmethod
    def _check_queue_pair(pair) -> Optional[str]:
        if pair.requests_pending > pair.entries:
            return (
                f"request ring holds {pair.requests_pending} > "
                f"{pair.entries} entries"
            )
        if pair.completions_visible > pair.entries:
            return (
                f"completion ring holds {pair.completions_visible} > "
                f"{pair.entries} entries"
            )
        fetched_plus_pending = pair.descriptors_fetched + pair.requests_pending
        if pair.descriptors_enqueued != fetched_plus_pending:
            return (
                "descriptor credits not conserved: "
                f"{pair.descriptors_enqueued} enqueued != "
                f"{pair.descriptors_fetched} fetched + "
                f"{pair.requests_pending} pending"
            )
        consumed_plus_visible = (
            pair.completions_consumed + pair.completions_visible
        )
        if pair.completions_posted != consumed_plus_visible:
            return (
                "completion credits not conserved: "
                f"{pair.completions_posted} posted != "
                f"{pair.completions_consumed} consumed + "
                f"{pair.completions_visible} visible"
            )
        if pair.completions_posted > pair.descriptors_fetched:
            return (
                f"{pair.completions_posted} completions posted for only "
                f"{pair.descriptors_fetched} descriptors fetched"
            )
        return None

    def summary(self) -> dict:
        """JSON-able record of what the monitor did (for run reports)."""
        return {
            "checks_run": self.checks_run,
            "interval_ticks": self.interval_ticks,
            "components": len(self._checkers),
        }
