"""A minimal, deterministic discrete-event simulation kernel.

The kernel follows the classic process-interaction style (as in SimPy):
model behaviour is written as Python generators that ``yield`` events;
the scheduler resumes a process when the event it waits on fires.

Design points:

* Time is an integer tick count (picoseconds by convention, see
  :mod:`repro.units`).  Events scheduled for the same tick fire in
  schedule order, which makes every run bit-for-bit deterministic.
* Zero-delay scheduling -- ``succeed()``, satisfied resource grants,
  store hand-offs, process bootstraps -- dominates every workload, so
  it bypasses the timed tier entirely: a same-tick FIFO run queue holds
  those events, drained in batches.
* The timed tier is one ``(tick, seq, event)`` binary heap.  The
  model's small hardware queues (LFBs, the chip queue, SWQ rings) bound
  how many timers are ever pending, so the heap stays a few hundred
  entries deep and ``heapq``'s C sift is as cheap as a timed queue gets.
* Events are lean: a lazy single-callback slot covers the overwhelmingly
  common case (exactly one waiter -- the resuming process); a second
  waiter spills into a lazily-created list.
* An :class:`Event` may succeed with a value or fail with an exception;
  failures propagate into waiting processes via ``generator.throw``.
* :class:`Process` is itself an event that fires when its generator
  returns, so processes can wait on each other and compose.
* :func:`all_of` / :func:`any_of` build condition events for fork/join
  patterns (used heavily by the MLP batching code).  ``all_of`` joins
  count down a pending counter, so each constituent fire is O(1).

Ordering contract
-----------------

The observable contract is exactly the reference kernel's: **events
fire in (tick, schedule-order)**, where schedule order is the global
order of schedule calls.  Every loop drains in one order: the heap
entries due at the current tick, then the run queue, then the clock
advances.  That order is the single-heap ``(tick, seq)`` order:

* Once the clock sits at tick ``T``, every timed entry with tick ``T``
  was pushed *before* the clock reached ``T`` (a push at time ``T``
  either has ``delay == 0``, which goes to the run queue, or ``delay >
  0``, which lands strictly after ``T``).
* Run-queue entries are only appended at time ``T``, hence always
  *younger* than every tick-``T`` timed entry, and no fire at ``T`` can
  add a timed entry at ``T``.

A ``run(until=event)`` that stops partway through a tick leaves the
rest of that tick on the heap and in the run queue; the next call
fires the heap entries first, exactly as an uninterrupted run would.

The frozen pre-fast-path kernel lives in :mod:`repro.sim._reference`
and the property suite replays randomized process graphs on both to
keep this honest.

Observability
-------------

Each :class:`Simulator` counts events fired, timed pushes/pops,
run-queue bypasses, process resumes and spawns
(:meth:`Simulator.kernel_stats`).  :func:`collect_kernel_stats`
aggregates the counters of every simulator built inside a ``with``
block; the ``repro profile`` CLI subcommand wraps any figure or
microbench in it (plus cProfile) and reports an events/sec summary.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Iterator, Optional

from repro.errors import SimulationError

__all__ = [
    "Event",
    "Process",
    "Simulator",
    "KernelStatsCollector",
    "all_of",
    "any_of",
    "collect_kernel_stats",
]

#: Sentinel for "event has no value yet".
_PENDING = object()

#: Sentinel stored in an event's callback slot once its callbacks have
#: been processed ("the event has happened in simulated time").
_FIRED = object()


class _BootstrapOutcome:
    """The outcome a process is resumed with the very first time.

    Shaped like a succeeded event with value ``None`` (the only fields
    :meth:`Process.__call__` reads), shared by every bootstrap so that
    spawning a process allocates nothing beyond the process itself.
    """

    __slots__ = ()
    _value = None
    _exception = None


_BOOT = _BootstrapOutcome()


class Event:
    """A happening at a point in simulated time.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling its callbacks to run at the current
    simulation time.  Once triggered an event is immutable.

    Callback storage is lazy: ``_callback`` holds the first waiter,
    ``_callbacks`` a list for the (rare) second and later waiters, and
    the :data:`_FIRED` sentinel in ``_callback`` marks a fired event.
    """

    __slots__ = ("sim", "_value", "_exception", "_scheduled", "_callback",
                 "_callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._scheduled = False
        self._callback: Any = None
        self._callbacks: Optional[list[Callable[["Event"], None]]] = None

    @property
    def triggered(self) -> bool:
        """True once the event has an outcome (value or exception).

        Note that a :class:`Timeout` is triggered from birth -- its
        outcome is predetermined.  Model code that needs "has this
        already happened?" should use :attr:`fired`.
        """
        return self._value is not _PENDING or self._exception is not None

    @property
    def fired(self) -> bool:
        """True once the event's callbacks have been processed.

        This is the "it has happened in simulated time" predicate model
        code should use (e.g. "is the prefetched line back yet?").
        """
        return self._callback is _FIRED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The success value; raises if pending or failed."""
        if self._value is _PENDING and self._exception is None:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None."""
        return self._exception

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError("event triggered twice")
        if self._scheduled:
            raise SimulationError("event scheduled twice")
        self._value = value
        self._scheduled = True
        self.sim._runq_append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure ``exception``."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._scheduled:
            raise SimulationError("event scheduled twice")
        self._exception = exception
        self._value = None
        self._scheduled = True
        self.sim._runq_append(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event already fired and its callbacks were processed, the
        callback runs immediately (still at the firing's logical time or
        later -- the simulator clock only moves forward).
        """
        slot = self._callback
        if slot is _FIRED:
            callback(self)
        elif slot is None:
            self._callback = callback
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)


class Timeout(Event):
    """An event that fires a fixed delay after its creation (built by
    :meth:`Simulator.timeout`)."""

    __slots__ = ()


class Process(Event):
    """A running generator; fires (with its return value) on completion.

    The generator must yield :class:`Event` instances.  When a yielded
    event succeeds, the generator is resumed with the event's value; if
    it fails, the exception is thrown into the generator.

    A new process needs no bootstrap events: it is appended to the run
    queue *untriggered*, which the event loop recognizes as "start this
    generator now" -- zero throwaway allocations per spawn.  A process
    instance is also its own resume callback (:meth:`__call__`), so
    waiting on an event costs no bound-method or lambda allocation.
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        super().__init__(sim)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: queue the first resumption "now".  The loop spots
        # the untriggered entry and starts the generator instead of
        # firing completion callbacks.
        sim._runq_append(self)
        sim.processes_spawned += 1

    def __call__(self, event: Event) -> None:
        """Resume callback: advance the generator with ``event``'s outcome.

        ``event`` is the fired event the process waited on (or the
        shared :data:`_BOOT` outcome for a freshly spawned process).
        """
        sim = self.sim
        sim.process_resumes += 1
        generator = self._generator
        value = event._value
        exception = event._exception
        while True:
            try:
                if exception is not None:
                    target = generator.throw(exception)
                else:
                    target = generator.send(value)
            except StopIteration as stop:
                if self._value is _PENDING and self._exception is None:
                    self.succeed(stop.value)
                return
            except BaseException as exc:
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                if self._callback is None and self._callbacks is None:
                    # Nobody is waiting on this process: escalate rather
                    # than swallow the failure (a crashed model process
                    # must crash the simulation).
                    raise _annotate(exc, self.name)
                self.fail(_annotate(exc, self.name))
                return
            if not isinstance(target, Event):
                self.fail(
                    SimulationError(
                        f"process {self.name!r} yielded non-event: {target!r}"
                    )
                )
                return
            if target.sim is not sim:
                self.fail(
                    SimulationError(
                        f"process {self.name!r} yielded an event of another simulator"
                    )
                )
                return
            slot = target._callback
            if slot is _FIRED:
                # Already fired and processed: loop and resume inline, at
                # the current time, without a scheduler round-trip.
                value = target._value
                exception = target._exception
                continue
            if slot is None:
                target._callback = self
            elif target._callbacks is None:
                target._callbacks = [self]
            else:
                target._callbacks.append(self)
            return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} at t={self.sim.now}>"


def _annotate(exc: BaseException, name: str) -> BaseException:
    """Tag an escaping exception with the process it escaped from."""
    note = f"(escaped from simulation process {name!r})"
    try:
        exc.add_note(note)
    except AttributeError:  # pragma: no cover - pre-3.11 fallback
        pass
    return exc


class _ConditionEvent(Event):
    """Shared machinery for :func:`all_of` / :func:`any_of`.

    An ``all_of`` join counts down ``_pending`` (the number of
    constituents that had not fired at construction), so every
    constituent fire is O(1) -- no rescan of the whole list, which was
    quadratic for the MLP-batching fan-ins.  The condition is its own
    callback (:meth:`__call__`): subscribing allocates nothing.
    """

    __slots__ = ("_pending", "_events", "_need_all")

    def __init__(self, sim: "Simulator", events: list[Event], need_all: bool) -> None:
        super().__init__(sim)
        self._events = events
        self._need_all = need_all
        self._pending = 0
        for ev in events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events of different simulators")
        if not events:
            self.succeed([])
            return
        if need_all:
            # One interleaved pass, mirroring the old kernel's
            # construction exactly: each already-fired constituent is
            # checked in list order -- the first one carrying an
            # exception fails the join NOW; one with a fully-fired
            # prefix succeeds the join NOW if every constituent is at
            # least *triggered* (an unfired-but-triggered constituent
            # counts, and its predetermined value is read early).
            pending = 0
            for ev in events:
                if ev._callback is _FIRED:
                    if self._value is _PENDING and self._exception is None:
                        if ev._exception is not None:
                            self.fail(ev._exception)
                        elif pending == 0 and all(
                            e.triggered for e in events
                        ):
                            self.succeed([e.value for e in events])
                else:
                    pending += 1
            if self._value is not _PENDING or self._exception is not None:
                return
            if pending == 0:
                self.succeed([ev.value for ev in events])
                return
            self._pending = pending
            for ev in events:
                if ev._callback is not _FIRED:
                    ev.add_callback(self)
        else:
            for ev in events:
                if ev._callback is _FIRED:
                    # The first already-fired constituent decides.
                    if ev._exception is not None:
                        self.fail(ev._exception)
                    else:
                        self.succeed(ev._value)
                    return
            for ev in events:
                ev.add_callback(self)

    def __call__(self, event: Event) -> None:
        """One constituent fired."""
        if self._value is not _PENDING or self._exception is not None:
            return  # already decided (failed early, or any_of satisfied)
        exc = event._exception
        if exc is not None:
            self.fail(exc)
            return
        if self._need_all:
            self._pending -= 1
            if self._pending == 0:
                self.succeed([ev._value for ev in self._events])
        else:
            self.succeed(event._value)


def all_of(sim: "Simulator", events: Iterable[Event]) -> Event:
    """An event firing when *all* of ``events`` succeed.

    Its value is the list of individual event values (in input order).
    Fails as soon as any constituent fails.
    """
    return _ConditionEvent(sim, list(events), need_all=True)


def any_of(sim: "Simulator", events: Iterable[Event]) -> Event:
    """An event firing when *any* of ``events`` succeeds.

    Its value is the value of the first event to fire.  An empty input
    succeeds immediately (vacuously) with ``[]``.
    """
    events = list(events)
    if not events:
        return _ConditionEvent(sim, [], need_all=True)
    return _ConditionEvent(sim, events, need_all=False)


class Simulator:
    """The event loop: a clock, a same-tick run queue, and a timed heap.

    * ``_runq`` -- a deque of events due *now* (zero-delay schedules
      and process bootstraps), drained in FIFO order.
    * ``_heap`` -- a ``(tick, seq, event)`` heap of positive-delay
      schedules; ``seq`` is the push count, so same-tick entries pop in
      schedule order.

    See the module docstring for why draining the heap's due entries
    before the run queue preserves the ``(tick, schedule-order)``
    firing contract bit-for-bit.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._runq: deque[Event] = deque()
        self._runq_append = self._runq.append  # bound once: hottest call
        self._heap: list[tuple[int, int, Event]] = []
        # -- observability counters (see kernel_stats()) -------------------
        self.events_fired = 0
        #: Timed schedules; doubles as the heap's ``seq`` tie-breaker.
        self.heap_pushes = 0
        self.heap_pops = 0
        self.process_resumes = 0
        self.processes_spawned = 0
        if _collectors:
            for collector in _collectors:
                collector.register(self)

    # -- event construction ------------------------------------------------

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event firing ``delay`` ticks from now.

        The hottest timed-path constructor: the event is built by hand
        (``__new__`` plus slot assignments) and scheduled inline,
        skipping the ``Event.__init__`` and :meth:`_schedule` calls.
        The scheduling half mirrors :meth:`_schedule`.
        """
        event = Timeout.__new__(Timeout)
        event.sim = self
        event._value = value
        event._exception = None
        event._callback = None
        event._callbacks = None
        event._scheduled = True
        if delay == 0:
            self._runq_append(event)
        elif delay > 0:
            seq = self.heap_pushes = self.heap_pushes + 1
            heappush(self._heap, (self.now + delay, seq, event))
        else:
            raise SimulationError(f"negative timeout delay: {delay}")
        return event

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a process running ``generator``; returns its completion event."""
        return Process(self, generator, name=name)

    def delayed(self, after: Event, delay: int) -> Event:
        """An event firing ``delay`` ticks after ``after`` succeeds.

        Used to model fixed-latency stages downstream of a variable-time
        event (e.g. "execute for N cycles once the load data arrives").
        """
        result = Event(self)

        def _chain(ev: Event) -> None:
            if ev._exception is not None:
                result.fail(ev._exception)
            elif delay == 0:
                result.succeed(ev._value)
            else:
                self._schedule_value(result, delay, ev._value)

        after.add_callback(_chain)
        return result

    # -- scheduling internals ----------------------------------------------

    def _schedule(self, event: Event, delay: int) -> None:
        if event._scheduled:
            raise SimulationError("event scheduled twice")
        event._scheduled = True
        if delay == 0:
            self._runq_append(event)
        elif delay > 0:
            seq = self.heap_pushes = self.heap_pushes + 1
            heappush(self._heap, (self.now + delay, seq, event))
        else:
            raise SimulationError(f"negative schedule delay: {delay}")

    def _schedule_value(self, event: Event, delay: int, value: Any) -> None:
        """Trigger ``event`` with ``value`` after ``delay`` ticks."""
        event._value = value
        self._schedule(event, delay)

    # -- running -------------------------------------------------------------

    def run(self, until: Optional[int | Event] = None) -> Any:
        """Run the simulation.

        * ``until=None``: run until no events remain.
        * ``until=<int>``: run until the clock reaches that tick.
        * ``until=<Event>``: run until that event fires; returns its
          value (or raises its exception).

        The two loops below are deliberately flat and bound to locals:
        this is the hot path under every figure of the paper, and a
        Python-level function call per event would dominate the cost.
        Both drain in the same order: the heap entries due at the
        current tick, then the run queue (appends during the drain land
        behind, preserving FIFO schedule order), then advance the clock.
        The stop-event loop differs only in checking ``until`` after
        every fire and in treating an empty heap as a deadlock.
        """
        runq = self._runq
        popleft = runq.popleft
        heap = self._heap
        pop = heappop
        fired_mark = _FIRED
        fired = 0  # run-queue events fired
        timed = 0  # heap events fired
        tick = self.now

        if isinstance(until, Event):
            stop = until
            if stop._callback is fired_mark:
                return stop.value
            try:
                while True:
                    while heap and heap[0][0] == tick:
                        timed += 1
                        event = pop(heap)[2]
                        callback = event._callback
                        event._callback = fired_mark
                        if callback is not None:
                            callback(event)
                            callbacks = event._callbacks
                            if callbacks is not None:
                                event._callbacks = None
                                for callback in callbacks:
                                    callback(event)
                        if stop._callback is fired_mark:
                            return stop.value
                    while runq:
                        event = popleft()
                        if not event._scheduled:
                            event(_BOOT)  # process bootstrap
                            continue
                        fired += 1
                        callback = event._callback
                        event._callback = fired_mark
                        if callback is not None:
                            callback(event)
                            callbacks = event._callbacks
                            if callbacks is not None:
                                event._callbacks = None
                                for callback in callbacks:
                                    callback(event)
                        if stop._callback is fired_mark:
                            return stop.value
                    if not heap:
                        raise SimulationError(
                            "simulation ran out of events before the "
                            "awaited event fired (deadlock?)"
                        )
                    tick = self.now = heap[0][0]
            finally:
                self.events_fired += fired + timed
                self.heap_pops += timed

        horizon: Optional[int] = None
        if until is not None:
            horizon = int(until)
            if horizon < tick:
                return None
        try:
            while True:
                while heap and heap[0][0] == tick:
                    timed += 1
                    event = pop(heap)[2]
                    callback = event._callback
                    event._callback = fired_mark
                    if callback is not None:
                        callback(event)
                        callbacks = event._callbacks
                        if callbacks is not None:
                            event._callbacks = None
                            for callback in callbacks:
                                callback(event)
                while runq:
                    event = popleft()
                    if not event._scheduled:
                        event(_BOOT)  # process bootstrap
                        continue
                    fired += 1
                    callback = event._callback
                    event._callback = fired_mark
                    if callback is not None:
                        callback(event)
                        callbacks = event._callbacks
                        if callbacks is not None:
                            event._callbacks = None
                            for callback in callbacks:
                                callback(event)
                if not heap:
                    break
                tick = heap[0][0]
                if horizon is not None and tick > horizon:
                    break
                self.now = tick
        finally:
            self.events_fired += fired + timed
            self.heap_pops += timed
        if horizon is not None and horizon > self.now:
            self.now = horizon
        return None

    @property
    def pending_events(self) -> int:
        """Number of events currently queued (scheduled, not yet fired)."""
        return len(self._runq) + len(self._heap)

    # -- observability -------------------------------------------------------

    @property
    def runq_bypasses(self) -> int:
        """Schedules that skipped the timed tier (same-tick run-queue
        entries).

        Derived rather than counted so the hot scheduling paths carry no
        extra increment: every run-queue append is either an event later
        fired from the run queue (``events_fired - heap_pops``), a
        process bootstrap (``processes_spawned``), or still queued.
        Exact whenever the run queue holds no un-started bootstraps --
        in particular, always between :meth:`run` calls.
        """
        return (self.events_fired - self.heap_pops + self.processes_spawned
                + len(self._runq))

    def sanity_check(self) -> list[str]:
        """Cheap structural checks of the scheduler's own state (used
        by the invariant monitor; never called on the hot path)."""
        problems: list[str] = []
        if self.now < 0:
            problems.append(f"clock is negative: {self.now}")
        # Strictly-past only: while run() drains a tick's heap entries,
        # a monitor callback can legitimately observe the not-yet-fired
        # remainder at tick == now.
        if self._heap and self._heap[0][0] < self.now:
            problems.append(
                f"timed heap holds tick {self._heap[0][0]} < now {self.now}"
            )
        if self.heap_pops > self.heap_pushes:
            problems.append(
                f"more timed pops ({self.heap_pops}) than pushes "
                f"({self.heap_pushes})"
            )
        return problems

    def kernel_stats(self) -> dict[str, int]:
        """Snapshot of the kernel's hot-path counters (the keys of
        :data:`_SUMMED_STATS`, plus the ``pending_events`` gauge)."""
        return {
            "events_fired": self.events_fired,
            "heap_pushes": self.heap_pushes,
            "heap_pops": self.heap_pops,
            "runq_bypasses": self.runq_bypasses,
            "process_resumes": self.process_resumes,
            "processes_spawned": self.processes_spawned,
            "pending_events": self.pending_events,
        }


#: Active stats collectors; every Simulator constructed while one is
#: active registers itself (used by ``repro profile``).
_collectors: list["KernelStatsCollector"] = []

#: kernel_stats() counters a collector sums across simulators (all but
#: the ``pending_events`` gauge).
_SUMMED_STATS = (
    "events_fired",
    "heap_pushes",
    "heap_pops",
    "runq_bypasses",
    "process_resumes",
    "processes_spawned",
)


class KernelStatsCollector:
    """Aggregates kernel counters across every registered simulator."""

    def __init__(self) -> None:
        self.simulators: list[Simulator] = []

    def register(self, sim: Simulator) -> None:
        self.simulators.append(sim)

    def stats(self) -> dict[str, int]:
        """The :data:`_SUMMED_STATS` counters of all registered
        simulators, summed (all zero when none registered)."""
        totals: dict[str, int] = {"simulators": len(self.simulators)}
        totals.update(dict.fromkeys(_SUMMED_STATS, 0))
        for sim in self.simulators:
            counters = sim.kernel_stats()
            for stat in _SUMMED_STATS:
                totals[stat] += counters[stat]
        return totals

    @property
    def bypass_ratio(self) -> float:
        """Fraction of schedules that skipped the timed tier entirely."""
        stats = self.stats()
        scheduled = stats["runq_bypasses"] + stats["heap_pushes"]
        if scheduled == 0:
            return 0.0
        return stats["runq_bypasses"] / scheduled


@contextmanager
def collect_kernel_stats() -> Iterator[KernelStatsCollector]:
    """Collect kernel counters from every simulator built in the block.

    ::

        with collect_kernel_stats() as kernel:
            run_microbench(config, spec, window)
        print(kernel.stats()["events_fired"], kernel.bypass_ratio)
    """
    collector = KernelStatsCollector()
    _collectors.append(collector)
    try:
        yield collector
    finally:
        _collectors.remove(collector)
