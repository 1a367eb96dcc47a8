"""The per-core runtime: scheduler loop driving user-level threads.

Two scheduling policies from section IV-B live here:

* **round robin** (prefetch / on-demand): a thread that yields control
  goes to the back of the ready queue; a thread that waits on a
  hardware event simply stalls the core (the paper's scheduler issues
  the blocking load and lets the MSHR wake it).
* **FIFO with completion polling** (software queues): "the scheduler
  polls the completion queue only when no threads remain in the
  'ready' state; threads are managed in FIFO order".

Context-switch and polling costs are charged on the core's front end;
they are the software overheads whose magnitude separates Figure 3
from Figure 7.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Generator, Optional

from repro.cpu.core import OutOfOrderCore
from repro.errors import SimulationError
from repro.runtime.queuepair import Completion, QueuePair
from repro.runtime.uthread import (
    BlockOnCompletions,
    ThreadState,
    UserThread,
    YIELD_CONTROL,
)
from repro.sim import Event, Process, Simulator

__all__ = ["SchedulerCosts", "CoreRuntime"]


@dataclass(frozen=True)
class SchedulerCosts:
    """Software costs charged by the scheduler."""

    #: One user-mode context switch (scheduler call included).
    switch_ticks: int
    #: Time per (possibly empty) completion-queue poll.
    poll_ticks: int = 0
    #: Time to consume one completion entry (scan + match).
    completion_ticks: int = 0
    #: Time to wake a thread whose completion batch is full.
    wakeup_ticks: int = 0
    #: Extra fixed cost per wakeup (kernel mechanism: interrupt +
    #: kernel context switch).
    wake_busy_ticks: int = 0


class CoreRuntime:
    """Owns one core; multiplexes its user threads."""

    def __init__(
        self,
        sim: Simulator,
        core: OutOfOrderCore,
        costs: SchedulerCosts,
        queue_pair: Optional[QueuePair] = None,
    ) -> None:
        self.sim = sim
        self.core = core
        self.costs = costs
        #: A poll takes at least one tick, so an empty poll loop always
        #: advances simulated time.
        self._poll_ticks = max(1, costs.poll_ticks)
        self.queue_pair = queue_pair
        self.threads: list[UserThread] = []
        self.ready: Deque[UserThread] = deque()
        self.blocked: dict[int, UserThread] = {}
        self.finished = 0
        self.context_switches = 0
        self.empty_polls = 0
        self.opportunistic_polls = 0
        self._slices_since_poll = 0
        self._process: Optional[Process] = None
        #: Optional observability hooks (None keeps hot paths untouched).
        self.tracer = None
        self._trace_pid = 0
        self._trace_tid = 0

    def attach_tracer(self, tracer, pid: int, tid: int) -> None:
        self.tracer = tracer
        self._trace_pid = pid
        self._trace_tid = tid

    def register_metrics(self, registry, prefix: str) -> None:
        registry.register(
            f"{prefix}.context_switches", lambda: self.context_switches
        )
        registry.register(f"{prefix}.empty_polls", lambda: self.empty_polls)
        registry.register(
            f"{prefix}.opportunistic_polls", lambda: self.opportunistic_polls
        )
        registry.register(f"{prefix}.finished_threads", lambda: self.finished)

    # -- setup -----------------------------------------------------------------

    def add_thread(self, body: Generator) -> UserThread:
        """Register a thread (a generator ready to be driven)."""
        if self._process is not None:
            raise SimulationError("cannot add threads after the runtime started")
        thread = UserThread(len(self.threads), body)
        self.threads.append(thread)
        self.ready.append(thread)
        return thread

    def start(self) -> Process:
        """Launch the scheduler; the process fires when every thread
        has finished (never, for free-running workloads)."""
        if self._process is not None:
            raise SimulationError("core runtime started twice")
        self._process = self.sim.process(
            self._run(), name=f"runtime-core{self.core.core_id}"
        )
        return self._process

    # -- scheduler loop -----------------------------------------------------------

    def _run(self):
        while self.finished < len(self.threads):
            if not self.ready:
                if not self.blocked:
                    raise SimulationError(
                        "runtime has unfinished threads but nothing to run"
                    )
                if self.queue_pair is None:
                    raise SimulationError(
                        "threads blocked on completions without a queue pair"
                    )
                yield from self._poll_for_completions()
                continue
            thread = self.ready.popleft()
            thread.state = ThreadState.RUNNING
            tracer = self.tracer
            if tracer is None:
                switched = yield from self._run_slice(thread)
            else:
                slice_start = self.sim.now
                switched = yield from self._run_slice(thread)
                tracer.complete(
                    "sched",
                    self._trace_pid,
                    self._trace_tid,
                    f"uthread{thread.thread_id}",
                    slice_start,
                    self.sim.now,
                    args={"state": thread.state.name},
                )
                tracer.counter(
                    "sched",
                    self._trace_pid,
                    f"core{self.core.core_id}.threads",
                    self.sim.now,
                    {"ready": len(self.ready), "blocked": len(self.blocked)},
                )
            if switched:
                self.context_switches += 1
                yield from self.core.busy(self.costs.switch_ticks)
            # The paper's scheduler polls "only when no threads remain
            # ready"; a real implementation must still poll once per
            # scheduling round while anyone is blocked, or spinning
            # threads (e.g. at a barrier) would starve the blocked ones.
            self._slices_since_poll += 1
            if (
                self.blocked
                and self.queue_pair is not None
                and self._slices_since_poll > len(self.ready)
            ):
                self.opportunistic_polls += 1
                yield from self._poll_once()
        yield from self.core.drain()

    def _run_slice(self, thread: UserThread):
        """Drive one thread until it switches, blocks, or finishes.

        Returns True if a context switch cost should be charged.
        """
        value = thread.inbox
        thread.inbox = None
        body = thread.body
        while True:
            try:
                item = body.send(value)
            except StopIteration as stop:
                thread.state = ThreadState.FINISHED
                thread.result = stop.value
                self.finished += 1
                # Moving to the next thread is still a scheduler call.
                return bool(self.ready or self.blocked)
            if item is YIELD_CONTROL:
                thread.switches += 1
                thread.state = ThreadState.READY
                self.ready.append(thread)
                return True
            if isinstance(item, BlockOnCompletions):
                if len(thread.collected) >= item.count:
                    # Completions already arrived: consume and carry on.
                    value = self._consume(thread, item.count)
                    continue
                thread.awaiting = item.count
                thread.state = ThreadState.BLOCKED
                self.blocked[thread.thread_id] = thread
                return True
            if isinstance(item, Event):
                # Hardware wait: the core stalls with the thread.
                value = yield item
                continue
            raise SimulationError(
                f"thread {thread.thread_id} yielded unsupported item {item!r}"
            )

    @staticmethod
    def _consume(thread: UserThread, count: int) -> list[Completion]:
        taken = thread.collected[:count]
        del thread.collected[:count]
        return taken

    # -- completion polling (software-queue mechanisms) ----------------------------

    def _poll_for_completions(self):
        while not self.ready:
            yield from self._poll_once()

    def _poll_once(self):
        """One poll of the completion queue, consuming all visible
        entries (and their costs)."""
        queue_pair = self.queue_pair
        assert queue_pair is not None
        self._slices_since_poll = 0
        poll_start = self.sim.now
        yield from self.core.busy(self._poll_ticks)
        found = False
        consumed = 0
        while True:
            completion = queue_pair.pop_completion()
            if completion is None:
                break
            found = True
            consumed += 1
            yield from self.core.busy(self.costs.completion_ticks)
            woke = self._deliver(completion)
            if woke:
                yield from self.core.busy(
                    self.costs.wakeup_ticks + self.costs.wake_busy_ticks
                )
        if not found:
            self.empty_polls += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.complete(
                "sched",
                self._trace_pid,
                self._trace_tid,
                "cq-poll",
                poll_start,
                self.sim.now,
                args={"completions": consumed},
            )

    def _deliver(self, completion: Completion) -> bool:
        """Route a completion to its thread; True if the thread woke."""
        thread = self._thread_by_id(completion.thread_id)
        thread.collected.append(completion)
        if (
            thread.state is ThreadState.BLOCKED
            and len(thread.collected) >= thread.awaiting
        ):
            thread.inbox = self._consume(thread, thread.awaiting)
            thread.awaiting = 0
            thread.state = ThreadState.READY
            del self.blocked[thread.thread_id]
            self.ready.append(thread)
            return True
        return False

    def _thread_by_id(self, thread_id: int) -> UserThread:
        try:
            return self.threads[thread_id]
        except IndexError:
            raise SimulationError(f"completion for unknown thread {thread_id}")
