"""An approximate out-of-order core executing macro-op effects.

The model captures the mechanisms the paper's analysis rests on, and
nothing more:

* a bounded reorder buffer with in-order retirement -- long-latency
  loads at the head stall dispatch (Figure 2's on-demand collapse);
* dispatch-width-limited front end and an IPC-limited "work" pipeline
  (the microbenchmark's dependent arithmetic runs at ~1.4 IPC);
* loads/prefetches that allocate line-fill buffers and travel through
  the shared uncore queues (Figures 3 and 5's plateaus);
* cheap primitives for the software overheads of the runtime: context
  switches, descriptor builds, completion polling, MMIO doorbells.

Work blocks dispatch and retire in chunks so that the instruction
window behaves like a window of instructions rather than a window of
loop iterations; the chunk size is a fidelity knob, not a hardware
parameter.

All methods that consume front-end time are generators and must be
driven from the core's single runtime process (``yield from``).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.config import CpuConfig
from repro.cpu.memsys import CoreMemorySystem
from repro.cpu.rob import ReorderBuffer
from repro.cpu.storebuffer import PendingStore
from repro.cpu.uncore import AddressSpace
from repro.errors import SimulationError
from repro.memory import FlatMemory
from repro.sim import Event, Resource, Simulator, all_of
from repro.sim.trace import Counter

__all__ = ["LoadToken", "OutOfOrderCore"]


class LoadToken:
    """Handle to an in-flight (or completed) load.

    ``event`` fires with the full line's bytes; :meth:`word` extracts
    the 64-bit word the access asked for.
    """

    __slots__ = ("event", "addr", "line_addr")

    def __init__(self, event: Event, addr: int, line_addr: int) -> None:
        self.event = event
        self.addr = addr
        self.line_addr = line_addr

    @property
    def done(self) -> bool:
        return self.event.fired

    def word(self) -> int:
        """The loaded 64-bit value (line must have arrived)."""
        return FlatMemory.word_from_line(self.line_addr, self.event.value, self.addr)


class OutOfOrderCore:
    """One core: front end, ROB, and a private memory subsystem."""

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        config: CpuConfig,
        memsys: CoreMemorySystem,
        work_counter: Counter,
        rob_entries: Optional[int] = None,
        front_end: Optional["Resource"] = None,
    ) -> None:
        self.sim = sim
        self.core_id = core_id
        self.config = config
        self.frequency = config.frequency
        self.memsys = memsys
        entries = rob_entries if rob_entries is not None else config.rob_entries
        self.rob = ReorderBuffer(sim, entries, name=f"rob{core_id}")
        self.work = work_counter
        self.instructions = Counter(f"core{core_id}-instructions")
        #: Shared dispatch bandwidth between SMT contexts: while one
        #: context holds the front end, its sibling waits; a context
        #: stalled on a full ROB releases it, which is exactly SMT's
        #: benefit for on-demand accesses (section III-B).
        self._front_end = front_end
        self._mmio_sink: Optional[Callable[[int, int], None]] = None
        if config.work_chunk_instructions > entries:
            raise SimulationError("work chunk larger than the ROB")
        # Tick tables indexed by instruction count: every dispatched
        # chunk is 1..work_chunk_instructions long, so the per-chunk
        # float division and rounding happen once, here.
        counts = range(config.work_chunk_instructions + 1)
        self._dispatch_table = [
            self.frequency.cycles(n / config.dispatch_width) for n in counts
        ]
        self._execute_table = [
            self.frequency.cycles(n / config.work_ipc) for n in counts
        ]
        #: Retire hooks of work chunks by instruction count.
        self._work_hooks = [self._retire_hook(n) for n in counts]
        #: The retire hook of a load, store or prefetch: the core's only
        #: non-work instructions, each counted as one instruction.
        self._one_hook = self.instructions.add

    # -- wiring ---------------------------------------------------------------

    def set_mmio_sink(self, sink: Callable[[int, int], None]) -> None:
        """Attach the posted-MMIO-write path (doorbells)."""
        self._mmio_sink = sink

    def register_metrics(self, registry, prefix: str) -> None:
        """Export this logical core's private probes under ``prefix``
        (e.g. ``core0.rob.max_used``).  The memory subsystem registers
        separately: SMT siblings share it, so the System exports it
        once per *physical* core."""
        registry.register(f"{prefix}.instructions", self.instructions)
        self.rob.register_metrics(registry, f"{prefix}.rob")

    # -- time helpers ---------------------------------------------------------

    def cycles(self, n: float) -> int:
        return self.frequency.cycles(n)

    def _fired_event(self) -> Event:
        event = Event(self.sim)
        event.succeed(None)
        return event

    def _dispatch(self, ticks: int):
        """Consume front-end time, arbitrating with the SMT sibling.

        Only for a core with an SMT front end attached; without one the
        callers yield the dispatch timeout themselves.
        """
        grant = self._front_end.acquire()
        try:
            if not grant.fired:
                yield grant
            yield self.sim.timeout(ticks)
        finally:
            # An exception thrown into the owning process while it sits
            # on the dispatch timeout must not strand the front end --
            # the SMT sibling would deadlock waiting for a slot that is
            # never released.  The slot is ours once the grant has
            # *triggered* (an uncontended acquire grants immediately,
            # before the event fires); an exception while still queued
            # for a contended front end owns nothing to release.
            if grant.triggered:
                self._front_end.release()

    # -- primitives (front-end generators) ------------------------------------

    def dispatch_work(self, instructions: int, deps: Sequence[Event] = ()):
        """Dispatch a block of arithmetic (work) instructions.

        The block's first chunk starts executing once every event in
        ``deps`` has fired (e.g. the load that produced its input);
        later chunks chain on their predecessor.  Dispatch consumes
        front-end time and ROB slots but does **not** wait for
        execution -- the out-of-order essence.  Returns the completion
        event of the final chunk.
        """
        if instructions < 0:
            raise SimulationError("negative instruction count")
        if instructions == 0:
            return self._fired_event()
        sim = self.sim
        rob = self.rob
        smt = self._front_end is not None
        chunk_size = self.config.work_chunk_instructions
        dispatch_table = self._dispatch_table
        execute_table = self._execute_table
        hooks = self._work_hooks
        previous: Optional[Event] = None
        remaining = instructions
        while remaining > 0:
            chunk = chunk_size if remaining > chunk_size else remaining
            remaining -= chunk
            if not rob.try_allocate(chunk):
                yield from rob.allocate(chunk)
            if smt:
                yield from self._dispatch(dispatch_table[chunk])
            else:
                yield sim.timeout(dispatch_table[chunk])
            exec_ticks = execute_table[chunk]
            if previous is not None:
                # Later chunks chain on their predecessor only.
                completion = sim.delayed(previous, exec_ticks)
            else:
                gates = [dep for dep in deps if not dep.fired]
                if not gates:
                    completion = sim.timeout(exec_ticks)
                elif len(gates) == 1:
                    completion = sim.delayed(gates[0], exec_ticks)
                else:
                    completion = sim.delayed(all_of(sim, gates), exec_ticks)
            rob.commit(chunk, completion, hooks[chunk])
            previous = completion
        return previous

    def _dispatch_one(self):
        """Allocate one ROB slot and spend one instruction's front-end
        time (loads, stores and prefetches)."""
        if not self.rob.try_allocate(1):
            yield from self.rob.allocate(1)
        if self._front_end is None:
            yield self.sim.timeout(self._dispatch_table[1])
        else:
            yield from self._dispatch(self._dispatch_table[1])

    def _retire_hook(self, instructions: int):
        # The hook closes over the counters, not the core: the core keeps
        # its hooks, and a hook holding the core would make every core a
        # reference cycle that only the cyclic garbage collector frees.
        executed = self.instructions
        work = self.work

        def hook() -> None:
            executed.add(instructions)
            work.add(instructions)

        return hook

    def issue_load(self, addr: int, space: AddressSpace):
        """Dispatch one load; returns a :class:`LoadToken` immediately.

        The token's event fires with the line data.  The load occupies
        one ROB slot until it completes (and everything older retires).
        """
        yield from self._dispatch_one()
        data_event = self.memsys.load_line(addr, space)
        self.rob.commit(1, data_event, self._one_hook)
        return LoadToken(data_event, addr, self.memsys.line_of(addr))

    def issue_store(self, addr: int, space: AddressSpace, num_bytes: int = 8):
        """Dispatch one posted store (section VII's future-work path).

        The store retires at dispatch and drains through the store
        buffer in the background; dispatch stalls only while the
        buffer is full.  Functional memory contents are the caller's
        responsibility (program order at the writing thread).
        """
        if self.memsys.store_buffer is None:
            raise SimulationError(
                f"core{self.core_id}: no store buffer attached (writes "
                "need a System-built memory subsystem)"
            )
        yield from self._dispatch_one()
        yield from self.memsys.store_buffer.post(
            PendingStore(addr, space, num_bytes)
        )
        self.rob.commit(1, self._fired_event(), self._one_hook)

    def wait_data(self, token: LoadToken):
        """Block the front end until ``token``'s line has arrived.

        Models a *use* whose result the program needs before it can
        produce any further instructions (pointer chasing).  Returns
        the line bytes.
        """
        if token.event.fired:
            return token.event.value
        data = yield token.event
        return data

    def issue_prefetch(self, addr: int, space: AddressSpace):
        """Dispatch one non-binding ``prefetcht0``.

        The instruction never waits for data.  Under the default
        ``queue`` policy it retires once it obtains a line-fill buffer
        (waiting in the reservation station while all are busy, so
        dispatch continues past it and ROB backpressure throttles the
        core to the fill rate); under the ``drop`` policy it retires
        immediately, discarded if no buffer was free.
        """
        yield from self._dispatch_one()
        issued = self.memsys.prefetch_line(addr, space)
        self.rob.commit(1, issued, self._one_hook)

    def drain(self):
        """Wait until every dispatched instruction has retired.

        Finite workloads call this before reading the clock, so that
        "execution time" includes in-flight work.
        """
        yield self.rob.idle()

    def busy(self, ticks: int):
        """Occupy the front end for a fixed time (context switch cost,
        serializing instructions, ...)."""
        if ticks > 0:
            yield self.sim.timeout(ticks)

    def mmio_write(self, addr: int, num_bytes: int, cost_ticks: int):
        """A posted uncached write (doorbell): the core pays a fixed
        cost; the write travels to the device asynchronously."""
        if self._mmio_sink is None:
            raise SimulationError(f"core{self.core_id}: no MMIO sink attached")
        yield from self.busy(cost_ticks)
        self._mmio_sink(addr, num_bytes)

    # -- introspection ---------------------------------------------------------

    @property
    def lfb(self):
        return self.memsys.lfb

    @property
    def l1(self):
        return self.memsys.l1
