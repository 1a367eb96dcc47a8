"""The device-access API: one context class per access mechanism.

The paper's library "only requires the application to use the standard
POSIX threads, and to replace pointer dereferences with calls to
dev_access(uint64*)" (section IV-B).  Correspondingly, workload code
here receives an :class:`AccessContext` and calls:

* ``value = yield from ctx.read(addr)`` -- synchronous dev_access;
* ``values = yield from ctx.read_batch(addrs)`` -- the manual batching
  used for the MLP experiments and the applications;
* ``tokens = yield from ctx.read_batch_async(addrs)`` followed by
  ``yield from ctx.work(n, after=tokens)`` -- the microbenchmark's
  "access then dependent work" loop, which lets hardware mechanisms
  overlap across loop iterations where the mechanism allows it;
* ``yield from ctx.work(n)`` -- the benign work loop.

The same workload generator runs unmodified on every mechanism (and on
the DRAM baseline), exactly the property the paper's library design
aims for.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import SwqConfig, ThreadingConfig
from repro.cpu.core import LoadToken, OutOfOrderCore
from repro.cpu.uncore import AddressSpace
from repro.errors import ProtocolError
from repro.memory import FlatMemory
from repro.runtime.queuepair import Completion, Descriptor, QueuePair
from repro.runtime.uthread import BlockOnCompletions, YIELD_CONTROL
from repro.sim.trace import LatencyStat
from repro.units import ns

__all__ = [
    "MAX_BATCH",
    "AccessContext",
    "OnDemandContext",
    "PrefetchContext",
    "SoftwareQueueContext",
    "KernelQueueContext",
]

#: Maximum batched reads per dev_access_multi call: the queue
#: mechanisms' per-thread response buffer holds one line per read.
MAX_BATCH = 8


class AccessContext:
    """Common machinery: word extraction, work dispatch, bookkeeping."""

    def __init__(
        self,
        core: OutOfOrderCore,
        thread_id: int,
        space: AddressSpace,
        threading_config: ThreadingConfig,
        world: Optional[FlatMemory] = None,
    ) -> None:
        self.core = core
        self.thread_id = thread_id
        self.space = space
        self.threading_config = threading_config
        #: Functional memory for writes (reads flow data through the
        #: hardware path; writes apply in program order here).
        self.world = world
        self.accesses = 0
        self.writes = 0
        #: Thread-visible access latency (issue to data-ready), shared
        #: across a system's contexts by the builder.  The killer
        #: microsecond is a tail-latency story; this is where the tail
        #: is measured.
        self.access_latency: Optional[LatencyStat] = None
        #: Request-scoped span cursor (:class:`repro.obs.spans.
        #: RequestSpan`) of the request this thread is currently
        #: serving; the service worker points it at the active request
        #: and the mechanism paths stamp layer transitions into it.
        #: ``None`` (the default, and always the case outside span-
        #: enabled service runs) makes every stamp a no-op.
        self.span = None
        #: :meth:`software_cost` ticks per instruction count.
        self._cost_ticks: dict[int, int] = {}

    def _record_latency(self, started_at: int, tokens: Sequence[LoadToken]) -> None:
        """Record issue-to-data-ready latency once the batch lands."""
        stat = self.access_latency
        if stat is None:
            return
        sim = self.core.sim
        if not tokens:
            # Queue mechanisms: data was present when the thread woke.
            stat.record(sim.now - started_at)
            return
        remaining = len(tokens)

        def on_done(_event) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                stat.record(sim.now - started_at)

        for token in tokens:
            token.event.add_callback(on_done)

    # -- common -------------------------------------------------------------------

    def work(self, instructions: int, after: Sequence[LoadToken] = ()):
        """The dependent work block; counts toward work IPC.

        Returns the block's completion event (most callers ignore it;
        finite workloads can wait on it before reading the clock).
        """
        deps = [token.event for token in after]
        done = yield from self.core.dispatch_work(instructions, deps=deps)
        return done

    def yield_control(self):
        """Cooperatively hand the core to the next ready thread."""
        yield YIELD_CONTROL

    def software_cost(self, instructions: int):
        """Charge runtime/protocol code: serialized (fences, dependent
        loads), so it occupies the front end at ``overhead_ipc``."""
        if instructions > 0:
            ticks = self._cost_ticks.get(instructions)
            if ticks is None:
                ticks = self._cost_ticks[instructions] = self.core.cycles(
                    instructions / self.threading_config.overhead_ipc
                )
            yield from self.core.busy(ticks)

    def _call_overhead(self):
        yield from self.software_cost(
            self.threading_config.access_call_instructions
        )

    # -- per-mechanism ---------------------------------------------------------------

    def read_batch_async(self, addrs: Sequence[int]):
        """Start ``len(addrs)`` accesses; return dependence tokens.

        Mechanisms without hardware tokens (software queues) block the
        thread until the data is present and return an empty list.
        """
        raise NotImplementedError

    def read_batch(self, addrs: Sequence[int]):
        """Synchronous batched dev_access: returns the word values.

        This is the memory-mapped mechanisms' path (on-demand and
        prefetch): they have no SQ/CQ rings, so the whole
        issue-to-data-ready window attributes to the device layer.
        """
        span = self.span
        if span is not None:
            span.mark("device", self.core.sim.now)
        tokens = yield from self.read_batch_async(addrs)
        values = []
        for token in tokens:
            yield from self.core.wait_data(token)
            values.append(token.word())
        if span is not None:
            span.mark("work", self.core.sim.now)
        return values

    def read(self, addr: int):
        """Synchronous dev_access(uint64*)."""
        values = yield from self.read_batch([addr])
        return values[0]

    def write(self, addr: int, value: int):
        """Posted dev_store: update memory, account the write's timing.

        Writes are the paper's future-work path (section VII): no
        return value, off the critical path, hidden behind later
        instructions of the same thread.  Functional contents are
        applied in program order at the writing thread; concurrent
        writers to the same word are outside the modeled scope (as in
        the paper, which studies reads).
        """
        if self.world is not None:
            self.world.write_word(addr, value)
        self.writes += 1
        yield from self._timed_write(addr)

    def _timed_write(self, addr: int):
        yield from self.core.issue_store(addr, self.space)


class OnDemandContext(AccessContext):
    """Plain loads against the mapped device (or DRAM: the baseline).

    No prefetching, no threading tricks: the out-of-order core is on
    its own, exactly the configuration of Figure 2 (and, with
    ``space=DRAM``, the paper's baseline pointer dereference).
    """

    def read_batch_async(self, addrs: Sequence[int]):
        started_at = self.core.sim.now
        tokens = []
        for addr in addrs:
            token = yield from self.core.issue_load(addr, self.space)
            tokens.append(token)
        self.accesses += len(addrs)
        self._record_latency(started_at, tokens)
        return tokens


class PrefetchContext(AccessContext):
    """Listing 1: prefetcht0, user-level context switch, then a load
    that is expected to hit in the L1 (or merge with the fill)."""

    def read_batch_async(self, addrs: Sequence[int]):
        started_at = self.core.sim.now
        yield from self._call_overhead()
        for addr in addrs:
            yield from self.core.issue_prefetch(addr, self.space)
        # One context switch after the whole batch (section V-B,
        # "a single context switch after issuing multiple prefetches").
        yield YIELD_CONTROL
        tokens = []
        for addr in addrs:
            token = yield from self.core.issue_load(addr, self.space)
            tokens.append(token)
        self.accesses += len(addrs)
        self._record_latency(started_at, tokens)
        return tokens


class SoftwareQueueContext(AccessContext):
    """Application-managed software queues (sections III-A / IV-A).

    Enqueue a descriptor per access (software cost), ring the doorbell
    only when the device's flag asks for it, then deschedule until the
    scheduler's completion polling finds our completions.
    """

    def __init__(
        self,
        core: OutOfOrderCore,
        thread_id: int,
        space: AddressSpace,
        threading_config: ThreadingConfig,
        swq_config: SwqConfig,
        queue_pair: QueuePair,
        doorbell_addr: int,
        response_base: int,
        line_bytes: int = 64,
        world: Optional[FlatMemory] = None,
    ) -> None:
        super().__init__(core, thread_id, space, threading_config, world=world)
        self.swq_config = swq_config
        self.queue_pair = queue_pair
        self.doorbell_addr = doorbell_addr
        self.doorbell_ticks = ns(swq_config.doorbell_ns)
        #: The thread's response buffer: ``MAX_BATCH`` lines, one slot
        #: per read of a batch.
        self.response_base = response_base
        self.line_bytes = line_bytes
        self._last_completions: list[Completion] = []

    def _enqueue(self, addr: int, cost: int, response_addr: int = 0,
                 is_write: bool = False, ring: bool = False):
        """The queue protocol's one enqueue: charge ``cost``
        instructions, wait for ring space, publish the descriptor, and
        ring the doorbell when the device's flag asks (or ``ring``)."""
        yield from self.software_cost(cost)
        yield from self._wait_for_ring_space()
        queue_pair = self.queue_pair
        queue_pair.enqueue(
            Descriptor(
                core_id=queue_pair.core_id,
                thread_id=self.thread_id,
                device_addr=addr,
                response_addr=response_addr,
                is_write=is_write,
            )
        )
        if ring or queue_pair.doorbell_needed or not self.swq_config.doorbell_flag:
            queue_pair.note_doorbell()
            yield from self.core.mmio_write(self.doorbell_addr, 8, self.doorbell_ticks)

    def _wait_for_ring_space(self):
        """Spin (yielding the core) while the queue pair is full.

        Real enqueue code tail-checks the ring head; under extreme
        oversubscription the producer waits for the device's fetcher
        to drain entries rather than corrupting the ring.  The second
        condition is the SQ/CQ credit discipline: never keep more
        reads outstanding than the completion ring can hold, or the
        device's completion writes would overflow it (binding when the
        ring is undersized relative to the thread count -- exactly the
        queue-sizing experiments).
        """
        queue_pair = self.queue_pair
        while (
            queue_pair.requests_pending >= queue_pair.entries
            or queue_pair.reads_outstanding >= queue_pair.entries
        ):
            yield from self.software_cost(self.swq_config.poll_instructions)
            yield YIELD_CONTROL

    def read_batch_async(self, addrs: Sequence[int]):
        if len(addrs) > MAX_BATCH:
            raise ProtocolError(
                f"batch of more than {MAX_BATCH} reads overflows the "
                "thread's response buffer (raise MAX_BATCH)"
            )
        started_at = self.core.sim.now
        span = self.span
        if span is not None:
            span.mark("sq", started_at)
        swq = self.swq_config
        for slot, addr in enumerate(addrs):
            # Later descriptors of a batch amortize the first one's
            # fence, index update and flag check.
            cost = swq.enqueue_batch_instructions if slot else swq.enqueue_instructions
            yield from self._enqueue(addr, cost, self.response_base + slot * self.line_bytes)
        if span is not None:
            span.mark("device", self.core.sim.now)
        completions = yield BlockOnCompletions(len(addrs))
        self.accesses += len(addrs)
        self._last_completions = completions
        if span is not None:
            # Device time ends when the last completion's DMA write
            # committed; the remainder until the thread resumed is the
            # completion-poll/wakeup path (``cq``).  The post can land
            # while the thread is still charged submission time (the
            # kernel queue's post-doorbell switch) -- clamp to the
            # request's own timeline: overlapped device work leaves the
            # rest of the wait as pure completion polling.
            posted = -1
            for completion in completions:
                if completion.posted_at > posted:
                    posted = completion.posted_at
            if posted >= 0:
                span.mark("cq", max(posted, span.open_at))
            span.mark("work", self.core.sim.now)
        self._record_latency(started_at, ())
        return []  # data already present; no hardware tokens

    def _timed_write(self, addr: int):
        # A write descriptor: enqueued like a read but fire-and-forget
        # (no response data, no completion entry -- the thread never
        # waits, matching the posted-write semantics of section VII).
        # Named on the class so that kernel-queue writes take it too,
        # posted without a trap.
        yield from SoftwareQueueContext._enqueue(
            self, addr, self.swq_config.enqueue_instructions, is_write=True
        )

    def read_batch(self, addrs: Sequence[int]):
        yield from self.read_batch_async(addrs)
        by_addr: dict[int, Completion] = {
            completion.device_addr: completion
            for completion in self._last_completions
        }
        values = []
        for addr in addrs:
            completion = by_addr[addr]
            line_addr = addr - (addr % self.line_bytes)
            values.append(
                FlatMemory.word_from_line(line_addr, completion.data, addr)
            )
        return values


class KernelQueueContext(SoftwareQueueContext):
    """Kernel-managed queues: the SWQ protocol wrapped in system calls.

    Section III-A enumerates the per-access overheads -- system call,
    doorbell, kernel context switch, device queue read/write, interrupt
    handler, final context switch -- "adding up to tens ... of
    microseconds".  The request-side costs are charged here; the
    completion-side (interrupt + switch back) is charged by the
    scheduler's wake path.
    """

    def __init__(self, *args, syscall_ticks: int, kernel_switch_ticks: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.syscall_ticks = syscall_ticks
        self.kernel_switch_ticks = kernel_switch_ticks

    def _enqueue(self, addr: int, cost: int, response_addr: int):
        # A read's system call: trap into the kernel, run the SWQ
        # enqueue at full cost whatever the batch slot's ``cost`` (each
        # read is its own call) with an unconditional doorbell (the
        # kernel has no application-side flag), then the kernel
        # deschedules the calling thread.  Writes never come here.
        yield from self.core.busy(self.syscall_ticks)
        yield from super()._enqueue(
            addr, self.swq_config.enqueue_instructions, response_addr, ring=True
        )
        yield from self.core.busy(self.kernel_switch_ticks)
