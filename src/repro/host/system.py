"""Assembly of the complete simulated platform.

A :class:`System` builds, from one :class:`~repro.config.SystemConfig`:
the simulator, the functional memory ("world"), cores with their
private cache/LFB stacks, the shared uncore, the PCIe link, the host
bridge, the device emulator matching the access mechanism, and one
runtime (scheduler) per core.  It also owns data placement (device
partitions vs host DRAM) and the measurement windows used to compute
work IPC.

Latency budgeting: the paper configures the *end-to-end* device
latency (the FPGA delay "accounts for the PCIe round-trip latency");
we do the same by subtracting the modeled uncontended path latency
from ``DeviceConfig.total_latency_us`` to obtain the delay module's
internal hold time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.config import (
    AccessMechanism,
    BackingStore,
    SystemConfig,
)
from repro.cpu.core import OutOfOrderCore
from repro.cpu.memsys import CoreMemorySystem
from repro.cpu.uncore import AddressSpace, Uncore
from repro.config import DeviceAttachment
from repro.device.emulator import MmioEmulator, SwqEmulator
from repro.device.membus import MemoryBusDevice
from repro.errors import ConfigError, SimulationError
from repro.host.addressmap import AddressMap
from repro.cpu.storebuffer import StoreBuffer
from repro.host.bridge import (
    DramTarget,
    DramWriteSink,
    HostBridge,
    MmioTarget,
    PcieWriteSink,
)
from repro.interconnect.dram import DramChannel
from repro.interconnect.pcie import PcieLink
from repro.memory import FlatMemory
from repro.runtime.api import (
    AccessContext,
    KernelQueueContext,
    OnDemandContext,
    PrefetchContext,
    SoftwareQueueContext,
)
from repro.runtime.driver import CoreRuntime, SchedulerCosts
from repro.runtime.queuepair import QueuePair
from repro.runtime.uthread import UserThread
from repro.sim import Resource, Simulator, all_of, any_of
from repro.sim.trace import ProbeSet
from repro.units import ns, to_ns, transfer_ticks, us

__all__ = ["System", "WindowStats"]

#: Host-DRAM address where workload data is placed for the baseline.
_DRAM_DATA_BASE = 1 << 30
#: Host-DRAM region of the per-core descriptor rings.
_RING_BASE = 1 << 20
_RING_STRIDE = 4096
#: Host-DRAM region of per-thread response buffers.
_RESPONSE_BASE = 1 << 24
#: Maximum batched reads per dev_access_multi call (response slots).
MAX_BATCH = 8

ThreadFactory = Callable[[AccessContext], Generator]


@dataclass(frozen=True)
class WindowStats:
    """Measurements over one steady-state window."""

    ticks: int
    work_instructions: int
    cycles: float
    work_ipc: float
    accesses: int


class System:
    """One fully-wired simulated platform."""

    def __init__(
        self,
        config: SystemConfig,
        tracer=None,
    ) -> None:
        """``tracer`` (a :class:`repro.obs.Tracer`, or anything with
        its recording interface) turns on structured tracing: the
        builder attaches it to every instrumented component.  ``None``
        (the default) leaves every hook a no-op."""
        self.config = config
        self.sim = Simulator()
        line_bytes = config.cache.line_bytes
        self.world = FlatMemory(line_bytes=line_bytes)
        #: Logical cores: physical cores x SMT contexts.  Each logical
        #: core gets its own partition, runtime, and (for queue
        #: mechanisms) queue pair; SMT siblings share the L1/LFB stack
        #: and the front end.
        self.logical_cores = config.cores * config.cpu.smt_contexts
        self.map = AddressMap(
            cores=self.logical_cores,
            bar_bytes=config.device.bar_bytes,
            line_bytes=line_bytes,
        )
        self.probes = ProbeSet()
        self.work_counter = self.probes.counter("work")
        #: Thread-visible access latency across every context (issue to
        #: data-ready): min/mean/p50/p99/max of the killer microsecond.
        self.access_latency = self.probes.latency("access-latency")
        #: Request-scoped attribution ledger (:class:`repro.obs.spans.
        #: SpanLedger`); ``None`` unless a span-enabled service run
        #: attaches one.  Every hook is guarded, matching the tracer's
        #: zero-cost-when-off discipline.
        self.spans = None

        # -- shared fabric ---------------------------------------------------
        membus_attached = config.device.attachment is DeviceAttachment.MEMORY_BUS
        if membus_attached and config.mechanism in (
            AccessMechanism.SOFTWARE_QUEUE,
            AccessMechanism.KERNEL_QUEUE,
        ):
            raise ConfigError(
                "software-managed queues presume a PCIe-style doorbell/DMA "
                "device; memory-bus attachment supports the memory-mapped "
                "mechanisms (on-demand, prefetch)"
            )
        self.uncore = Uncore(
            self.sim,
            config.uncore,
            device_queue_entries=(
                config.uncore.dram_queue_entries if membus_attached else None
            ),
        )
        self.link = PcieLink(self.sim, config.pcie)
        self.dram = DramChannel(
            self.sim,
            latency_ticks=self._dram_internal_latency(),
            bandwidth_bytes_per_s=config.host_dram.bandwidth_bytes_per_s,
            name="host-dram",
        )
        self.bridge = HostBridge(self.sim, self.link, self.dram, self.map)
        self.uncore.attach_target(
            AddressSpace.DRAM, DramTarget(self.dram, self.world, line_bytes)
        )
        self.uncore.attach_target(AddressSpace.DEVICE, MmioTarget(self.bridge))

        # -- device ------------------------------------------------------------
        self.queue_pairs: list[QueuePair] = []
        internal_delay = self._device_internal_delay()
        if membus_attached:
            device = MemoryBusDevice(
                self.sim,
                config.device,
                config.host_dram,
                self.world,
                internal_delay_ticks=internal_delay,
            )
            self.device: MmioEmulator | SwqEmulator | MemoryBusDevice = device
            # Replace the DEVICE-path target: reads go straight to the
            # channel instead of through the PCIe bridge.
            self.uncore._targets[AddressSpace.DEVICE] = device
        elif config.mechanism in (
            AccessMechanism.SOFTWARE_QUEUE,
            AccessMechanism.KERNEL_QUEUE,
        ):
            self.queue_pairs = [
                QueuePair(core, config.swq.ring_entries)
                for core in range(self.logical_cores)
            ]
            self.device = SwqEmulator(
                self.sim,
                config.device,
                config.onboard_dram,
                config.swq,
                self.link,
                self.map,
                self.world,
                self.queue_pairs,
                ring_addrs=[
                    self.ring_addr(core) for core in range(self.logical_cores)
                ],
                internal_delay_ticks=internal_delay,
            )
        else:
            self.device = MmioEmulator(
                self.sim,
                config.device,
                config.onboard_dram,
                self.link,
                self.map,
                self.world,
                internal_delay_ticks=internal_delay,
            )

        # -- cores and runtimes ----------------------------------------------------
        # SMT: each physical core's contexts share an L1/LFB stack and
        # a front end, and statically partition the ROB (as Haswell
        # does with hyperthreading enabled).
        self.cores: list[OutOfOrderCore] = []
        self.runtimes: list[CoreRuntime] = []
        costs = self._scheduler_costs()
        smt = config.cpu.smt_contexts
        for physical in range(config.cores):
            memsys = CoreMemorySystem(
                self.sim,
                physical,
                config.cache,
                config.cpu.lfb_entries,
                self.uncore,
                config.cpu.frequency,
                drop_prefetch_when_full=config.cpu.prefetch_drop_when_full,
            )
            if config.cpu.hardware_prefetcher:
                from repro.cpu.hwprefetch import StridePrefetcher

                memsys.hw_prefetcher = StridePrefetcher(memsys)
            store_buffer = StoreBuffer(
                self.sim,
                config.cpu.store_buffer_entries,
                self.uncore,
                name=f"stb{physical}",
            )
            store_buffer.attach_sink(
                AddressSpace.DRAM, DramWriteSink(self.dram)
            )
            if membus_attached:
                store_buffer.attach_sink(AddressSpace.DEVICE, device)
            else:
                store_buffer.attach_sink(
                    AddressSpace.DEVICE, PcieWriteSink(self.sim, self.link)
                )
            memsys.store_buffer = store_buffer
            front_end = (
                Resource(self.sim, 1, name=f"fe{physical}") if smt > 1 else None
            )
            for context in range(smt):
                core_id = physical * smt + context
                core = OutOfOrderCore(
                    self.sim,
                    core_id,
                    config.cpu,
                    memsys,
                    self.work_counter,
                    rob_entries=config.cpu.rob_entries // smt,
                    front_end=front_end,
                )
                core.set_mmio_sink(self.bridge.post_mmio_write)
                self.cores.append(core)
                queue_pair = (
                    self.queue_pairs[core_id] if self.queue_pairs else None
                )
                self.runtimes.append(
                    CoreRuntime(self.sim, core, costs, queue_pair=queue_pair)
                )

        # -- allocators ---------------------------------------------------------------
        self._device_bumps = [
            self.map.partition_base(core) for core in range(self.logical_cores)
        ]
        self._dram_bump = _DRAM_DATA_BASE
        self._response_bump = _RESPONSE_BASE
        self._started = False

        self.tracer = tracer
        if tracer is not None:
            self._attach_tracer(tracer)

    # -- observability -----------------------------------------------------------

    def _attach_tracer(self, tracer) -> None:
        """Wire ``tracer`` into every instrumented component, assigning
        the pid/tid layout of the rendered timeline (one Perfetto
        process group per hardware layer)."""
        from repro.obs import PID_CORES, PID_DEVICE, PID_PCIE, PID_UNCORE

        tracer.process_name(PID_CORES, "cores")
        tracer.process_name(PID_UNCORE, "uncore")
        tracer.process_name(PID_PCIE, "pcie")
        tracer.process_name(PID_DEVICE, "device")

        smt = self.config.cpu.smt_contexts
        # Two tids per logical core (pipeline + scheduler), then one
        # per physical core's shared LFB stack.
        for index, core in enumerate(self.cores):
            rob_tid = 2 * core.core_id + 1
            sched_tid = 2 * core.core_id + 2
            tracer.thread_name(PID_CORES, rob_tid, f"core{core.core_id} rob")
            tracer.thread_name(
                PID_CORES, sched_tid, f"core{core.core_id} sched"
            )
            core.rob.attach_tracer(tracer, PID_CORES, rob_tid)
            self.runtimes[index].attach_tracer(tracer, PID_CORES, sched_tid)
            if index % smt == 0:
                lfb_tid = 2 * self.logical_cores + core.core_id // smt + 1
                tracer.thread_name(
                    PID_CORES, lfb_tid, f"lfb{core.core_id // smt}"
                )
                core.memsys.lfb.attach_tracer(tracer, PID_CORES, lfb_tid)

        self.uncore.attach_tracer(tracer, PID_UNCORE)

        for tid, (direction, role) in enumerate(
            (
                (self.link.downstream, "wire"),
                (self.link.downstream, "prop"),
                (self.link.upstream, "wire"),
                (self.link.upstream, "prop"),
            ),
            start=1,
        ):
            tracer.thread_name(PID_PCIE, tid, f"{direction.name} {role}")
        self.link.downstream.attach_tracer(tracer, PID_PCIE, 1, 2)
        self.link.upstream.attach_tracer(tracer, PID_PCIE, 3, 4)

        delay = getattr(self.device, "delay", None)
        if delay is not None and hasattr(delay, "attach_tracer"):
            tracer.thread_name(PID_DEVICE, 1, "delay")
            delay.attach_tracer(tracer, PID_DEVICE, 1)
        for offset, fetcher in enumerate(getattr(self.device, "fetchers", ())):
            tid = 2 + offset
            tracer.thread_name(PID_DEVICE, tid, fetcher.name)
            fetcher.attach_tracer(tracer, PID_DEVICE, tid)

    def register_metrics(self, registry) -> None:
        """Register every component's probes under the hierarchical
        naming scheme (``core0.lfb.in_flight``, ``pcie.upstream.util``,
        ...)."""
        registry.register("work", self.work_counter)
        registry.register("access_latency", self.access_latency)
        smt = self.config.cpu.smt_contexts
        for index, core in enumerate(self.cores):
            prefix = f"core{core.core_id}"
            core.register_metrics(registry, prefix)
            if index % smt == 0:
                # SMT siblings share the L1/LFB stack: export it once,
                # under the physical core's first logical context.
                core.memsys.register_metrics(registry, prefix)
        self.uncore.register_metrics(registry, "uncore")
        self.link.register_metrics(registry, "pcie")
        self.dram.register_metrics(registry, "host_dram")
        self.device.register_metrics(registry, "device")
        for runtime in self.runtimes:
            runtime.register_metrics(
                registry, f"runtime{runtime.core.core_id}"
            )
        if self.spans is not None:
            self.spans.register_metrics(registry, "spans")

    def metrics_snapshot(self) -> dict:
        """One JSON-able dump of every registered probe, now."""
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        self.register_metrics(registry)
        return registry.snapshot(self.sim.now)

    # -- latency budgeting -------------------------------------------------------

    def _dram_internal_latency(self) -> int:
        config = self.config
        line = config.cache.line_bytes
        overhead = 2 * self.uncore.hop_ticks + transfer_ticks(
            line, config.host_dram.bandwidth_bytes_per_s
        )
        internal = ns(config.host_dram.latency_ns) - overhead
        if internal < 0:
            raise ConfigError(
                "host DRAM latency is smaller than the modeled uncore path; "
                "raise host_dram.latency_ns or lower uncore.hop_ns"
            )
        return internal

    def _device_internal_delay(self) -> int:
        config = self.config
        if config.device.attachment is DeviceAttachment.MEMORY_BUS:
            # Path: uncore hops + channel serialization (no PCIe).
            path = 2 * self.uncore.hop_ticks + transfer_ticks(
                config.cache.line_bytes, config.host_dram.bandwidth_bytes_per_s
            )
        else:
            path = 2 * self.uncore.hop_ticks + self.link.round_trip_ticks(
                config.cache.line_bytes
            )
        internal = config.device.total_latency_ticks - path
        if internal < 0:
            raise ConfigError(
                f"device latency {config.device.total_latency_us} us is below "
                f"the modeled PCIe path latency (~{path / us(1):.2f} us); the "
                "paper's emulator has the same floor"
            )
        return internal

    def _scheduler_costs(self) -> SchedulerCosts:
        config = self.config
        switch = ns(config.threading.context_switch_ns)
        frequency = config.cpu.frequency
        ipc = config.threading.overhead_ipc

        def serialized(instructions: int) -> int:
            return frequency.cycles(instructions / ipc)

        if config.mechanism is AccessMechanism.SOFTWARE_QUEUE:
            return SchedulerCosts(
                switch_ticks=switch,
                poll_ticks=serialized(config.swq.poll_instructions),
                completion_ticks=serialized(config.swq.completion_instructions),
                wakeup_ticks=serialized(config.swq.wakeup_instructions),
            )
        if config.mechanism is AccessMechanism.KERNEL_QUEUE:
            kq = config.kernel_queue
            return SchedulerCosts(
                switch_ticks=switch,
                poll_ticks=serialized(config.swq.poll_instructions),
                completion_ticks=serialized(config.swq.completion_instructions),
                wakeup_ticks=serialized(config.swq.wakeup_instructions),
                wake_busy_ticks=ns(kq.interrupt_ns + kq.kernel_switch_ns),
            )
        return SchedulerCosts(switch_ticks=switch)

    # -- placement -----------------------------------------------------------------

    def ring_addr(self, core: int) -> int:
        """Host-DRAM address of ``core``'s request ring."""
        return _RING_BASE + core * _RING_STRIDE

    def alloc_device(self, core: int, num_bytes: int) -> int:
        """Carve ``num_bytes`` from ``core``'s device partition."""
        line = self.config.cache.line_bytes
        aligned = (num_bytes + line - 1) // line * line
        base = self._device_bumps[core]
        limit = self.map.partition_base(core) + self.map.partition_bytes
        if base + aligned > limit:
            raise ConfigError(
                f"core {core}'s device partition exhausted "
                f"({self.map.partition_bytes} bytes)"
            )
        self._device_bumps[core] = base + aligned
        return base

    def alloc_dram(self, num_bytes: int) -> int:
        """Carve ``num_bytes`` of host DRAM for workload data."""
        line = self.config.cache.line_bytes
        aligned = (num_bytes + line - 1) // line * line
        base = self._dram_bump
        self._dram_bump = base + aligned
        return base

    def alloc_data(self, core: int, num_bytes: int) -> int:
        """Place workload data where the config says it lives: the
        device (measured runs) or host DRAM (the baseline)."""
        if self.config.backing is BackingStore.DRAM:
            return self.alloc_dram(num_bytes)
        return self.alloc_device(core, num_bytes)

    @property
    def data_space(self) -> AddressSpace:
        return (
            AddressSpace.DRAM
            if self.config.backing is BackingStore.DRAM
            else AddressSpace.DEVICE
        )

    # -- threads --------------------------------------------------------------------

    def make_context(self, core_id: int, thread_id: int) -> AccessContext:
        """Build the mechanism's access context for one thread."""
        config = self.config
        core = self.cores[core_id]
        space = self.data_space
        context: AccessContext
        if (
            config.backing is BackingStore.DRAM
            or config.mechanism is AccessMechanism.ON_DEMAND
        ):
            context = OnDemandContext(
                core, thread_id, space, config.threading, world=self.world
            )
        elif config.mechanism is AccessMechanism.PREFETCH:
            context = PrefetchContext(
                core, thread_id, space, config.threading, world=self.world
            )
        else:
            context = None
        if context is not None:
            context.access_latency = self.access_latency
            return context
        response_base = self._alloc_response_buffer()
        common = dict(
            threading_config=config.threading,
            world=self.world,
            swq_config=config.swq,
            queue_pair=self.queue_pairs[core_id],
            doorbell_addr=self.map.doorbell_addr(core_id),
            response_base=response_base,
            line_bytes=config.cache.line_bytes,
        )
        if config.mechanism is AccessMechanism.SOFTWARE_QUEUE:
            context = SoftwareQueueContext(core, thread_id, space, **common)
        else:
            kq = config.kernel_queue
            context = KernelQueueContext(
                core,
                thread_id,
                space,
                syscall_ticks=ns(kq.syscall_ns),
                kernel_switch_ticks=ns(kq.kernel_switch_ns),
                **common,
            )
        context.access_latency = self.access_latency
        return context

    def _alloc_response_buffer(self) -> int:
        line = self.config.cache.line_bytes
        base = self._response_bump
        self._response_bump += MAX_BATCH * line
        return base

    def spawn(self, core_id: int, factory: ThreadFactory) -> UserThread:
        """Create one user thread on ``core_id`` from ``factory``."""
        runtime = self.runtimes[core_id]
        thread_id = len(runtime.threads)
        context = self.make_context(core_id, thread_id)
        return runtime.add_thread(factory(context))

    def spawn_per_core(self, threads_per_core: int, factory) -> None:
        """Spawn ``factory(context, core_id, slot)`` threads uniformly
        across every logical core."""
        for core_id in range(self.logical_cores):
            for slot in range(threads_per_core):
                runtime = self.runtimes[core_id]
                thread_id = len(runtime.threads)
                context = self.make_context(core_id, thread_id)
                runtime.add_thread(factory(context, core_id, slot))

    # -- running ---------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._processes = [runtime.start() for runtime in self.runtimes]

    def run_window(self, warmup_ticks: int, measure_ticks: int) -> WindowStats:
        """Run, then measure work IPC over a steady-state window."""
        self.start()
        self.sim.run(until=self.sim.now + warmup_ticks)
        # The window opens: every probe in the set restarts from zero.
        self.probes.reset()
        if self.spans is not None:
            # Exemplar reservoirs follow the same window discipline as
            # the probes: warmup spans never become exemplars.
            self.spans.reset_window()
        accesses_before = self._total_accesses()
        start = self.sim.now
        self.sim.run(until=start + measure_ticks)
        ticks = self.sim.now - start
        work = self.work_counter.total
        cycles = self.config.cpu.frequency.to_cycles(ticks)
        return WindowStats(
            ticks=ticks,
            work_instructions=work,
            cycles=cycles,
            work_ipc=work / cycles if cycles else 0.0,
            accesses=self._total_accesses() - accesses_before,
        )

    def run_to_completion(self, limit_ticks: Optional[int] = None) -> int:
        """Run until every thread has finished; returns elapsed ticks."""
        self.start()
        done = all_of(self.sim, self._processes)
        if limit_ticks is not None:
            deadline = self.sim.timeout(limit_ticks)
            self.sim.run(any_of(self.sim, [done, deadline]))
            if not done.triggered:
                raise SimulationError(
                    f"workload did not finish within {limit_ticks} ticks"
                )
        else:
            self.sim.run(done)
        return self.sim.now

    def _total_accesses(self) -> int:
        if self.config.backing is BackingStore.DRAM:
            return sum(core.memsys.lfb.fills for core in self.cores)
        return self.device.requests_served

    # -- diagnostics -------------------------------------------------------------------

    def report(self) -> dict:
        """Occupancy / bandwidth diagnostics for tests and benches.

        ``access_latency_ns`` covers the accesses since
        :meth:`run_window` opened the measurement window (since
        construction in a run without one).
        ``pcie_*_bytes``, ``lfb_max_per_core``, ``uncore_*_max``,
        ``context_switches``, ``device_requests`` and
        ``deadline_misses`` come from component-owned counters and
        count from construction, warmup included.
        """
        report = {
            "lfb_max_per_core": [
                core.memsys.lfb.max_in_flight for core in self.cores
            ],
            "uncore_pcie_max": self.uncore.max_occupancy(AddressSpace.DEVICE),
            "uncore_dram_max": self.uncore.max_occupancy(AddressSpace.DRAM),
            "pcie_up_wire_bytes": self.link.upstream.wire_bytes,
            "pcie_up_payload_bytes": self.link.upstream.payload_bytes,
            "pcie_down_wire_bytes": self.link.downstream.wire_bytes,
            "pcie_down_payload_bytes": self.link.downstream.payload_bytes,
            "context_switches": [
                runtime.context_switches for runtime in self.runtimes
            ],
            "device_requests": self.device.requests_served,
            "deadline_misses": self.device.delay.deadline_misses,
            "access_latency_ns": self._latency_report(self.access_latency),
        }
        if self.spans is not None:
            report["attribution"] = self.spans.attribution()
        return report

    @staticmethod
    def _latency_report(stat) -> Optional[dict]:
        """Latency summary in ns, or ``None`` before any sample."""
        if not stat.count:
            return None
        return {
            "count": stat.count,
            "mean": to_ns(stat.mean),
            "p50": to_ns(stat.percentile(50)),
            "p99": to_ns(stat.percentile(99)),
            "p999": to_ns(stat.percentile(99.9)),
            "jitter": to_ns(stat.jitter),
            "max": to_ns(stat.maximum),
        }
