"""Configuration dataclasses for every modeled component.

Defaults correspond to the paper's testbed: a Xeon E5-2670v3 host
(2.3 GHz, 4-wide, ~192-entry ROB, 10 line-fill buffers per core, a
14-entry shared chip-level queue on the PCIe path and a deeper one on
the DRAM path), a PCIe Gen2 x8 link (4 GB/s per direction, 24-byte TLP
headers, ~800 ns round trip) and the FPGA emulator of section IV.

All configs are frozen; deriving a variant goes through
:func:`dataclasses.replace`, so an experiment sweep can never mutate a
shared config underneath another run.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import types
import typing
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.units import Frequency, us

__all__ = [
    "to_jsonable",
    "from_jsonable",
    "stable_digest",
    "AccessMechanism",
    "BackingStore",
    "DeviceAttachment",
    "CpuConfig",
    "CacheConfig",
    "UncoreConfig",
    "PcieConfig",
    "HostDramConfig",
    "OnboardDramConfig",
    "DeviceConfig",
    "SwqConfig",
    "KernelQueueConfig",
    "ThreadingConfig",
    "SystemConfig",
]


class AccessMechanism(enum.Enum):
    """The device access mechanisms studied in section III."""

    #: Plain loads to a memory-mapped device (section III-B, "On-Demand").
    ON_DEMAND = "on-demand"
    #: prefetcht0 + user-level context switch (Listing 1).
    PREFETCH = "prefetch"
    #: Application-managed in-memory descriptor queues (section III-A).
    SOFTWARE_QUEUE = "software-queue"
    #: Kernel-managed queues (syscall + interrupt); reasoned about in
    #: section III-A and shown dominated in an ablation here.
    KERNEL_QUEUE = "kernel-queue"


class BackingStore(enum.Enum):
    """Where the workload's main data structure lives."""

    #: The microsecond-latency emulated device (over PCIe).
    DEVICE = "device"
    #: Host DRAM -- the paper's baseline ("replace the device access
    #: function with a pointer dereference", section IV-C).
    DRAM = "dram"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def to_jsonable(value: object) -> object:
    """A canonical JSON-able form of a config/spec object.

    Frozen config dataclasses, enums, and plain containers reduce to
    primitives deterministically, so the same configuration always
    serializes to the same JSON text -- the property the sweep engine's
    content-addressed result cache is built on.  Unknown types are a
    :class:`~repro.errors.ConfigError` rather than a silent
    ``repr``-based fallback, because a lossy key would let two
    different configurations share a cache entry.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field_.name: to_jsonable(getattr(value, field_.name))
            for field_ in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigError(
        f"cannot canonicalize a {type(value).__name__} for stable hashing"
    )


def from_jsonable(target: object, data: object) -> object:
    """Inverse of :func:`to_jsonable`: rebuild ``target`` from ``data``.

    ``target`` is a type annotation -- a frozen config dataclass, an
    enum, ``Optional[...]`` of either, a ``list``/``tuple`` of them, or
    a JSON primitive type.  This is what lets a sweep worker on another
    host reconstruct an executable job from the JSON description the
    work queue stores (see :mod:`repro.harness.coordinator`): the
    round trip ``from_jsonable(T, to_jsonable(x))`` returns an object
    equal to ``x`` for every config/spec type in the repo.

    Unknown shapes raise :class:`~repro.errors.ConfigError` -- a job
    that cannot be reconstructed faithfully must never execute with
    silently dropped fields, for the same reason :func:`to_jsonable`
    refuses lossy keys.
    """
    origin = typing.get_origin(target)
    if origin is typing.Union or origin is types.UnionType:
        members = [
            member
            for member in typing.get_args(target)
            if member is not type(None)
        ]
        if data is None:
            return None
        if len(members) == 1:
            return from_jsonable(members[0], data)
        raise ConfigError(
            f"cannot reconstruct ambiguous union {target!r}"
        )
    if target is object or target is typing.Any:
        return data
    if origin in (list, tuple) or target in (list, tuple):
        if not isinstance(data, (list, tuple)):
            raise ConfigError(
                f"expected a sequence for {target!r}, got {type(data).__name__}"
            )
        args = typing.get_args(target)
        if origin is tuple or target is tuple:
            if len(args) == 2 and args[1] is Ellipsis:
                item_types = [args[0]] * len(data)
            elif args:
                item_types = list(args)
            else:
                item_types = [object] * len(data)
            return tuple(
                from_jsonable(item_type, item)
                for item_type, item in zip(item_types, data)
            )
        item_type = args[0] if args else object
        return [from_jsonable(item_type, item) for item in data]
    if isinstance(target, type) and issubclass(target, enum.Enum):
        return target(data)
    if dataclasses.is_dataclass(target) and isinstance(target, type):
        if not isinstance(data, dict):
            raise ConfigError(
                f"expected a mapping for {target.__name__}, "
                f"got {type(data).__name__}"
            )
        hints = typing.get_type_hints(target)
        kwargs = {}
        for field_ in dataclasses.fields(target):
            if field_.name in data:
                kwargs[field_.name] = from_jsonable(
                    hints[field_.name], data[field_.name]
                )
        return target(**kwargs)
    if target in (int, float, bool, str) or data is None:
        return data
    raise ConfigError(
        f"cannot reconstruct a {target!r} from JSON data"
    )


def stable_digest(*parts: object) -> str:
    """SHA-256 over the canonical JSON of ``parts`` (stable across
    processes and Python versions, unlike ``hash()``)."""
    payload = json.dumps(
        [to_jsonable(part) for part in parts],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CpuConfig:
    """An approximate out-of-order core (Xeon E5-2670v3 defaults)."""

    frequency_ghz: float = 2.3
    dispatch_width: int = 4
    rob_entries: int = 192
    #: Sustained IPC of the microbenchmark's dependent "work" block
    #: (section IV-C: "limit its IPC to ~1.4 on a 4-wide machine").
    work_ipc: float = 1.4
    #: Macro-op granularity: work blocks dispatch/retire in chunks of
    #: this many instructions (model fidelity knob, not a HW feature).
    work_chunk_instructions: int = 16
    #: Line-fill buffers (MSHRs) per core; tracks outstanding misses
    #: and prefetches.  "All state-of-the-art Xeon server processors
    #: have at most 10 LFBs per core" (section V-B).
    lfb_entries: int = 10
    #: Hardware SMT contexts (the paper disables hyperthreading; an
    #: ablation here re-enables it).
    smt_contexts: int = 1
    #: The hardware stride prefetcher: the paper disables it "to avoid
    #: interference with the software prefetch mechanism" (section
    #: IV-A); enabling it measures that interference
    #: (benchmarks/test_ablation_hw_prefetcher.py).
    hardware_prefetcher: bool = False
    #: Store-buffer entries per core: posted writes retire at dispatch
    #: and drain in the background (section VII: write latency "can be
    #: more easily hidden by later instructions of the same thread").
    store_buffer_entries: int = 42
    #: What a software prefetch does when every LFB is busy: wait in
    #: the reservation station until one frees (False, default -- the
    #: behaviour that yields the paper's flat >10-thread plateau) or
    #: get silently dropped (True, an ablation).
    prefetch_drop_when_full: bool = False

    def __post_init__(self) -> None:
        _require(self.frequency_ghz > 0, "frequency must be positive")
        _require(self.dispatch_width >= 1, "dispatch width must be >= 1")
        _require(self.rob_entries >= 4, "ROB must have at least 4 entries")
        _require(self.work_ipc > 0, "work IPC must be positive")
        _require(self.work_chunk_instructions >= 1, "work chunk must be >= 1")
        _require(self.lfb_entries >= 1, "need at least one line fill buffer")
        _require(self.store_buffer_entries >= 1, "need at least one store buffer entry")
        _require(self.smt_contexts in (1, 2, 4), "SMT contexts must be 1, 2 or 4")

    @property
    def frequency(self) -> Frequency:
        return Frequency(self.frequency_ghz * 1e9)


@dataclass(frozen=True)
class CacheConfig:
    """A single-level (L1) data cache; deeper levels are folded into
    the DRAM latency, which is what the paper's analysis needs."""

    line_bytes: int = 64
    sets: int = 64
    ways: int = 8
    hit_cycles: int = 4

    def __post_init__(self) -> None:
        _require(self.line_bytes >= 8, "line size must be >= 8 bytes")
        _require(self.line_bytes & (self.line_bytes - 1) == 0, "line size power of 2")
        _require(self.sets >= 1 and self.ways >= 1, "cache geometry must be positive")
        _require(self.hit_cycles >= 1, "hit latency must be >= 1 cycle")

    @property
    def capacity_bytes(self) -> int:
        return self.line_bytes * self.sets * self.ways


@dataclass(frozen=True)
class UncoreConfig:
    """Shared on-chip queues between the cores and the I/O / memory
    controllers.

    The paper measured a maximum of 14 simultaneous accesses on the
    PCIe path ("we have experimentally verified that the maximum
    occupancy of this queue is 14") and at least 48 on the DRAM path
    (section V-B).
    """

    pcie_queue_entries: int = 14
    dram_queue_entries: int = 48
    #: One-way latency between a core's L1 miss path and the edge of
    #: the chip (ring hop + controller), charged each direction.
    hop_ns: float = 10.0

    def __post_init__(self) -> None:
        _require(self.pcie_queue_entries >= 1, "PCIe-path queue must be >= 1")
        _require(self.dram_queue_entries >= 1, "DRAM-path queue must be >= 1")
        _require(self.hop_ns >= 0, "hop latency cannot be negative")


@dataclass(frozen=True)
class PcieConfig:
    """PCIe Gen2 x8: 4 GB/s per direction, 24-byte TLP overhead."""

    bandwidth_bytes_per_s: float = 4e9
    header_bytes: int = 24
    #: One-way propagation (switch + PHY) excluding serialization; the
    #: default yields the paper's ~800 ns round trip for a 64-byte read.
    propagation_ns: float = 385.0
    #: Maximum TLP payload; larger transfers split into multiple TLPs.
    max_payload_bytes: int = 256

    def __post_init__(self) -> None:
        _require(self.bandwidth_bytes_per_s > 0, "bandwidth must be positive")
        _require(self.header_bytes >= 0, "header bytes cannot be negative")
        _require(self.propagation_ns >= 0, "propagation cannot be negative")
        _require(self.max_payload_bytes >= 64, "max payload must be >= 64")


@dataclass(frozen=True)
class HostDramConfig:
    """Host DDR4: the baseline store and the home of SWQ rings.

    The latency is the full random-access path (L1 miss through L2/L3
    lookups to the DRAM array and back), which measures ~100 ns on the
    paper's Haswell generation.
    """

    latency_ns: float = 100.0
    bandwidth_bytes_per_s: float = 25.6e9

    def __post_init__(self) -> None:
        _require(self.latency_ns > 0, "DRAM latency must be positive")
        _require(self.bandwidth_bytes_per_s > 0, "DRAM bandwidth must be positive")


@dataclass(frozen=True)
class OnboardDramConfig:
    """The FPGA's on-board DDR3-800: high latency, low bandwidth.

    Slow enough that on-demand emulation from it would throttle the
    experiment -- the reason the paper built the replay mechanism
    (section IV-A).
    """

    latency_ns: float = 200.0
    bandwidth_bytes_per_s: float = 6.4e9
    #: Replay prefetch FIFO depth (lines streamed ahead of the host).
    stream_depth_lines: int = 64
    #: Trace entries fetched per bulk on-board DRAM read ("the
    #: prerecorded sequence is continuously streamed using bulk
    #: on-board DRAM accesses", section IV-A).  Bulk reads amortize the
    #: DRAM access latency; without them the stream cannot keep up.
    stream_burst_entries: int = 16

    def __post_init__(self) -> None:
        _require(self.latency_ns > 0, "on-board DRAM latency must be positive")
        _require(self.bandwidth_bytes_per_s > 0, "bandwidth must be positive")
        _require(self.stream_depth_lines >= 1, "stream depth must be >= 1")
        _require(self.stream_burst_entries >= 1, "stream burst must be >= 1")


class DeviceAttachment(enum.Enum):
    """Which interconnect the device sits on.

    The paper's evaluation uses PCIe; its implications section suggests
    the memory interconnect instead: "shared hardware queues on the
    DRAM access path are larger than on the PCIe path -- therefore,
    integrating microsecond-latency devices on the memory interconnect
    ... may be a step in the right direction" (section V-B).
    """

    #: PCIe Gen2 x8, behind the 14-entry chip-level queue (the paper's
    #: testbed).
    PCIE = "pcie"
    #: Attached like a DRAM channel (QPI/DDR-style): deeper shared
    #: queues, no TLP overhead.
    MEMORY_BUS = "memory-bus"


@dataclass(frozen=True)
class DeviceConfig:
    """The emulated microsecond-latency storage device."""

    #: Target end-to-end latency of an uncontended cache-line read,
    #: from the load leaving the core to data arriving back.  The paper
    #: configures the FPGA delay to include the PCIe round trip; we do
    #: the same (the delay module subtracts the modeled path latency).
    total_latency_us: float = 1.0
    attachment: DeviceAttachment = DeviceAttachment.PCIE
    #: Sliding-window size of the replay module's associative lookup.
    replay_window: int = 64
    #: Exposed BAR size (per-core partitions are carved out of this).
    bar_bytes: int = 1 << 32

    def __post_init__(self) -> None:
        _require(self.total_latency_us > 0, "device latency must be positive")
        _require(self.replay_window >= 1, "replay window must be >= 1")
        _require(self.bar_bytes >= 1 << 20, "BAR must be at least 1 MiB")

    @property
    def total_latency_ticks(self) -> int:
        return us(self.total_latency_us)


@dataclass(frozen=True)
class SwqConfig:
    """Application-managed software queue parameters (sections III-A,
    IV-A): descriptor rings in host memory, per-core doorbells, burst
    descriptor fetch, and a doorbell-request flag."""

    descriptor_bytes: int = 16
    completion_bytes: int = 16
    ring_entries: int = 256
    #: Device fetches descriptors in bursts of this many (paper: 8).
    fetch_burst: int = 8
    #: Outstanding burst DMA reads the fetcher keeps in flight ("the
    #: request fetcher continuously performs DMA reads of the request
    #: queue", section IV-A): pipelining hides the PCIe round trip of
    #: descriptor fetches.
    fetch_pipeline: int = 2
    #: Enable the doorbell-request-flag optimization (the fetcher keeps
    #: reading until the ring is empty; the host rings again only when
    #: the flag is set).  The paper found designs without it strictly
    #: inferior; an ablation here shows why.
    doorbell_flag: bool = True
    #: Enable burst descriptor reads (vs one descriptor per DMA read).
    burst_reads: bool = True
    #: Software cost of enqueuing a request: descriptor build + store,
    #: write fence, ring-index update, doorbell-flag check.  Serialized
    #: code; see ThreadingConfig.overhead_ipc.  Calibrated so the
    #: mechanism's single-core peak is ~50% of the DRAM baseline at
    #: MLP 1 (Figure 7).
    enqueue_instructions: int = 190
    #: Marginal cost of each additional descriptor enqueued in the same
    #: batch (the fence, index update, and flag check amortize --
    #: "even when the accesses are batched before a context switch" the
    #: overhead still "increases with the number of device accesses",
    #: section V-C).
    enqueue_batch_instructions: int = 50
    #: Software cost of consuming one completion entry (scan + match).
    completion_instructions: int = 45
    #: Software cost of waking the blocked thread once its batch of
    #: completions is in (ready-queue insertion, state restore).
    wakeup_instructions: int = 130
    #: Software cost of one empty poll of the completion queue.
    poll_instructions: int = 45
    #: Core-visible cost of an uncached MMIO doorbell write.
    doorbell_ns: float = 60.0

    def __post_init__(self) -> None:
        _require(self.descriptor_bytes >= 8, "descriptor must be >= 8 bytes")
        _require(self.completion_bytes >= 4, "completion must be >= 4 bytes")
        _require(self.ring_entries >= 2, "ring must have >= 2 entries")
        _require(self.ring_entries & (self.ring_entries - 1) == 0, "ring power of 2")
        _require(self.fetch_burst >= 1, "fetch burst must be >= 1")
        _require(self.fetch_pipeline >= 1, "fetch pipeline must be >= 1")
        _require(self.enqueue_instructions >= 0, "costs cannot be negative")
        _require(self.enqueue_batch_instructions >= 0, "costs cannot be negative")
        _require(self.completion_instructions >= 0, "costs cannot be negative")
        _require(self.wakeup_instructions >= 0, "costs cannot be negative")
        _require(self.poll_instructions >= 0, "costs cannot be negative")
        _require(self.doorbell_ns >= 0, "doorbell cost cannot be negative")


@dataclass(frozen=True)
class KernelQueueConfig:
    """Kernel-managed queues: syscall, kernel context switch, interrupt.

    The paper (section III-A) estimates tens of microseconds per access
    and drops the mechanism from evaluation; we keep it for the
    ablation bench.
    """

    syscall_ns: float = 500.0
    kernel_switch_ns: float = 2000.0
    interrupt_ns: float = 1500.0

    def __post_init__(self) -> None:
        _require(self.syscall_ns >= 0, "costs cannot be negative")
        _require(self.kernel_switch_ns >= 0, "costs cannot be negative")
        _require(self.interrupt_ns >= 0, "costs cannot be negative")


@dataclass(frozen=True)
class ThreadingConfig:
    """The user-level threading runtime (modified GNU Pth, IV-B)."""

    #: Cost of one user-mode context switch including scheduler work.
    #: "We were able to reduce the context switch overheads ... to
    #: 20-50 nanoseconds" (section IV-B).
    context_switch_ns: float = 35.0
    #: Instructions charged for issuing one prefetch + the access-API
    #: call overhead around it.
    access_call_instructions: int = 6
    #: Sustained IPC of runtime/queue-management code.  Unlike the
    #: microbenchmark's tuned work loop (1.4 on a 4-wide core),
    #: protocol code is serialized by fences, dependent loads, and
    #: branches, so it executes near one instruction per cycle.
    overhead_ipc: float = 1.0

    def __post_init__(self) -> None:
        _require(self.context_switch_ns >= 0, "switch cost cannot be negative")
        _require(self.access_call_instructions >= 0, "cost cannot be negative")
        _require(self.overhead_ipc > 0, "overhead IPC must be positive")


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a complete simulated platform."""

    cores: int = 1
    threads_per_core: int = 1
    mechanism: AccessMechanism = AccessMechanism.ON_DEMAND
    backing: BackingStore = BackingStore.DEVICE
    cpu: CpuConfig = field(default_factory=CpuConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    uncore: UncoreConfig = field(default_factory=UncoreConfig)
    pcie: PcieConfig = field(default_factory=PcieConfig)
    host_dram: HostDramConfig = field(default_factory=HostDramConfig)
    onboard_dram: OnboardDramConfig = field(default_factory=OnboardDramConfig)
    device: DeviceConfig = field(default_factory=DeviceConfig)
    swq: SwqConfig = field(default_factory=SwqConfig)
    kernel_queue: KernelQueueConfig = field(default_factory=KernelQueueConfig)
    threading: ThreadingConfig = field(default_factory=ThreadingConfig)

    def __post_init__(self) -> None:
        _require(self.cores >= 1, "need at least one core")
        _require(self.threads_per_core >= 1, "need at least one thread per core")
        if self.backing is BackingStore.DRAM:
            _require(
                self.mechanism is AccessMechanism.ON_DEMAND,
                "the DRAM baseline uses plain on-demand loads "
                "(the paper replaces dev_access with a pointer dereference)",
            )

    def replace(self, **changes: object) -> "SystemConfig":
        """Return a copy with ``changes`` applied (sweep helper)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary for logs and reports."""
        lat = self.device.total_latency_us
        return (
            f"{self.mechanism.value} x{self.cores}core x{self.threads_per_core}thr "
            f"{'DRAM' if self.backing is BackingStore.DRAM else f'{lat:g}us device'}"
        )
