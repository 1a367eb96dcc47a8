"""Open-loop load generation: arrivals, key popularity, service wiring.

The paper validates SWQ-style queueing with *closed-loop* threads: each
thread issues its next access only after the previous one returns, so
offered load collapses exactly when the system slows down -- the
coordinated-omission blind spot.  Service-scale tail-latency questions
(ROADMAP item 2) need the opposite: an **open-loop** generator whose
requests arrive on a simulated timeline *regardless of completion*,
queue at the host, and record end-to-end sojourn time (arrival to
response), the quantity SLOs are written against.

Everything here is deterministic and seeded via the repo's splitmix64
hash family (:mod:`repro.workloads.hashing`): a stream is a pure
function of (seed, index), so arrival and key sequences are
bit-identical across runs, across ``--jobs`` settings, and across
chunked consumption.

Three layers:

* **streams** -- :class:`UniformStream` (unit doubles from counter
  hashing), :func:`arrival_gaps` (Poisson / two-state MMPP interarrival
  ticks), :class:`ZipfianKeys` (YCSB-style scrambled Zipfian, theta=0
  degenerating to uniform);
* **specs** -- frozen dataclasses (:class:`ArrivalSpec`,
  :class:`KeySpec`, :class:`OpenLoopSpec`) that are content-addressable
  by :func:`repro.config.stable_digest` for the sweep cache;
* **wiring** -- :func:`install_service` builds per-core
  :class:`~repro.workloads.memcached.KvStore` instances, spawns
  spin-polling worker threads, and launches one off-core arrival
  injector process per core (arrivals never consume core cycles:
  they model network ingress).
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, Optional

from repro.errors import ConfigError
from repro.host.system import System
from repro.runtime.api import AccessContext
from repro.sim.trace import TimeWeighted
from repro.units import US
from repro.workloads.hashing import hash_with_seed
from repro.workloads.memcached import KvStore, MemcachedParams

__all__ = [
    "ArrivalKind",
    "ArrivalSpec",
    "KeySpec",
    "OpenLoopSpec",
    "UniformStream",
    "ZipfianKeys",
    "arrival_gaps",
    "Request",
    "ServiceState",
    "install_service",
]

#: 53-bit mantissa scale for unit-interval doubles.
_UNIT_SCALE = float(1 << 53)


class UniformStream:
    """Deterministic unit-interval doubles from counter hashing.

    ``value(i)`` is a pure function of ``(seed, i)``, so the stream has
    random access and chunk-invariant sequential reads: consuming 100
    values then 100 more yields exactly the first 200.
    """

    __slots__ = ("seed", "index")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.index = 0

    def value_at(self, index: int) -> float:
        """The ``index``-th draw, in (0, 1] (never 0: safe for log)."""
        bits = hash_with_seed(index, self.seed) >> 11
        return (bits + 1) / _UNIT_SCALE

    def next_unit(self) -> float:
        value = self.value_at(self.index)
        self.index += 1
        return value

    def next_exponential(self, mean: float) -> float:
        """An Exp(1/mean) draw via inversion sampling."""
        return -mean * math.log(self.next_unit())


class ArrivalKind(enum.Enum):
    """Supported open-loop interarrival processes."""

    POISSON = "poisson"
    MMPP = "mmpp"


@dataclass(frozen=True)
class ArrivalSpec:
    """One core's offered-load process.

    ``rate_per_us`` is the *mean* offered load in requests per
    microsecond per core for both kinds; the MMPP parameters shape its
    burstiness around that mean.  The two-state MMPP spends
    ``burst_fraction`` of the time in a burst state whose rate is
    ``burst_ratio`` times the quiet state's, with exponentially
    distributed state dwells (mean ``mean_dwell_us`` in the burst
    state), so the long-run mean equals ``rate_per_us`` exactly.
    """

    kind: ArrivalKind = ArrivalKind.POISSON
    rate_per_us: float = 1.0
    burst_ratio: float = 8.0
    burst_fraction: float = 0.1
    mean_dwell_us: float = 20.0

    def __post_init__(self) -> None:
        if not self.rate_per_us > 0:
            raise ConfigError("offered load must be positive")
        if self.kind is ArrivalKind.MMPP:
            if self.burst_ratio < 1:
                raise ConfigError("burst ratio must be >= 1")
            if not 0 < self.burst_fraction < 1:
                raise ConfigError("burst fraction must be in (0, 1)")
            if not self.mean_dwell_us > 0:
                raise ConfigError("mean burst dwell must be positive")

    @property
    def mean_gap_ticks(self) -> float:
        return US / self.rate_per_us


@dataclass(frozen=True)
class KeySpec:
    """Key popularity over the populated key space."""

    items: int = 2048
    #: Zipfian skew; 0 selects the uniform distribution.  The YCSB
    #: generator's closed form requires theta < 1 (theta ~ 0.99 is the
    #: classic "hot keys" setting).
    theta: float = 0.0

    def __post_init__(self) -> None:
        if self.items < 1:
            raise ConfigError("key space must be non-empty")
        if not 0 <= self.theta < 1:
            raise ConfigError("zipfian theta must be in [0, 1)")


@dataclass(frozen=True)
class OpenLoopSpec:
    """A full open-loop service workload: arrivals, keys, seed."""

    arrivals: ArrivalSpec = ArrivalSpec()
    keys: KeySpec = KeySpec()
    seed: int = 1


def arrival_gaps(spec: ArrivalSpec, seed: int) -> Iterator[int]:
    """Infinite interarrival-tick stream for one core (ticks >= 1).

    Poisson: i.i.d. exponential gaps.  MMPP: exponential gaps at the
    current state's rate; when a gap would cross the (exponentially
    distributed) state-switch boundary the clock advances to the
    boundary and the gap is redrawn at the new rate -- valid because
    the exponential is memoryless, and what makes the modulated
    process's mean exact.
    """
    stream = UniformStream(seed)
    if spec.kind is ArrivalKind.POISSON:
        mean = spec.mean_gap_ticks
        while True:
            yield max(1, round(stream.next_exponential(mean)))
        # -- not reached --
    # Two-state MMPP around the requested mean rate.
    ratio = spec.burst_ratio
    fraction = spec.burst_fraction
    quiet_rate = spec.rate_per_us / ((1 - fraction) + fraction * ratio)
    rates = (quiet_rate, quiet_rate * ratio)  # requests per us
    dwell_means = (
        spec.mean_dwell_us * US * (1 - fraction) / fraction,
        spec.mean_dwell_us * US,
    )
    state = 0
    now = 0.0
    switch_at = now + stream.next_exponential(dwell_means[state])
    last_emit = 0.0
    while True:
        gap = stream.next_exponential(US / rates[state])
        while now + gap >= switch_at:
            # Advance to the boundary, flip state, redraw (memoryless).
            now = switch_at
            state = 1 - state
            switch_at = now + stream.next_exponential(dwell_means[state])
            gap = stream.next_exponential(US / rates[state])
        now += gap
        ticks = max(1, round(now - last_emit))
        last_emit += ticks
        yield ticks


class ZipfianKeys:
    """Scrambled Zipfian key stream (Gray et al., as popularized by
    YCSB): rank ``r`` has popularity proportional to ``1/(r+1)^theta``,
    and ranks are scattered over the key space by hashing so hot keys
    do not cluster in one hash-table region.  ``theta=0`` is uniform.
    """

    __slots__ = (
        "items", "theta", "_stream",
        "_alpha", "_zetan", "_eta", "_half_pow",
    )

    def __init__(self, spec: KeySpec, seed: int) -> None:
        self.items = spec.items
        self.theta = spec.theta
        self._stream = UniformStream(seed)
        if self.theta:
            n = self.items
            theta = self.theta
            self._zetan = sum(1.0 / (i + 1) ** theta for i in range(n))
            zeta2 = 1.0 + 0.5**theta if n >= 2 else self._zetan
            self._alpha = 1.0 / (1.0 - theta)
            self._eta = (1 - (2.0 / n) ** (1 - theta)) / (
                1 - zeta2 / self._zetan
            )
            self._half_pow = 1.0 + 0.5**theta

    def next_key(self) -> int:
        unit = self._stream.next_unit()
        if not self.theta:
            # Uniform: the rank is already a uniform key; scrambling
            # would only introduce hash-collision lumpiness.
            return min(self.items - 1, int(unit * self.items))
        else:
            scaled = unit * self._zetan
            if scaled < 1.0 or self.items == 1:
                rank = 0
            elif scaled < self._half_pow:
                rank = 1
            else:
                rank = int(
                    self.items * (self._eta * unit - self._eta + 1) ** self._alpha
                )
                rank = min(self.items - 1, rank)
        # Scramble: spread popular ranks across the key space.
        return hash_with_seed(rank, self._stream.seed ^ 0x5CA1AB1E) % self.items


# -- service wiring -----------------------------------------------------------


@dataclass
class Request:
    """One in-flight GET request on the open-loop timeline."""

    key: int
    arrived_at: int
    started_at: int = -1
    finished_at: int = -1
    value: Optional[list] = None
    #: Attribution span (:class:`repro.obs.spans.RequestSpan`) when the
    #: service runs with a span ledger; ``None`` otherwise.
    span: Optional[object] = None


#: Seed-space offsets separating a core's arrival stream from its key
#: stream (arbitrary odd constants, fixed forever for reproducibility).
_ARRIVAL_STREAM = 0x0A441AAF
_KEY_STREAM = 0x1CEB00DA


def _core_seed(base_seed: int, core_id: int, stream: int) -> int:
    return hash_with_seed(core_id, base_seed ^ stream)


class ServiceState:
    """Live state of an installed open-loop service."""

    def __init__(
        self, system: System, spec: OpenLoopSpec, spans=None
    ) -> None:
        self.system = system
        self.spec = spec
        #: Attribution ledger (:class:`repro.obs.spans.SpanLedger`) or
        #: ``None``; every emission below is guarded on a local so the
        #: disabled path costs one attribute load per transition.
        self.spans = spans
        probes = system.probes
        #: End-to-end sojourn (arrival to response): the SLO metric.
        self.sojourn = probes.latency("service-sojourn")
        #: Host-queue wait (arrival to service start).
        self.queue_wait = probes.latency("service-wait")
        self.arrivals = probes.counter("service-arrivals")
        self.completions = probes.counter("service-completions")
        #: Host-queue depth over the whole run, warmup included.
        self.queue_depth = TimeWeighted("service-queue-depth")
        self.queues: list[Deque[Request]] = [
            deque() for _ in range(system.logical_cores)
        ]
        self.completed: list[Request] = []
        self._pending = 0

    @property
    def pending(self) -> int:
        return self._pending

    def _note_depth(self) -> None:
        now = self.system.sim.now
        self.queue_depth.update(now, self._pending)
        tracer = self.system.tracer
        if tracer is not None:
            from repro.obs import PID_SERVICE

            tracer.counter(
                "service",
                PID_SERVICE,
                "host-queue",
                now,
                {"pending": self._pending},
            )

    def enqueue(self, core_id: int, request: Request) -> None:
        spans = self.spans
        if spans is not None:
            request.span = spans.open(request.key, core_id, request.arrived_at)
        self.queues[core_id].append(request)
        self.arrivals.add()
        self._pending += 1
        self._note_depth()

    def begin_service(self, core_id: int) -> Optional[Request]:
        queue = self.queues[core_id]
        if not queue:
            return None
        request = queue.popleft()
        request.started_at = self.system.sim.now
        span = request.span
        if span is not None:
            # Worker pickup: host-queue wait ends, on-core service
            # time begins.
            span.mark("work", request.started_at)
        self.queue_wait.record(request.started_at - request.arrived_at)
        self._pending -= 1
        self._note_depth()
        return request

    def finish(self, core_id: int, request: Request) -> None:
        request.finished_at = self.system.sim.now
        spans = self.spans
        if spans is not None:
            spans.close(request.span, request.finished_at)
        self.sojourn.record(request.finished_at - request.arrived_at)
        self.completions.add()
        self.completed.append(request)
        tracer = self.system.tracer
        if tracer is not None:
            from repro.obs import PID_SERVICE

            tracer.complete(
                "service",
                PID_SERVICE,
                core_id + 1,
                "get",
                request.arrived_at,
                request.finished_at,
                args={
                    "key": request.key,
                    "wait_ticks": request.started_at - request.arrived_at,
                },
            )


def _injector(system: System, state: ServiceState, core_id: int):
    """Off-core arrival process: requests land on the simulated
    timeline whether or not the host keeps up (the open loop)."""
    sim = system.sim
    spec = state.spec
    gaps = arrival_gaps(
        spec.arrivals, _core_seed(spec.seed, core_id, _ARRIVAL_STREAM)
    )
    keys = ZipfianKeys(spec.keys, _core_seed(spec.seed, core_id, _KEY_STREAM))
    while True:
        yield sim.timeout(next(gaps))
        state.enqueue(core_id, Request(key=keys.next_key(), arrived_at=sim.now))


def _service_worker(
    ctx: AccessContext, store: KvStore, state: ServiceState, core_id: int
):
    """One worker uthread: poll the host queue, serve GETs forever.

    Idle workers spin-yield (each yield charges the context-switch
    cost), modeling a polling service loop; they must *not* block on a
    hardware event, which would stall the whole core.
    """
    params = store.params
    while True:
        request = state.begin_service(core_id)
        if request is None:
            yield from ctx.yield_control()
            continue
        # Point the context's span cursor at this request so the
        # mechanism paths stamp layer transitions into it (each worker
        # serves one request at a time, so the slot is exclusive).
        ctx.span = request.span
        request.value = yield from store.get(ctx, request.key)
        yield from ctx.work(params.work_count)
        ctx.span = None
        state.finish(core_id, request)


def install_service(
    system: System,
    params: MemcachedParams,
    spec: OpenLoopSpec,
    workers_per_core: int,
    spans=None,
) -> ServiceState:
    """Wire the open-loop memcached service into ``system``.

    Builds one populated :class:`KvStore` per logical core, spawns
    ``workers_per_core`` polling worker threads per core, and launches
    one arrival-injector kernel process per core.  The injectors run
    off-core: arrival timing models network ingress and consumes no
    core cycles, so the offered load is independent of service rate.

    ``spans`` (a :class:`repro.obs.spans.SpanLedger`) enables
    per-request latency attribution; it is also hung on the system so
    ``System.report()`` and the registry export the attribution table.
    """
    if workers_per_core < 1:
        raise ConfigError("need at least one service worker per core")
    if spec.keys.items > params.items:
        raise ConfigError(
            "key popularity space exceeds the populated store "
            f"({spec.keys.items} > {params.items})"
        )
    if spans is not None:
        system.spans = spans
    state = ServiceState(system, spec, spans=spans)
    stores: dict[int, KvStore] = {}

    def factory(ctx: AccessContext, core_id: int, slot: int):
        if core_id not in stores:
            base = system.alloc_data(core_id, KvStore.size_bytes(params))
            store = KvStore(params, base, system.world)
            store.populate(range(params.items))
            stores[core_id] = store
        return _service_worker(ctx, stores[core_id], state, core_id)

    system.spawn_per_core(workers_per_core, factory)
    for core_id in range(system.logical_cores):
        system.sim.process(
            _injector(system, state, core_id), name=f"loadgen-core{core_id}"
        )
    tracer = system.tracer
    if tracer is not None:
        from repro.obs import PID_SERVICE

        tracer.process_name(PID_SERVICE, "service")
        for core_id in range(system.logical_cores):
            tracer.thread_name(PID_SERVICE, core_id + 1, f"core{core_id} queue")
    # Anchor the depth probe at time zero so idle spans count.
    state.queue_depth.update(system.sim.now, 0.0)
    return state
