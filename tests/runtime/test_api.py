"""Unit tests for the mechanism-specific access contexts."""

import pytest

from repro.config import (
    AccessMechanism,
    BackingStore,
    DeviceConfig,
    SwqConfig,
    SystemConfig,
)
from repro.host.system import System
from repro.units import ns, to_ns


def build(mechanism, backing=BackingStore.DEVICE, **overrides):
    config = SystemConfig(mechanism=mechanism, backing=backing, **overrides)
    return System(config)


def run_thread(system, body_factory):
    handle = system.spawn(0, body_factory)
    system.run_to_completion(limit_ticks=10**10)
    return handle.result


def test_read_returns_stored_word_on_every_mechanism():
    for mechanism in AccessMechanism:
        system = build(mechanism)
        addr = system.alloc_data(0, 64) + 16
        system.world.write_word(addr, 0xABCD)

        def factory(ctx):
            def body():
                value = yield from ctx.read(addr)
                return value
            return body()

        assert run_thread(system, factory) == 0xABCD, mechanism


def test_read_batch_returns_values_in_request_order():
    system = build(AccessMechanism.PREFETCH)
    base = system.alloc_data(0, 4 * 64)
    addrs = [base + i * 64 for i in range(4)]
    for i, addr in enumerate(addrs):
        system.world.write_word(addr, 100 + i)

    def factory(ctx):
        def body():
            values = yield from ctx.read_batch(addrs)
            return values
        return body()

    assert run_thread(system, factory) == [100, 101, 102, 103]


def test_swq_batch_with_duplicate_addresses():
    """Bloom probes can hash two probes into one word."""
    system = build(AccessMechanism.SOFTWARE_QUEUE)
    addr = system.alloc_data(0, 64)
    system.world.write_word(addr, 5)

    def factory(ctx):
        def body():
            values = yield from ctx.read_batch([addr, addr, addr + 8])
            return values
        return body()

    assert run_thread(system, factory) == [5, 5, 0]


def test_work_after_tokens_waits_for_data():
    system = build(AccessMechanism.PREFETCH, device=DeviceConfig(total_latency_us=2.0))

    def factory(ctx):
        def body():
            addr = 1 << 40  # device base
            tokens = yield from ctx.read_batch_async([addr])
            done = yield from ctx.work(50, after=tokens)
            yield done
            return to_ns(ctx.core.sim.now)
        return body()

    finished = run_thread(system, factory)
    assert finished >= 2000  # the 2 us access gated the work


def test_swq_async_returns_no_tokens_but_data_present():
    system = build(AccessMechanism.SOFTWARE_QUEUE)
    addr = system.alloc_data(0, 64)

    def factory(ctx):
        def body():
            tokens = yield from ctx.read_batch_async([addr])
            return tokens
        return body()

    assert run_thread(system, factory) == []


def test_swq_doorbell_rung_only_when_flagged():
    system = build(AccessMechanism.SOFTWARE_QUEUE, threads_per_core=4)
    base = system.alloc_data(0, 64 * 64)

    def factory(ctx):
        def body():
            for i in range(8):
                yield from ctx.read(base + (ctx.thread_id * 8 + i) * 64 + 0)
            return None
        return body()

    for _ in range(4):
        system.spawn(0, factory)
    system.run_to_completion(limit_ticks=10**11)
    qp = system.queue_pairs[0]
    # 32 accesses but far fewer doorbells: the doorbell-request flag
    # keeps the fetcher running while the ring refills.
    assert qp.descriptors_enqueued == 32
    assert qp.doorbells_rung < 32


def test_swq_without_flag_rings_every_time():
    system = build(
        AccessMechanism.SOFTWARE_QUEUE,
        swq=SwqConfig(doorbell_flag=False),
    )
    base = system.alloc_data(0, 64 * 16)

    def factory(ctx):
        def body():
            for i in range(8):
                yield from ctx.read(base + i * 64)
            return None
        return body()

    system.spawn(0, factory)
    system.run_to_completion(limit_ticks=10**11)
    assert system.queue_pairs[0].doorbells_rung == 8


def test_kernel_queue_charges_microseconds():
    fast = build(AccessMechanism.SOFTWARE_QUEUE)
    slow = build(AccessMechanism.KERNEL_QUEUE)

    def factory(ctx):
        def body():
            yield from ctx.read(1 << 40)
            return to_ns(ctx.core.sim.now)
        return body()

    swq_ns = run_thread(fast, factory)
    kq_ns = run_thread(slow, factory)
    assert kq_ns > swq_ns + 3000  # syscall + switches + interrupt


def test_local_work_not_counted_as_work():
    system = build(AccessMechanism.PREFETCH)

    def factory(ctx):
        def body():
            yield from ctx.local_work(64)
            yield from ctx.work(32)
            done = yield from ctx.work(0)
            yield done
            return None
        return body()

    run_thread(system, factory)
    system.sim.run()
    assert system.work_counter.total == 32


def test_software_cost_scales_with_overhead_ipc():
    from repro.config import ThreadingConfig

    slow = build(
        AccessMechanism.PREFETCH,
        threading=ThreadingConfig(overhead_ipc=0.5, context_switch_ns=0),
    )
    fast = build(
        AccessMechanism.PREFETCH,
        threading=ThreadingConfig(overhead_ipc=2.0, context_switch_ns=0),
    )

    def factory(ctx):
        def body():
            yield from ctx.software_cost(460)
            return ctx.core.sim.now
        return body()

    assert run_thread(slow, factory) == 4 * run_thread(fast, factory)


def test_swq_oversized_batch_rejected():
    from repro.errors import ProtocolError

    system = build(AccessMechanism.SOFTWARE_QUEUE)
    base = system.alloc_data(0, 64 * 16)

    def factory(ctx):
        def body():
            yield from ctx.read_batch([base + i * 64 for i in range(9)])
        return body()

    system.spawn(0, factory)
    with pytest.raises(ProtocolError, match="response buffer"):
        system.run_to_completion(limit_ticks=10**10)


def test_swq_full_ring_backpressures_instead_of_crashing():
    """An oversubscribed ring makes producers spin, not overflow."""
    from repro.config import SwqConfig

    system = build(
        AccessMechanism.SOFTWARE_QUEUE,
        threads_per_core=8,
        swq=SwqConfig(ring_entries=4),
    )
    base = system.alloc_data(0, 64 * 256)

    def factory(ctx):
        def body():
            for i in range(4):
                yield from ctx.read(
                    base + (ctx.thread_id * 16 + i) * 64
                )
            return None
        return body()

    for _ in range(8):
        system.spawn(0, factory)
    system.run_to_completion(limit_ticks=10**11)
    assert system.device.requests_served == 32
    assert system.queue_pairs[0].max_request_depth <= 4
