"""Additional edge-case tests for the core model."""

import pytest

from repro.config import CacheConfig, CpuConfig, UncoreConfig
from repro.cpu import AddressSpace, CoreMemorySystem, OutOfOrderCore, Uncore
from repro.sim import Resource, Simulator
from repro.sim.trace import Counter
from repro.testing import FixedLatencyTarget
from repro.units import ns


def build(sim, width=4, chunk=16, rob=192, ipc=1.0, front_end=None):
    config = CpuConfig(
        frequency_ghz=1.0,
        dispatch_width=width,
        rob_entries=rob,
        work_ipc=ipc,
        work_chunk_instructions=chunk,
    )
    uncore = Uncore(sim, UncoreConfig(hop_ns=0.0))
    uncore.attach_target(AddressSpace.DEVICE, FixedLatencyTarget(sim, ns(500)))
    uncore.attach_target(AddressSpace.DRAM, FixedLatencyTarget(sim, ns(80)))
    memsys = CoreMemorySystem(sim, 0, CacheConfig(), 10, uncore, config.frequency)
    return OutOfOrderCore(
        sim, 0, config, memsys, Counter("w"), front_end=front_end
    )


def run(sim, gen):
    return sim.run(sim.process(gen))


def test_dispatch_width_paces_the_front_end():
    def dispatch_time(width):
        sim = Simulator()
        core = build(sim, width=width)

        def body():
            yield from core.dispatch_work(64)
            return sim.now

        return run(sim, body())

    # Halving the width doubles front-end dispatch time.
    assert dispatch_time(2) == 2 * dispatch_time(4)


def test_non_chunk_multiple_work_count():
    sim = Simulator()
    core = build(sim, chunk=16)

    def body():
        done = yield from core.dispatch_work(37)  # 16 + 16 + 5
        yield done

    run(sim, body())
    sim.run()
    assert core.instructions.total == 37


def test_work_chunks_execute_back_to_back_at_ipc():
    sim = Simulator()
    core = build(sim, ipc=2.0, chunk=10)

    def body():
        done = yield from core.dispatch_work(40)
        yield done
        return sim.now

    finished = run(sim, body())
    # Dispatch of the first chunk (10/4 = 2.5 -> 3 ns) + 40/2.0 = 20 ns.
    assert finished == pytest.approx(ns(23), abs=ns(2))


def test_multiple_dependencies_gate_first_chunk():
    sim = Simulator()
    core = build(sim)
    slow = sim.timeout(ns(300))
    slower = sim.timeout(ns(700))

    def body():
        done = yield from core.dispatch_work(16, deps=[slow, slower])
        yield done
        return sim.now

    # Execution starts at the LAST dependency.
    assert run(sim, body()) == ns(700 + 16)


def test_wait_data_on_already_completed_load_is_instant():
    sim = Simulator()
    core = build(sim)

    def body():
        token = yield from core.issue_load(0x40, AddressSpace.DEVICE)
        yield sim.timeout(ns(2000))  # let it complete
        before = sim.now
        yield from core.wait_data(token)
        return sim.now - before

    assert run(sim, body()) == 0


def test_independent_work_blocks_execute_concurrently():
    """Two dep-free blocks from the same front end overlap execution."""
    sim = Simulator()
    core = build(sim, ipc=1.0, chunk=64)

    def body():
        first = yield from core.dispatch_work(64)
        second = yield from core.dispatch_work(64)
        yield first
        yield second
        return sim.now

    finished = run(sim, body())
    # Serial execution would be 128 ns; overlap brings it near
    # 64 ns + dispatch time (2 x 16 ns).
    assert finished < ns(100)


def test_rob_caps_total_in_flight_instructions():
    sim = Simulator()
    core = build(sim, rob=32, chunk=8)
    gate = sim.event()

    def body():
        # Everything depends on the gate: dispatch must stop at 32.
        for _ in range(10):
            yield from core.dispatch_work(8, deps=[gate])
        return sim.now

    def opener():
        yield sim.timeout(ns(5000))
        gate.succeed(None)

    sim.process(opener())
    finished = run(sim, body())
    # Dispatching 80 instructions through a 32-entry ROB requires
    # waiting for the gate (at 5 us), not just front-end time.
    assert finished >= ns(5000)
    assert core.rob.max_used <= 32


def test_exception_during_dispatch_timeout_releases_front_end():
    """Regression: an exception thrown into a process waiting on the
    dispatch timeout must release the shared front end, or the SMT
    sibling deadlocks on a slot that never frees."""
    sim = Simulator()
    front_end = Resource(sim, 1, name="frontend")
    core = build(sim, front_end=front_end)

    victim = core._dispatch(ns(10))
    victim.send(None)  # acquires the slot, yields the (unfired) grant
    assert front_end.in_use == 1
    victim.send(None)  # past the grant, now waiting on the timeout
    with pytest.raises(RuntimeError):
        victim.throw(RuntimeError("context torn down"))
    assert front_end.in_use == 0

    # End to end: a sibling dispatch completes -- before the fix it
    # deadlocked, and sim.run(done) raised "ran out of events".
    def sibling():
        yield from core._dispatch(ns(5))

    sim.run(sim.process(sibling()))


def test_exception_while_awaiting_grant_releases_iff_granted():
    """The cleanup keys on grant.triggered: an uncontended acquire owns
    its slot before the grant event fires, a queued one owns nothing."""
    sim = Simulator()
    front_end = Resource(sim, 1, name="frontend")
    core = build(sim, front_end=front_end)

    owner = core._dispatch(ns(10))
    owner.send(None)  # slot granted immediately, grant not yet fired
    assert front_end.in_use == 1
    with pytest.raises(RuntimeError):
        owner.throw(RuntimeError("torn down while grant pending"))
    assert front_end.in_use == 0  # released: the slot was granted

    holder = core._dispatch(ns(10))
    holder.send(None)
    assert front_end.in_use == 1
    waiter = core._dispatch(ns(10))
    waiter.send(None)  # queued behind holder, no slot owned
    with pytest.raises(RuntimeError):
        waiter.throw(RuntimeError("torn down while queued"))
    # The holder's slot must not have been stolen by the dying waiter.
    assert front_end.in_use == 1


def test_work_counter_shared_across_cores():
    sim = Simulator()
    shared = Counter("work")
    cores = []
    for core_id in range(2):
        config = CpuConfig(frequency_ghz=1.0)
        uncore = Uncore(sim, UncoreConfig())
        uncore.attach_target(
            AddressSpace.DEVICE, FixedLatencyTarget(sim, ns(100))
        )
        memsys = CoreMemorySystem(
            sim, core_id, CacheConfig(), 10, uncore, config.frequency
        )
        cores.append(OutOfOrderCore(sim, core_id, config, memsys, shared))

    def worker(core):
        done = yield from core.dispatch_work(50)
        yield done

    for core in cores:
        sim.process(worker(core))
    sim.run()
    assert shared.total == 100
