"""Unit tests for the reorder buffer model."""

import pytest

from repro.errors import SimulationError
from repro.cpu.rob import ReorderBuffer
from repro.sim import Simulator


def test_allocate_within_capacity_does_not_stall():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=8)

    def frontend():
        yield from rob.allocate(5)
        return sim.now

    assert sim.run(sim.process(frontend())) == 0
    assert rob.used == 5


def test_allocate_blocks_until_retirement():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=4)
    grants = []

    def frontend():
        yield from rob.allocate(4)
        rob.commit(4, sim.timeout(100))
        yield from rob.allocate(2)
        grants.append(sim.now)

    sim.process(frontend())
    sim.run()
    assert grants == [100]


def test_retirement_is_in_order():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=10)
    retired = []

    def frontend():
        # Older group finishes LATE, younger finishes early.
        yield from rob.allocate(3)
        rob.commit(3, sim.timeout(100), on_retire=lambda: retired.append(("old", sim.now)))
        yield from rob.allocate(3)
        rob.commit(3, sim.timeout(10), on_retire=lambda: retired.append(("young", sim.now)))

    sim.process(frontend())
    sim.run()
    # The young group may complete at t=10 but retires behind the old one.
    assert retired == [("old", 100), ("young", 100)]


def test_long_latency_head_blocks_slot_reuse():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=4)
    times = []

    def frontend():
        yield from rob.allocate(4)
        rob.commit(4, sim.timeout(1000))
        yield from rob.allocate(1)  # must wait for the head to retire
        times.append(sim.now)

    sim.process(frontend())
    sim.run()
    assert times == [1000]


def test_oversized_allocation_rejected():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=4)

    def frontend():
        yield from rob.allocate(5)

    with pytest.raises(SimulationError):
        sim.run(sim.process(frontend()))


def test_nonpositive_allocation_rejected():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=4)

    def frontend():
        yield from rob.allocate(0)

    with pytest.raises(SimulationError):
        sim.run(sim.process(frontend()))


def test_free_slots_accounting():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=16)

    def frontend():
        yield from rob.allocate(6)
        rob.commit(6, sim.timeout(10))
        yield from rob.allocate(4)
        rob.commit(4, sim.timeout(20))

    sim.process(frontend())
    sim.run()
    assert rob.free == 16
    assert rob.max_used == 10
    assert rob.retired_groups == 2


def test_already_fired_completion_retires_immediately():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=4)
    retired = []

    def frontend():
        yield from rob.allocate(2)
        done = sim.event()
        done.succeed(None)
        rob.commit(2, done, on_retire=lambda: retired.append(sim.now))
        yield sim.timeout(5)

    sim.process(frontend())
    sim.run()
    assert retired == [0]
    assert rob.free == 4


def test_failed_completion_raises_out_of_run():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=4)
    done = sim.event()

    def frontend():
        yield from rob.allocate(2)
        rob.commit(2, done)
        yield sim.timeout(5)
        done.fail(RuntimeError("execution fault"))

    sim.process(frontend())
    with pytest.raises(RuntimeError, match="execution fault"):
        sim.run()
    assert rob.retired_groups == 0


def test_try_allocate_takes_free_slots_and_never_queues():
    sim = Simulator()
    rob = ReorderBuffer(sim, capacity=4)
    assert rob.try_allocate(3)
    assert rob.used == 3 and rob.max_used == 3 and rob.allocated_slots == 3
    assert not rob.try_allocate(2)  # would overflow: the caller must stall
    assert not rob.try_allocate(0)  # invalid sizes fall to allocate()
    assert not rob.try_allocate(5)
    assert rob.used == 3 and rob.allocated_slots == 3
