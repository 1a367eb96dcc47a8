"""Edge-case tests for the simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator, all_of, any_of


def test_any_of_propagates_failure_of_first_event():
    sim = Simulator()
    bad = sim.event()
    slow = sim.timeout(100)

    def body():
        yield any_of(sim, [bad, slow])

    proc = sim.process(body())
    bad.fail(RuntimeError("early failure"))
    with pytest.raises(RuntimeError, match="early failure"):
        sim.run(proc)


def test_any_of_success_beats_later_failure():
    sim = Simulator()
    fast = sim.timeout(5, value="ok")
    bad = sim.event()

    def body():
        value = yield any_of(sim, [fast, bad])
        return value

    proc = sim.process(body())

    def failer():
        yield sim.timeout(50)
        bad.fail(RuntimeError("too late"))

    sim.process(failer())
    assert sim.run(proc) == "ok"
    # Drain the rest; the late failure must not crash anything.
    sim.run()


def test_process_awaiting_failed_process_sees_the_exception():
    sim = Simulator()

    def failing():
        yield sim.timeout(3)
        raise ValueError("inner exploded")

    def outer():
        try:
            yield sim.process(failing())
        except ValueError as exc:
            return f"caught: {exc}"

    assert sim.run(sim.process(outer())) == "caught: inner exploded"


def test_unobserved_process_failure_escalates():
    sim = Simulator()

    def failing():
        yield sim.timeout(1)
        raise ValueError("nobody is watching")

    sim.process(failing())
    with pytest.raises(ValueError, match="nobody is watching"):
        sim.run()


def test_condition_over_mixed_simulators_rejected():
    sim_a, sim_b = Simulator(), Simulator()
    with pytest.raises(SimulationError):
        all_of(sim_a, [sim_a.timeout(1), sim_b.timeout(1)])


def test_nested_all_of_composition():
    sim = Simulator()
    inner = all_of(sim, [sim.timeout(3, value=1), sim.timeout(5, value=2)])
    outer = all_of(sim, [inner, sim.timeout(10, value=3)])

    def body():
        values = yield outer
        return values

    assert sim.run(sim.process(body())) == [[1, 2], 3]
    assert sim.now == 10


def test_zero_delay_chain_resumes_same_tick_in_order():
    sim = Simulator()
    order = []

    def hopper(tag, count):
        for _ in range(count):
            yield sim.timeout(0)
        order.append(tag)

    sim.process(hopper("short", 1))
    sim.process(hopper("long", 3))
    sim.run()
    assert sim.now == 0
    assert order == ["short", "long"]


def test_run_until_event_that_already_fired_returns_immediately():
    sim = Simulator()
    done = sim.timeout(10, value="v")
    sim.run()
    assert sim.run(done) == "v"
    assert sim.now == 10


def test_generator_return_inside_first_slice():
    sim = Simulator()

    def instant():
        return 42
        yield  # pragma: no cover - makes this a generator

    assert sim.run(sim.process(instant())) == 42


def test_many_waiters_on_one_event_all_resume():
    sim = Simulator()
    gate = sim.event()
    resumed = []

    def waiter(tag):
        value = yield gate
        resumed.append((tag, value))

    for tag in range(25):
        sim.process(waiter(tag))

    def opener():
        yield sim.timeout(7)
        gate.succeed("open")

    sim.process(opener())
    sim.run()
    assert resumed == [(tag, "open") for tag in range(25)]


def test_sanity_check_is_clean_mid_tick_and_after_a_run():
    sim = Simulator()
    seen = []

    def checker():
        yield sim.timeout(5)
        seen.append((sim.pending_events, sim.sanity_check()))

    def sleepers():
        sim.timeout(5)
        sim.timeout(5)
        yield sim.timeout(9)

    sim.process(checker())
    sim.process(sleepers())
    sim.run()
    # The check ran with the rest of tick 5 still on the heap.
    assert seen == [(3, [])]
    assert sim.sanity_check() == []


def test_sanity_check_reports_a_heap_entry_behind_the_clock():
    sim = Simulator()
    sim.timeout(5)
    sim.now = 10
    assert sim.sanity_check() == ["timed heap holds tick 5 < now 10"]


def test_sanity_check_reports_more_pops_than_pushes():
    sim = Simulator()
    sim.timeout(5)
    sim.run()
    sim.heap_pops += 1
    assert sim.sanity_check() == ["more timed pops (2) than pushes (1)"]
