"""Differential property tests: fast-path kernel vs the frozen reference.

``repro.sim._reference`` is a verbatim copy of the kernel as it stood
before the same-tick run queue / lean events / O(1) joins rework.  The
rework's correctness claim is *bit-for-bit* behavioural equivalence, so
these tests execute randomized process graphs -- timeouts (including
zero-delay hops), shared gate events, ``all_of``/``any_of`` joins,
nested spawns -- on both kernels and require identical traces, clocks,
and error outcomes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import _reference as ref_kernel
from repro.sim import kernel as fast_kernel


@st.composite
def _programs(draw):
    """A random process graph: per-process op lists over shared gates.

    Every gate is fired exactly once, by a ``fire`` op inserted at a
    random position of a random process -- but a process may block on a
    gate whose ``fire`` op sits later in its own (or a blocked) program,
    so graphs can deadlock; deadlock outcomes must match too.
    """
    n_gates = draw(st.integers(min_value=0, max_value=3))
    n_procs = draw(st.integers(min_value=1, max_value=4))
    ops = [
        st.tuples(st.just("timeout"), st.integers(min_value=0, max_value=12)),
        st.tuples(st.just("spawn"), st.integers(min_value=0, max_value=6)),
    ]
    if n_gates:
        gate_sets = st.lists(
            st.integers(min_value=0, max_value=n_gates - 1),
            min_size=1,
            max_size=n_gates,
            unique=True,
        )
        ops.append(st.tuples(st.just("all"), gate_sets))
        ops.append(st.tuples(st.just("any"), gate_sets))
    op = st.one_of(ops)
    programs = [
        draw(st.lists(op, min_size=0, max_size=6)) for _ in range(n_procs)
    ]
    for gate in range(n_gates):
        proc = draw(st.integers(min_value=0, max_value=n_procs - 1))
        position = draw(st.integers(min_value=0, max_value=len(programs[proc])))
        value = draw(st.integers(min_value=0, max_value=100))
        programs[proc].insert(position, ("fire", gate, value))
    return programs, n_gates


def _execute(module, programs, n_gates, until_pid=None):
    """Run a program graph on ``module``'s kernel; return its trace.

    The trace records every observable step with the simulated time and
    the value the step produced, plus the final clock and whether the
    run ended in a deadlock error (``run(until=...)`` only).
    """
    sim = module.Simulator()
    gates = [module.Event(sim) for _ in range(n_gates)]
    trace = []

    def child(pid, step, delay):
        yield sim.timeout(delay)
        trace.append(("child", pid, step, sim.now))

    def proc(pid, program):
        for step, op in enumerate(program):
            kind = op[0]
            if kind == "timeout":
                yield sim.timeout(op[1])
                trace.append(("timeout", pid, step, sim.now))
            elif kind == "spawn":
                sim.process(child(pid, step, op[1]))
            elif kind == "fire":
                gates[op[1]].succeed(op[2])
            elif kind == "all":
                value = yield module.all_of(sim, [gates[j] for j in op[1]])
                trace.append(("all", pid, step, sim.now, repr(value)))
            elif kind == "any":
                value = yield module.any_of(sim, [gates[j] for j in op[1]])
                trace.append(("any", pid, step, sim.now, repr(value)))
        trace.append(("done", pid, sim.now))

    processes = [
        sim.process(proc(pid, program))
        for pid, program in enumerate(programs)
    ]
    deadlocked = False
    if until_pid is None:
        sim.run()
    else:
        try:
            sim.run(processes[until_pid])
        except SimulationError:
            deadlocked = True
    return trace, sim.now, deadlocked


@given(graph=_programs())
@settings(max_examples=120, deadline=None)
def test_randomized_graphs_trace_identical_on_both_kernels(graph):
    programs, n_gates = graph
    assert _execute(fast_kernel, programs, n_gates) == _execute(
        ref_kernel, programs, n_gates
    )


@given(graph=_programs(), until_pid=st.integers(min_value=0, max_value=3))
@settings(max_examples=120, deadline=None)
def test_run_until_event_matches_reference_and_prefixes_full_run(
    graph, until_pid
):
    programs, n_gates = graph
    until_pid %= len(programs)
    partial = _execute(fast_kernel, programs, n_gates, until_pid=until_pid)
    assert partial == _execute(ref_kernel, programs, n_gates, until_pid=until_pid)
    full_trace, _now, _ = _execute(fast_kernel, programs, n_gates)
    partial_trace, _, deadlocked = partial
    if not deadlocked:
        # Stopping at an event only truncates the schedule; it never
        # reorders it.
        assert partial_trace == full_trace[: len(partial_trace)]


@given(
    n_procs=st.integers(min_value=1, max_value=6),
    waves=st.integers(min_value=1, max_value=5),
    delay=st.sampled_from([0, 3]),
)
@settings(max_examples=60, deadline=None)
def test_same_tick_events_fire_in_schedule_order(n_procs, waves, delay):
    """Same-tick ties resolve in schedule order: N processes looping on
    an identical timeout resume round-robin every wave, whether the
    timeout takes the run-queue fast path (0) or the heap (3)."""
    sim = fast_kernel.Simulator()
    order = []

    def looper(pid):
        for wave in range(waves):
            yield sim.timeout(delay)
            order.append((wave, pid))

    for pid in range(n_procs):
        sim.process(looper(pid))
    sim.run()
    assert order == [
        (wave, pid) for wave in range(waves) for pid in range(n_procs)
    ]


@st.composite
def _mid_tick_stops(draw):
    """Processes that each wake on a pre-armed timer and then hop
    through short delays (0 is a zero-delay hop), plus a stop timer
    armed at a random position among the wake timers -- so it shares
    its tick with other timers and with the hops their processes make."""
    n_procs = draw(st.integers(min_value=1, max_value=5))
    ticks = st.integers(min_value=1, max_value=3)
    wakes = draw(st.lists(ticks, min_size=n_procs, max_size=n_procs))
    hops = [
        draw(st.lists(st.integers(min_value=0, max_value=3), max_size=5))
        for _ in range(n_procs)
    ]
    stop_at = draw(st.integers(min_value=0, max_value=n_procs))
    return wakes, hops, stop_at, draw(ticks)


def _stop_then_resume(module, wakes, hops, stop_at, stop_tick):
    """``run(until=stop timer)``, then ``run()`` to the end; returns the
    whole trace, where it was cut, and the final clock."""
    sim = module.Simulator()
    trace = []

    def proc(pid, wake, delays):
        yield wake
        trace.append((pid, "wake", sim.now))
        for step, delay in enumerate(delays):
            yield sim.timeout(delay)
            trace.append((pid, step, sim.now))

    timers = [sim.timeout(tick) for tick in wakes[:stop_at]]
    stop = sim.timeout(stop_tick)
    timers += [sim.timeout(tick) for tick in wakes[stop_at:]]
    for pid, (wake, delays) in enumerate(zip(timers, hops)):
        sim.process(proc(pid, wake, delays))
    sim.run(stop)
    cut = (len(trace), sim.now)
    sim.run()
    return trace, cut, sim.now


@given(case=_mid_tick_stops())
@settings(max_examples=200, deadline=None)
def test_resume_after_mid_tick_stop_matches_reference(case):
    """The rest of a tick left behind by a stop -- timers due now and
    run-queue hops -- fires on the next run() in schedule order."""
    assert _stop_then_resume(fast_kernel, *case) == _stop_then_resume(
        ref_kernel, *case
    )
