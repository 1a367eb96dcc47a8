"""Unit tests for the out-of-order core model.

These use a 1 GHz clock (1 ns cycles) and simple fixed-latency targets
so expected times can be computed by hand.
"""

import pytest

from repro.config import CacheConfig, CpuConfig, UncoreConfig
from repro.cpu import AddressSpace, CoreMemorySystem, OutOfOrderCore, Uncore
from repro.memory import FlatMemory
from repro.sim import Simulator
from repro.sim.trace import Counter
from repro.testing import FixedLatencyTarget
from repro.units import ns


def build_core(
    sim,
    rob=64,
    lfb=10,
    width=4,
    ipc=1.0,
    chunk=8,
    target_latency=ns(500),
    hop_ns=0.0,
    pcie_q=14,
):
    config = CpuConfig(
        frequency_ghz=1.0,
        dispatch_width=width,
        rob_entries=rob,
        work_ipc=ipc,
        work_chunk_instructions=chunk,
        lfb_entries=lfb,
    )
    uncore = Uncore(sim, UncoreConfig(hop_ns=hop_ns, pcie_queue_entries=pcie_q))
    memory = FlatMemory()
    target = FixedLatencyTarget(sim, target_latency, memory)
    uncore.attach_target(AddressSpace.DEVICE, target)
    uncore.attach_target(AddressSpace.DRAM, FixedLatencyTarget(sim, ns(80), memory))
    memsys = CoreMemorySystem(
        sim, 0, CacheConfig(), lfb, uncore, config.frequency
    )
    work = Counter("work")
    core = OutOfOrderCore(sim, 0, config, memsys, work)
    return core, target, memory


def run(sim, gen):
    return sim.run(sim.process(gen))


def test_work_block_time_is_dispatch_then_execute():
    sim = Simulator()
    core, _t, _m = build_core(sim, width=4, ipc=1.0, chunk=8)
    times = {}

    def body():
        done = yield from core.dispatch_work(8)
        times["dispatched"] = sim.now
        yield done
        times["executed"] = sim.now

    run(sim, body())
    # Dispatch: 8 instructions / width 4 = 2 cycles = 2 ns.
    assert times["dispatched"] == ns(2)
    # Execution starts at dispatch end and runs 8 / IPC 1.0 = 8 ns.
    assert times["executed"] == ns(10)


def test_work_chunks_chain_serially():
    sim = Simulator()
    core, _t, _m = build_core(sim, width=4, ipc=1.0, chunk=8)

    def body():
        done = yield from core.dispatch_work(24)  # three 8-instr chunks
        yield done
        return sim.now

    finished = run(sim, body())
    # Chunks execute back to back: dispatch of chunk0 (2ns) + 3 * 8ns,
    # with later chunks' dispatch hidden under execution.
    assert finished == ns(2 + 24)


def test_work_waits_for_dependency():
    sim = Simulator()
    core, _t, _m = build_core(sim)
    gate = sim.event()

    def opener():
        yield sim.timeout(ns(100))
        gate.succeed(None)

    def body():
        done = yield from core.dispatch_work(8, deps=[gate])
        yield done
        return sim.now

    sim.process(opener())
    assert run(sim, body()) == ns(108)


def test_fired_dependency_adds_no_delay():
    sim = Simulator()
    core, _t, _m = build_core(sim)
    gate = sim.event()
    gate.succeed(None)
    sim.run()

    def body():
        done = yield from core.dispatch_work(8, deps=[gate])
        yield done
        return sim.now

    assert run(sim, body()) == ns(10)


def test_zero_work_completes_instantly():
    sim = Simulator()
    core, _t, _m = build_core(sim)

    def body():
        done = yield from core.dispatch_work(0)
        yield done
        return sim.now

    assert run(sim, body()) == 0


def test_work_counter_counts_retired_instructions():
    sim = Simulator()
    core, _t, _m = build_core(sim)

    def body():
        done = yield from core.dispatch_work(24)
        yield done

    run(sim, body())
    sim.run()
    assert core.work.total == 24
    assert core.instructions.total == 24


def test_overhead_instructions_not_counted_as_work():
    sim = Simulator()
    core, _t, _m = build_core(sim)

    def body():
        yield from core.run_instructions(16)

    run(sim, body())
    sim.run()
    assert core.work.total == 0
    assert core.instructions.total == 16


def test_load_token_returns_line_data_and_word():
    sim = Simulator()
    core, _t, memory = build_core(sim)
    memory.write_word(0x2008, 777)

    def body():
        token = yield from core.issue_load(0x2008, AddressSpace.DEVICE)
        yield from core.wait_data(token)
        return token.word()

    assert run(sim, body()) == 777


def test_on_demand_load_serializes_dependent_work():
    sim = Simulator()
    core, _t, _m = build_core(sim, target_latency=ns(1000))

    def body():
        token = yield from core.issue_load(0x0, AddressSpace.DEVICE)
        done = yield from core.dispatch_work(8, deps=[token.event])
        yield done
        return sim.now

    finished = run(sim, body())
    # ~load latency + work execution; small dispatch overheads on top.
    assert ns(1008) <= finished <= ns(1015)


def test_rob_allows_overlap_of_independent_loads():
    """Two iterations' loads overlap when both fit in the ROB."""
    sim = Simulator()
    core, target, _m = build_core(sim, rob=64, target_latency=ns(1000))

    def body():
        for i in range(2):
            token = yield from core.issue_load(i * 64, AddressSpace.DEVICE)
            yield from core.dispatch_work(16, deps=[token.event])
        yield from core.drain()
        return sim.now

    finished = run(sim, body())
    # Both loads issue within a few ns of each other; total well under
    # the 2 * 1000 ns a serial execution would take.
    assert finished < ns(1100)
    assert target.max_in_flight == 2


def test_full_rob_blocks_next_iteration_load():
    """With work >> ROB, iterations serialize (Figure 2's regime)."""
    sim = Simulator()
    core, target, _m = build_core(sim, rob=32, chunk=8, target_latency=ns(1000))

    def body():
        for i in range(2):
            token = yield from core.issue_load(i * 64, AddressSpace.DEVICE)
            # 64 instructions cannot coexist with the next load in a
            # 32-entry ROB, and they all depend on the load.
            yield from core.dispatch_work(64, deps=[token.event])
        yield from core.drain()
        return sim.now

    finished = run(sim, body())
    assert finished > ns(2000)
    assert target.max_in_flight == 1


def test_prefetch_retires_without_data():
    sim = Simulator()
    core, _t, _m = build_core(sim, target_latency=ns(1000))

    def body():
        yield from core.issue_prefetch(0x0, AddressSpace.DEVICE)
        return sim.now

    # The prefetch dispatches in ~1 cycle and does not wait for data.
    assert run(sim, body()) <= ns(2)


def test_prefetch_beyond_lfbs_queues_but_does_not_stall_dispatch():
    """A prefetch with every LFB busy waits in the reservation station:
    dispatch continues, in-flight fills stay capped, and the queued
    prefetch issues when a buffer frees."""
    sim = Simulator()
    core, target, _m = build_core(sim, lfb=2, target_latency=ns(1000))
    stamps = []

    def body():
        for i in range(3):
            yield from core.issue_prefetch(i * 64, AddressSpace.DEVICE)
            stamps.append(sim.now)

    run(sim, body())
    sim.run()
    # All three prefetches dispatch promptly -- none blocks the front end.
    assert all(stamp <= ns(3) for stamp in stamps)
    # But only two fills are ever in flight; the third starts after a
    # buffer frees (a full fill latency later).
    assert target.max_in_flight == 2
    assert core.memsys.lfb.max_in_flight == 2
    assert target.reads == 3


def test_queued_prefetch_blocks_retirement_until_issued():
    """The RS-waiting prefetch cannot retire, so ROB backpressure kicks
    in roughly one ROB's worth of instructions later."""
    sim = Simulator()
    core, _t, _m = build_core(sim, rob=32, lfb=1, chunk=8, target_latency=ns(1000))
    stamps = []

    def body():
        yield from core.issue_prefetch(0, AddressSpace.DEVICE)    # takes the LFB
        yield from core.issue_prefetch(64, AddressSpace.DEVICE)   # queues in RS
        stamps.append(sim.now)
        # Independent filler work: dispatch proceeds until the ROB
        # fills behind the unretirable prefetch.
        yield from core.dispatch_work(64)
        stamps.append(sim.now)

    run(sim, body())
    sim.run()
    assert stamps[0] <= ns(3)           # second prefetch did not stall
    assert stamps[1] >= ns(1000)        # but the ROB eventually did


def test_mmio_write_requires_sink():
    sim = Simulator()
    core, _t, _m = build_core(sim)

    def body():
        yield from core.mmio_write(0x10, 4, cost_ticks=ns(50))

    from repro.errors import SimulationError

    with pytest.raises(SimulationError):
        run(sim, body())


def test_mmio_write_charges_cost_and_posts():
    sim = Simulator()
    core, _t, _m = build_core(sim)
    posted = []
    core.set_mmio_sink(lambda addr, size: posted.append((addr, size, sim.now)))

    def body():
        yield from core.mmio_write(0x10, 4, cost_ticks=ns(50))
        return sim.now

    assert run(sim, body()) == ns(50)
    assert posted == [(0x10, 4, ns(50))]


def test_busy_occupies_frontend():
    sim = Simulator()
    core, _t, _m = build_core(sim)

    def body():
        yield from core.busy(ns(35))
        return sim.now

    assert run(sim, body()) == ns(35)


def test_negative_work_rejected():
    sim = Simulator()
    core, _t, _m = build_core(sim)

    def body():
        yield from core.dispatch_work(-1)

    from repro.errors import SimulationError

    with pytest.raises(SimulationError):
        run(sim, body())
