"""Timing helpers shared by the gated benchmarks.

``test_simulator_throughput.py``, ``test_obs_overhead.py`` and
``test_attrib_overhead.py`` import this module by its top-level name:
``benchmarks/`` is not a package, and pytest's default (``prepend``)
import mode puts a test file's directory on ``sys.path``.
"""

import gc
import statistics
import time


def event_loop(simulator_cls, store_cls, items=10_000):
    """The canonical kernel workload: a producer/consumer pair
    exchanging ``items`` values through a bounded Store."""
    sim = simulator_cls()
    store = store_cls(sim, capacity=16)

    def producer():
        for i in range(items):
            yield store.put(i)

    def consumer():
        total = 0
        for _ in range(items):
            total += yield store.get()
        return total

    sim.process(producer())
    done = sim.process(consumer())
    return sim.run(done)


def paired_speedup(fn_ref, fn_new, repeats=15):
    """Speedup of ``fn_new`` over ``fn_ref``, robust to frequency drift.

    The reps alternate ref/new so clock-speed drift hits both sides of
    each pair equally, and the estimate is the *median of per-pair
    ratios* -- a single slow outlier rep cannot move it the way it
    moves a best-of-N comparison.  GC is disabled around the timed
    region (these are plain tests, so ``--benchmark-disable-gc`` does
    not cover them), so collector pauses land in neither side.
    Returns (speedup, best_ref, best_new).
    """
    ratios = []
    best_ref = best_new = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            fn_ref()
            ref_s = time.perf_counter() - started
            started = time.perf_counter()
            fn_new()
            new_s = time.perf_counter() - started
            ratios.append(ref_s / new_s)
            best_ref = min(best_ref, ref_s)
            best_new = min(best_new, new_s)
            gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(ratios), best_ref, best_new


def time_mode(run, reps=5):
    """Median wall time of ``reps`` calls of ``run()``, and the last
    call's result."""
    walls = []
    result = None
    for _ in range(reps):
        started = time.perf_counter()
        result = run()
        walls.append(time.perf_counter() - started)
    return statistics.median(walls), result
