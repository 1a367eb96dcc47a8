"""Pick the least contended CPU for a pass.

On a shared host a vCPU runs at about half speed while another tenant
loads its physical core, and the two vCPUs of the sandbox slow down at
mostly different times.  Before its sweep, a pass times a fixed
pure-Python probe on every CPU it may use and pins itself to the fastest
(NOTES.md, "Noise").  The probe is frozen benchmark code, so it reads the
host's state, never the simulator's speed.
"""

from __future__ import annotations

import heapq
import os
import time

_EVENTS = 20_000
_PROCESSES = 64


def _process(seed: int):
    state = seed
    while True:
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        yield state % 97 + 1


def probe_s() -> float:
    """Seconds a small discrete-event loop takes on the current CPU."""
    started = time.perf_counter()
    processes = [_process(index) for index in range(_PROCESSES)]
    heap = [(0, index, index) for index in range(_PROCESSES)]
    sequence = _PROCESSES
    for _ in range(_EVENTS):
        now, _order, index = heapq.heappop(heap)
        heapq.heappush(heap, (now + next(processes[index]), sequence, index))
        sequence += 1
    return time.perf_counter() - started


def pin_fastest() -> tuple[int, dict[int, float]]:
    """Pin this process to the CPU whose probe ran fastest (best of two)."""
    cpus = sorted(os.sched_getaffinity(0))
    times = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = min(probe_s(), probe_s())
    best = min(cpus, key=times.__getitem__)
    os.sched_setaffinity(0, {best})
    return best, times
