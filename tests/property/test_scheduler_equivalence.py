"""Timed-heap property tests.

Adversarial delay distributions (bimodal, heavy-tailed, all-zero,
multiples of 1024 +/- 1) drive the timed heap and the same-tick run
queue, and the trace must equal the frozen reference kernel's bit for
bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import _reference as ref_kernel
from repro.sim import kernel as fast_kernel


# -- delay distributions ---------------------------------------------------

_SMALL = st.integers(min_value=0, max_value=9)
_LARGE = st.integers(min_value=900, max_value=5_000)
#: Two well-separated modes: short hops interleaved with long waits.
_BIMODAL = st.one_of(_SMALL, _LARGE)
#: Log-uniform-ish tail out to ~1M ticks.
_HEAVY_TAILED = st.builds(
    lambda mantissa, exponent: mantissa << exponent,
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=17),
)
#: Degenerate: every event same-tick, the run-queue bypass path.
_ALL_ZERO = st.just(0)
#: Multiples of 1024 +/- 1: many timers collide on the same ticks.
_COLLIDING = st.builds(
    lambda lap, jitter: lap * 1024 + jitter,
    st.integers(min_value=0, max_value=4),
    st.sampled_from([0, 1, 1023]),
)

_DISTRIBUTIONS = {
    "bimodal": _BIMODAL,
    "heavy_tailed": _HEAVY_TAILED,
    "all_zero": _ALL_ZERO,
    "colliding": _COLLIDING,
}


@st.composite
def _timer_programs(draw):
    """Per-process delay lists, all drawn from one distribution."""
    delays = _DISTRIBUTIONS[
        draw(st.sampled_from(sorted(_DISTRIBUTIONS)))
    ]
    n_procs = draw(st.integers(min_value=1, max_value=4))
    return [
        draw(st.lists(delays, min_size=0, max_size=12))
        for _ in range(n_procs)
    ]


def _run_timers(module, programs):
    """Execute timer programs on ``module``'s kernel; return the trace."""
    sim = module.Simulator()
    trace = []

    def proc(pid, delays):
        for step, delay in enumerate(delays):
            yield sim.timeout(delay)
            trace.append((pid, step, sim.now))
        trace.append((pid, "done", sim.now))

    for pid, delays in enumerate(programs):
        sim.process(proc(pid, delays))
    sim.run()
    return trace, sim.now


@given(programs=_timer_programs())
@settings(max_examples=150, deadline=None)
def test_delay_distributions_trace_identical(programs):
    """Production thresholds (sparse regime end to end)."""
    assert _run_timers(fast_kernel, programs) == _run_timers(
        ref_kernel, programs
    )
