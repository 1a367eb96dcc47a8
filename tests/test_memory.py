"""Unit tests for the functional memory."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.errors import AddressError
from repro.memory import WORD_BYTES, FlatMemory


def test_unwritten_words_read_zero():
    memory = FlatMemory()
    assert memory.read_word(0x1000) == 0


def test_write_read_roundtrip():
    memory = FlatMemory()
    memory.write_word(0x88, 0xDEADBEEF)
    assert memory.read_word(0x88) == 0xDEADBEEF


def test_values_truncate_to_64_bits():
    memory = FlatMemory()
    memory.write_word(0, (1 << 64) + 5)
    assert memory.read_word(0) == 5


def test_unaligned_access_rejected():
    memory = FlatMemory()
    with pytest.raises(AddressError):
        memory.read_word(0x3)
    with pytest.raises(AddressError):
        memory.write_word(0x7, 1)
    with pytest.raises(AddressError):
        memory.read_word(-8)


def test_line_read_packs_words_little_endian():
    memory = FlatMemory()
    for i in range(8):
        memory.write_word(0x100 + i * WORD_BYTES, i + 1)
    line = memory.read_line(0x100)
    assert len(line) == 64
    for i in range(8):
        assert int.from_bytes(line[i * 8 : (i + 1) * 8], "little") == i + 1


def test_line_read_requires_alignment():
    memory = FlatMemory()
    with pytest.raises(AddressError):
        memory.read_line(0x108)
    with pytest.raises(AddressError):
        memory.read_line(-64)


def test_reading_unwritten_memory_creates_no_page():
    memory = FlatMemory()
    assert memory.read_line(1 << 40) == bytes(64)
    assert memory.read_word((1 << 40) + 8) == 0
    assert memory._pages == {}


def test_word_from_line():
    memory = FlatMemory()
    memory.write_word(0x120, 777)
    line = memory.read_line(0x100)
    assert FlatMemory.word_from_line(0x100, line, 0x120) == 777
    with pytest.raises(AddressError):
        FlatMemory.word_from_line(0x100, line, 0x200)
    with pytest.raises(AddressError):
        FlatMemory.word_from_line(0x100, line, 0x104)


def test_sparse_footprint():
    memory = FlatMemory()
    memory.write_word(0, 1)
    memory.write_word(1 << 40, 2)
    assert memory.word_count() == 2


def test_word_count_counts_each_word_once():
    memory = FlatMemory()
    memory.write_word(0, 0)
    memory.write_word(0, 5)
    memory.write_words(0, [1, 2])
    memory.write_words(8, [])
    assert memory.word_count() == 2


def test_clear_drops_every_page():
    memory = FlatMemory()
    memory.write_words(0, range(1, 200))
    memory.write_word(1 << 40, 2)
    memory.clear()
    assert (memory.word_count(), memory._pages) == (0, {})
    assert memory.read_line(0) == bytes(64)
    memory.write_word(8, 3)
    assert (memory.word_count(), memory.read_word(8)) == (1, 3)


def test_line_size_must_be_word_multiple():
    with pytest.raises(AddressError):
        FlatMemory(line_bytes=60)
    with pytest.raises(AddressError):
        FlatMemory(line_bytes=0)


def test_line_address_helper():
    memory = FlatMemory()
    assert memory.line_address(0) == 0
    assert memory.line_address(63) == 0
    assert memory.line_address(64) == 64
    assert memory.line_address(130) == 128
    with pytest.raises(AddressError):
        memory.line_address(-1)


#: Run in a fresh interpreter: this one has numpy loaded by other tests.
_NUMPY_ON_DEMAND = textwrap.dedent('''
    import sys

    import repro
    import repro.harness.sweep as sweep
    from repro.config import AccessMechanism, SystemConfig
    from repro.harness.experiment import MeasureWindow
    from repro.workloads.microbench import MicrobenchSpec

    assert "numpy" not in sys.modules, "importing repro loaded numpy"
    window = MeasureWindow(warmup_us=1.0, measure_us=4.0)
    for mechanism in AccessMechanism:
        job = sweep.SweepJob(
            config=SystemConfig(mechanism=mechanism, cores=1, threads_per_core=2),
            spec=MicrobenchSpec(work_count=50),
            window=window,
        )
        for run in (job, sweep.baseline_job(job)):
            assert sweep.run_job(run).payload["accesses"] > 0
            assert "numpy" not in sys.modules, f"{run.describe()} loaded numpy"

    from repro.memory import FlatMemory
    from repro.workloads.bfs import BfsParams, generate_graph
    from repro.workloads.memcached import KvStore, MemcachedParams, value_word

    assert len(generate_graph(BfsParams(vertices=8))) == 8
    assert "numpy" in sys.modules, "generate_graph did not load numpy"
    params = MemcachedParams(items=4, buckets=2, value_bytes=64)
    store = KvStore(params, 0, FlatMemory())
    store.populate([3, 5, 7])
    assert store.get_functional(5) == [value_word(5, i) for i in range(8)]
''')


def test_numpy_loads_only_when_a_workload_fills_memory():
    """Microbenchmarks never write functional memory, so a sweep of
    them runs without numpy; a graph or a KvStore loads it on demand."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_ON_DEMAND],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
