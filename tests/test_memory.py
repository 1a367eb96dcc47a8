"""Unit tests for the functional memory."""

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
