"""Deterministic 64-bit hashing used by the application workloads.

A splitmix64-style finalizer: cheap, stateless, and reproducible
across runs, which both the replay methodology and the functional
correctness tests rely on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["mix64", "mix64_array", "hash_with_seed"]

_MASK = (1 << 64) - 1


def mix64(value: int) -> int:
    """The splitmix64 finalizer: a well-distributed 64-bit mix."""
    value &= _MASK
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK
    return value ^ (value >> 31)


def mix64_array(values: np.ndarray) -> np.ndarray:
    """:func:`mix64` of every element of a ``uint64`` array.

    uint64 arithmetic wraps modulo 2**64, which is exactly the
    ``& _MASK`` that :func:`mix64` applies after each step.
    """
    import numpy as np

    value = np.asarray(values, dtype=np.uint64)
    value = (value ^ (value >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    value = (value ^ (value >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return value ^ (value >> np.uint64(31))


def hash_with_seed(value: int, seed: int) -> int:
    """An independent hash family member, selected by ``seed``."""
    return mix64(value ^ mix64(seed + 0x9E3779B97F4A7C15))
