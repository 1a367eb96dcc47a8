"""Pointer chasing: the access pattern that motivates the paper.

"Existing micro-architectural techniques ... cannot hide microsecond
delays, especially in the presence of pointer-based serial dependence
chains commonly found in modern server workloads" (section I).  Within
one chain nothing can help: the next address is unknown until the
current load returns.  The paper's whole thesis is that software can
still find parallelism *across* threads -- each user thread walks its
own chain, and prefetch + context switching overlaps the chains.

The chain is a random cyclic permutation of line-spaced nodes, so
traversal order is uncorrelated with memory order (no stride for a
hardware prefetcher to learn, no spatial locality).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.host.system import System
from repro.memory import FlatMemory
from repro.runtime.api import AccessContext
from repro.workloads.seeds import thread_seed

__all__ = ["PointerChaseParams", "PointerChain", "install_pointer_chase"]


@dataclass(frozen=True)
class PointerChaseParams:
    """Chain sizing and traversal parameters."""

    #: Nodes per chain (one cache line each).
    nodes: int = 512
    #: Hops each thread performs (may wrap around the cycle).
    hops_per_thread: int = 64
    #: Work instructions per hop (the benign work loop).
    work_count: int = 100
    seed: int = 7

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ConfigError("a chain needs at least two nodes")
        if self.hops_per_thread < 1:
            raise ConfigError("need at least one hop per thread")


class PointerChain:
    """One cyclic linked list of line-sized nodes in simulated memory.

    Each node's first word holds the address of the next node.
    """

    def __init__(
        self,
        params: PointerChaseParams,
        base_addr: int,
        world: FlatMemory,
        seed_offset: int = 0,
    ) -> None:
        import numpy as np

        self.params = params
        self.base_addr = base_addr
        self.world = world
        rng = np.random.RandomState(params.seed + seed_offset)
        order = rng.permutation(params.nodes)
        self.head = base_addr + int(order[0]) * 64
        for position in range(params.nodes):
            node = base_addr + int(order[position]) * 64
            successor = base_addr + int(order[(position + 1) % params.nodes]) * 64
            world.write_word(node, successor)

    @staticmethod
    def size_bytes(params: PointerChaseParams) -> int:
        return params.nodes * 64

    def walk_functional(self, hops: int) -> int:
        """Untimed traversal (test oracle): the final node address."""
        node = self.head
        for _ in range(hops):
            node = self.world.read_word(node)
        return node

    def walk(self, ctx: AccessContext, hops: int, work_count: int):
        """Timed traversal: strictly serial data-dependent reads."""
        node = self.head
        for _ in range(hops):
            node = yield from ctx.read(node)
            yield from ctx.work(work_count)
        return node


def install_pointer_chase(
    system: System, params: PointerChaseParams, threads_per_core: int
) -> dict[tuple[int, int], PointerChain]:
    """One private chain per thread: serial within, parallel across."""
    chains: dict[tuple[int, int], PointerChain] = {}

    def factory(ctx: AccessContext, core_id: int, slot: int):
        base = system.alloc_data(core_id, PointerChain.size_bytes(params))
        chain = PointerChain(
            params, base, system.world, seed_offset=thread_seed(core_id, slot)
        )
        chains[(core_id, slot)] = chain

        def body():
            final = yield from chain.walk(
                ctx, params.hops_per_thread, params.work_count
            )
            return final

        return body()

    system.spawn_per_core(threads_per_core, factory)
    return chains
