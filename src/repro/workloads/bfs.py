"""The Graph500-style BFS benchmark (section IV-C).

"BFS begins with a source vertex and iteratively explores its
neighbors ... graph traversal is a central component of many data
analytics problems."

The graph is stored in CSR form in the microsecond-latency device:
an offsets array (data-dependent row bounds) and an edge array.  Hot
state -- the frontier, the visited map, per-level bookkeeping -- lives
in host memory, as in the paper ("hot data structures ... are all
placed in main memory").  The traversal is level-synchronous with a
shared work pool and a spin barrier between levels.

Per the paper, "inherent data dependencies" limit BFS to two-read
batches: the two row bounds of a vertex are fetched together, and edge
words are scanned in two-word batches; the computation after each
batch is the benign work loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.host.system import System
from repro.memory import WORD_BYTES, FlatMemory
from repro.runtime.api import AccessContext
from repro.workloads.spin import SpinBarrier

__all__ = ["BfsParams", "CsrGraph", "BfsRun", "install_bfs", "generate_graph"]


@dataclass(frozen=True)
class BfsParams:
    """Graph generation and traversal parameters."""

    #: Default sized so the CSR image (~150 KB) dwarfs the L1, as in
    #: the paper's big-data setting.
    vertices: int = 2048
    average_degree: int = 8
    seed: int = 42
    source: int = 0
    #: Work instructions per access batch (the benign work loop).
    work_count: int = 200

    def __post_init__(self) -> None:
        if self.vertices < 2:
            raise ConfigError("graph needs at least two vertices")
        if self.average_degree < 1:
            raise ConfigError("average degree must be positive")
        if not 0 <= self.source < self.vertices:
            raise ConfigError("source vertex out of range")


def generate_graph(params: BfsParams) -> list[list[int]]:
    """A reproducible random graph as adjacency lists.

    Undirected Erdos-Renyi-style with a guaranteed spine so the
    traversal reaches every vertex within a handful of levels (like
    the Graph500 generator's connected component).
    """
    import numpy as np

    rng = np.random.RandomState(params.seed)
    n = params.vertices
    adjacency: list[set[int]] = [set() for _ in range(n)]
    # Spine: vertex i links to i+1, keeping the graph connected.
    for i in range(n - 1):
        adjacency[i].add(i + 1)
        adjacency[i + 1].add(i)
    target_edges = n * params.average_degree // 2
    sources = rng.randint(0, n, size=2 * target_edges)
    destinations = rng.randint(0, n, size=2 * target_edges)
    added = 0
    for u, v in zip(sources, destinations):
        if added >= target_edges:
            break
        u, v = int(u), int(v)
        if u != v and v not in adjacency[u]:
            adjacency[u].add(v)
            adjacency[v].add(u)
            added += 1
    # Relabel with a random permutation: real big-data graphs have no
    # correlation between a vertex's id and its neighbours' ids, so
    # frontier processing shows the "little spatial locality" the
    # paper's server workloads exhibit.  Without this, the spine and
    # the ordered frontier would walk the offsets array sequentially.
    permutation = rng.permutation(n)
    relabeled: list[list[int]] = [[] for _ in range(n)]
    for vertex, neighbors in enumerate(adjacency):
        relabeled[permutation[vertex]] = sorted(
            int(permutation[neighbor]) for neighbor in neighbors
        )
    return relabeled


class CsrGraph:
    """CSR (offsets + edges) image of a graph in simulated memory."""

    def __init__(
        self,
        adjacency: list[list[int]],
        base_addr: int,
        world: FlatMemory,
    ) -> None:
        self.n = len(adjacency)
        self.base_addr = base_addr
        self.world = world
        self.edge_count = sum(len(neighbors) for neighbors in adjacency)
        self._edges_base = base_addr + (self.n + 1) * WORD_BYTES
        offset = 0
        for vertex, neighbors in enumerate(adjacency):
            world.write_word(self._offset_addr(vertex), offset)
            for position, neighbor in enumerate(neighbors):
                world.write_word(self._edge_addr(offset + position), neighbor)
            offset += len(neighbors)
        world.write_word(self._offset_addr(self.n), offset)

    @staticmethod
    def size_bytes(adjacency: list[list[int]]) -> int:
        n = len(adjacency)
        edges = sum(len(neighbors) for neighbors in adjacency)
        return (n + 1 + edges) * WORD_BYTES

    def _offset_addr(self, vertex: int) -> int:
        return self.base_addr + vertex * WORD_BYTES

    def _edge_addr(self, index: int) -> int:
        return self._edges_base + index * WORD_BYTES

    def neighbors_timed(self, ctx: AccessContext, vertex: int, work_count: int):
        """Read a vertex's neighbor list through the device API.

        One 2-read batch for the row bounds, then 2-read batches over
        the edge words, each followed by the benign work loop.
        """
        bounds = yield from ctx.read_batch(
            [self._offset_addr(vertex), self._offset_addr(vertex + 1)]
        )
        yield from ctx.work(work_count)
        start, end = bounds
        neighbors: list[int] = []
        index = start
        while index < end:
            batch = [self._edge_addr(index)]
            if index + 1 < end:
                batch.append(self._edge_addr(index + 1))
            words = yield from ctx.read_batch(batch)
            neighbors.extend(words)
            yield from ctx.work(work_count)
            index += len(batch)
        return neighbors


class BfsRun:
    """Shared state of one parallel, level-synchronous traversal."""

    def __init__(self, graph: CsrGraph, params: BfsParams, total_threads: int) -> None:
        self.graph = graph
        self.params = params
        self.distance = [-1] * graph.n
        self.distance[params.source] = 0
        self.frontier: list[int] = [params.source]
        self.next_frontier: list[int] = []
        self.level = 0
        self.done = False
        self._cursor = 0
        self.barrier = SpinBarrier(total_threads)

    def claim_vertex(self) -> int | None:
        """Hand the next frontier vertex to a worker (host-memory
        bookkeeping; shared work pool)."""
        if self._cursor >= len(self.frontier):
            return None
        vertex = self.frontier[self._cursor]
        self._cursor += 1
        return vertex

    def visit(self, neighbor: int) -> None:
        if self.distance[neighbor] < 0:
            self.distance[neighbor] = self.level + 1
            self.next_frontier.append(neighbor)

    def advance_level(self) -> None:
        """Called by exactly one thread per level, inside the barrier."""
        self.frontier = self.next_frontier
        self.next_frontier = []
        self._cursor = 0
        self.level += 1
        if not self.frontier:
            self.done = True


def bfs_thread(ctx: AccessContext, run: BfsRun, is_coordinator: bool):
    """One BFS worker: drain the frontier pool, sync, repeat."""
    graph = run.graph
    while not run.done:
        while True:
            vertex = run.claim_vertex()
            if vertex is None:
                break
            neighbors = yield from graph.neighbors_timed(
                ctx, vertex, run.params.work_count
            )
            for neighbor in neighbors:
                run.visit(neighbor)
        yield from run.barrier.wait(ctx)
        if is_coordinator:
            run.advance_level()
        yield from run.barrier.wait(ctx)


def install_bfs(
    system: System, params: BfsParams, threads_per_core: int
) -> list[BfsRun]:
    """Spawn one independent traversal per logical core.

    Each core gets its own copy of the graph in its own device
    partition and traverses it with its own threads -- the paper's
    multicore methodology ("we reuse the same recorded access sequence,
    after applying an address offset, to handle requests from multiple
    cores"), which also avoids cross-core barrier serialization.
    """
    adjacency = generate_graph(params)
    runs: list[BfsRun] = []
    for core_id in range(system.logical_cores):
        base = system.alloc_data(core_id, CsrGraph.size_bytes(adjacency))
        graph = CsrGraph(adjacency, base, system.world)
        runs.append(BfsRun(graph, params, threads_per_core))

    def factory(ctx: AccessContext, core_id: int, slot: int):
        return bfs_thread(ctx, runs[core_id], is_coordinator=(slot == 0))

    system.spawn_per_core(threads_per_core, factory)
    return runs
