"""Block decomposition and minimal 2-connectivity by iterative low-link DFS.

One search decides every connectivity question in the package: ``decompose``
runs it once per graph, and ``is_minimally_two_connected`` runs it once, then
again without each edge whose removal is in doubt.  The search explores from
vertex 0 with neighbors in ascending index order, so blocks and cut vertices
come out deterministically.  ``decompose`` lists each block's vertices in
ascending order, so a 2-connected graph's one block is that graph itself.
An explicit stack lets the search survive paths too long for recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import Graph, induced_subgraph


@dataclass(frozen=True)
class Block:
    """One block: its parent-graph vertices, ascending, and the subgraph they
    induce, a copy even when it is the whole graph (no reference cycle)."""

    vertices: tuple[int, ...]
    graph: Graph

    @property
    def trivial(self) -> bool:
        return self.graph.order == 2


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks in DFS completion order, and the cut vertices.

    The last block contains the DFS root, and every other block shares
    exactly one vertex with the blocks after it: its articulation parent, a
    cut vertex.  So walking the blocks backwards, each meets the part
    already walked at one vertex.
    """

    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]

    @property
    def r(self) -> int:
        return len(self.blocks)

    @property
    def t(self) -> int:
        return sum(1 for b in self.blocks if b.trivial)


def _dfs_engine(neighbors: Sequence[Sequence[int]], root: int) -> tuple[list[list[int]], set[int]]:
    """Blocks (as vertex lists) and cut vertices of the root's component.

    Graphs are simple, so the only edge to skip is the one back to the parent;
    any other edge to a discovered vertex reaches an ancestor or a descendant,
    and only an ancestor can lower the low-link.  The root is a cut vertex iff
    it has two or more DFS children.
    """
    n = len(neighbors)
    dfs = [0] * n
    low = [0] * n
    parent: list[Optional[int]] = [None] * n
    ptr = [0] * n
    stack = [root]
    blocks: list[list[int]] = []
    cuts: set[int] = set()
    root_children = 0

    dfs[root] = 1
    low[root] = 1
    counter = 1
    v = root
    while True:
        if ptr[v] < len(neighbors[v]):
            w = neighbors[v][ptr[v]]
            ptr[v] += 1
            if dfs[w] == 0:
                stack.append(w)
                parent[w] = v
                counter += 1
                dfs[w] = counter
                low[w] = counter
                v = w
            elif w != parent[v]:
                low[v] = min(low[v], dfs[w])
        else:
            p = parent[v]
            if p is None:
                break
            if low[v] >= dfs[p]:
                if p == root:
                    root_children += 1
                else:
                    cuts.add(p)
                popped = []
                while True:
                    u = stack.pop()
                    popped.append(u)
                    if u == v:
                        break
                popped.append(p)
                blocks.append(popped)
            else:
                low[p] = min(low[p], low[v])
            v = p
    if root_children >= 2:
        cuts.add(root)
    return blocks, cuts


def is_minimally_two_connected(g: Graph) -> bool:
    """2-connected, and every single edge removal destroys 2-connectivity.

    g is 2-connected when it has order >= 3 and the block search finds one
    block covering all its vertices.  Dropping an edge leaves a 2-connected
    graph connected, so the edge is needed iff the block search then finds
    more than one block.  An edge with an end of degree 2 is always needed:
    without it, that end's one remaining neighbour is a cut vertex.  So the
    search reruns only for edges between vertices of degree >= 3, and a cycle
    takes one search.
    """
    if g.order < 3:
        return False
    blocks, _ = _dfs_engine(g.neighbors, root=0)
    if len(blocks) != 1 or len(blocks[0]) != g.order:
        return False
    neighbors = list(g.neighbors)
    for u, v in g.edges():
        if len(g.neighbors[u]) == 2 or len(g.neighbors[v]) == 2:
            continue
        neighbors[u] = tuple(w for w in g.neighbors[u] if w != v)
        neighbors[v] = tuple(w for w in g.neighbors[v] if w != u)
        blocks, _ = _dfs_engine(neighbors, root=0)
        if len(blocks) == 1:
            return False
        neighbors[u], neighbors[v] = g.neighbors[u], g.neighbors[v]
    return True


def decompose(g: Graph) -> BlockDecomposition:
    """All blocks and cut vertices of a connected graph of order >= 2, found
    once per graph and kept on it, outside its fields.  The search tests
    connectivity: a connected graph's r blocks hold n + r - 1 vertex slots."""
    if "_decomposition" not in vars(g):
        if g.order < 2:
            raise ValueError("block decomposition needs at least 2 vertices")
        raw_blocks, cuts = _dfs_engine(g.neighbors, root=0)
        if sum(map(len, raw_blocks)) - len(raw_blocks) + 1 != g.order:
            raise ValueError("block decomposition needs a connected graph")
        blocks = tuple(Block(vs, induced_subgraph(g, vs)) for vs in map(tuple, map(sorted, raw_blocks)))
        vars(g)["_decomposition"] = BlockDecomposition(blocks, frozenset(cuts))
    return vars(g)["_decomposition"]

