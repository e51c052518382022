"""Block decomposition and minimal 2-connectivity by iterative low-link DFS.

One search decides every connectivity question in the package: ``decompose``
runs it once per graph, and ``is_minimally_two_connected`` runs it once, then
again without each edge whose removal is in doubt.  The search explores from
vertex 0 with neighbors in ascending index order, so blocks and cut vertices
come out deterministically.  ``decompose`` lists each block's vertices in
ascending order, so a 2-connected graph's one block is that graph itself.
It builds no graph for a block: a block's subgraph is built when a caller
first reads it, and a trivial block, a K2, is answered from its vertices.
An explicit stack lets the search survive paths too long for recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from .graph import Graph, _induced


@dataclass(frozen=True, init=False)
class Block:
    """One block of a parent graph: its parent-graph vertices, ascending, and
    the subgraph they induce, built on first read and then kept.  The block
    keeps the parent's label and adjacency tuples, not the parent, so the
    decomposition kept on a graph holds no reference back to it.
    ``Block(vertices, parent)`` fills in the three fields in one step."""

    vertices: tuple[int, ...]
    parent_labels: tuple[str, ...] = field(repr=False)
    parent_neighbors: tuple[tuple[int, ...], ...] = field(repr=False)

    def __init__(self, vertices: tuple[int, ...], parent: Graph) -> None:
        vars(self).update(vertices=vertices, parent_labels=parent.labels, parent_neighbors=parent.neighbors)

    @property
    def trivial(self) -> bool:
        """A K2: a connected graph's block of two vertices is one edge."""
        return len(self.vertices) == 2

    @property
    def labels(self) -> tuple[str, ...]:
        """The parent's labels of the block's vertices, in block order."""
        return tuple(map(self.parent_labels.__getitem__, self.vertices))

    @cached_property
    def graph(self) -> Graph:
        return _induced(self.parent_labels, self.parent_neighbors, self.vertices)


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
    once per graph and kept on it, outside its fields, with no block's graph
    built.  The search tests connectivity: a connected graph's r blocks hold
    n + r - 1 vertex slots."""
    if "_decomposition" not in vars(g):
        if g.order < 2:
            raise ValueError("block decomposition needs at least 2 vertices")
        raw_blocks, cuts = _dfs_engine(g.neighbors, root=0)
        if sum(map(len, raw_blocks)) - len(raw_blocks) + 1 != g.order:
            raise ValueError("block decomposition needs a connected graph")
        blocks = tuple(Block(vs, g) for vs in map(tuple, map(sorted, raw_blocks)))
        vars(g)["_decomposition"] = BlockDecomposition(blocks, frozenset(cuts))
    return vars(g)["_decomposition"]

