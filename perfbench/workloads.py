"""Seeded inputs for the benchmark workloads, with answers known by construction.

Every generated graph is glued from blocks whose template graphs and values
the benchmark knows, so an answer is checked against the construction rather
than against the program's own decomposition or solver.  Graphs are written
in the matrix format: the edge-list reader drops edges whose first label is
``v`` (ROADMAP open item 3), and the labels here are ``v1``..``vn``.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from typing import Optional, Sequence

Edges = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Block:
    """One block: a template graph and the global vertex of each template vertex.

    ``key`` names the template in messages.
    """

    key: str
    order: int
    edges: Edges
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class Item:
    """One generated input; ``value`` is None where only the test suite knows it."""

    family: str
    order: int
    edges: Edges
    blocks: tuple[Block, ...]
    value: Optional[int]

    def matrix_text(self) -> str:
        n = self.order
        rows = [[0] * n for _ in range(n)]
        for u, v in self.edges:
            rows[u][v] = rows[v][u] = 1
        lines = [", ".join(labels(n))]
        lines += [", ".join(str(b) for b in row) for row in rows]
        return "\n".join(lines) + "\n"


def labels(n: int) -> list[str]:
    return [f"v{i + 1}" for i in range(n)]


def write_items(items: Sequence[Item], directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, item in enumerate(items):
        path = os.path.join(directory, f"g{i:04d}-{item.family}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(item.matrix_text())
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Templates and their values

BRIDGE: Edges = ((0, 1),)


def cycle_edges(k: int) -> Edges:
    return tuple((i, (i + 1) % k) for i in range(k))


def cycle_value(k: int) -> int:
    """C3 is complete (value 3); longer cycles have value floor(k/2)."""
    return 3 if k == 3 else k // 2


def wheel_edges(n: int) -> Edges:
    rim = n - 1
    return tuple((0, i) for i in range(1, n)) + tuple((i, i % rim + 1) for i in range(1, n))


def theta_edges(internal: Sequence[int]) -> tuple[int, Edges]:
    """Hubs 0 and 1 joined by paths with the given internal vertex counts."""
    edges = []
    nxt = 2
    for m in internal:
        prev = 0
        for _ in range(m):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
        edges.append((prev, 1))
    return nxt, tuple(edges)


# Non-minimal 2-connected blocks of order 4..8: the catalog holds only minimal
# blocks, so these miss it and fall through to exact search.  Values come from
# exact search and agree with the partition oracle in tests/oracles.py.
NON_MINIMAL: dict[str, tuple[int, Edges, int]] = {
    "diamond": (4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)), 3),
    "wheel5": (5, wheel_edges(5), 1),
    "theta1110": (5, theta_edges((1, 1, 1, 0))[1], 4),
    "prism": (6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)), 1),
    "k33": (6, tuple((a, b) for a in range(3) for b in range(3, 6)), 2),
    "theta220": (6, theta_edges((2, 2, 0))[1], 2),
    "wheel7": (7, wheel_edges(7), 1),
    "theta320": (7, theta_edges((3, 2, 0))[1], 2),
    "cube": (8, tuple((a, b) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1), 2),
    "theta330": (8, theta_edges((3, 3, 0))[1], 3),
}


@dataclass(frozen=True)
class Template:
    order: int
    edges: Edges
    value: int


def load_census() -> list[Template]:
    """The minimal blocks of order 3..9 (the census), with their values.

    ``census.txt`` holds one block per line: order, value, edges.  The values
    come from exact search and agree with the partition oracle in
    tests/oracles.py.
    """
    out = []
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "census.txt"), encoding="utf-8") as fh:
        for line in fh:
            order, value, *edges = line.split()
            pairs = tuple(tuple(int(x) for x in e.split("-")) for e in edges)
            out.append(Template(int(order), pairs, int(value)))  # type: ignore[arg-type]
    return out


def census_values(census: Sequence[Template]) -> dict[int, str]:
    """Per order, the sorted values of its census blocks, as a digit string."""
    out: dict[int, str] = {}
    for t in sorted(census, key=lambda t: (t.order, t.value)):
        out[t.order] = out.get(t.order, "") + str(t.value)
    return out


# ---------------------------------------------------------------------------
# Gluing


class _Glue:
    """Grows a connected graph one block at a time, each sharing one vertex."""

    def __init__(self) -> None:
        self.n = 1
        self.edges: list[tuple[int, int]] = []
        self.blocks: list[Block] = []
        self.value_sum = 0

    def attach(self, rng: random.Random, key: str, order: int, edges: Edges, value: int,
               anchor: Optional[int] = None) -> None:
        """Glue a template on: a random template vertex becomes ``anchor``.

        Without an anchor a random existing vertex is used; the first block
        of a graph keeps the template's vertex order.
        """
        if anchor is None:
            anchor = rng.randrange(self.n)
        shared = rng.randrange(order) if self.blocks else 0
        verts = []
        for local in range(order):
            if local == shared:
                verts.append(anchor)
            else:
                verts.append(self.n)
                self.n += 1
        self.edges += [(verts[u], verts[v]) for u, v in edges]
        self.blocks.append(Block(key, order, edges, tuple(verts)))
        self.value_sum += value

    def item(self, rng: random.Random, family: str, value: Optional[int], shuffle: bool) -> Item:
        """The glued graph; ``shuffle`` randomly permutes the vertex order."""
        perm = list(range(self.n))
        if shuffle:
            rng.shuffle(perm)
        blocks = tuple(
            Block(b.key, b.order, b.edges, tuple(perm[v] for v in b.vertices)) for b in self.blocks
        )
        edges = tuple((perm[u], perm[v]) for u, v in self.edges)
        return Item(family, self.n, edges, blocks, value)

    def composed_value(self) -> int:
        """Composition identity: sum of block values minus the block count plus 1."""
        return self.value_sum - len(self.blocks) + 1


# ---------------------------------------------------------------------------
# Sparse ops: trees, paths and cacti; every block is a bridge or a cycle


def tree(rng: random.Random, n: int) -> Item:
    glue = _Glue()
    while glue.n < n:
        glue.attach(rng, "bridge", 2, BRIDGE, 2)
    return glue.item(rng, f"tree{n}", n, shuffle=False)


def path(rng: random.Random, n: int) -> Item:
    glue = _Glue()
    while glue.n < n:
        glue.attach(rng, "bridge", 2, BRIDGE, 2, anchor=glue.n - 1)
    return glue.item(rng, f"path{n}", n, shuffle=True)


def cactus(rng: random.Random, n: int) -> Item:
    """Cycles C3..C8 and bridges hung on random earlier vertices, n vertices total."""
    glue = _Glue()
    while glue.n < n:
        k = rng.randint(2, 8)
        if k - 1 > n - glue.n or k == 2:
            glue.attach(rng, "bridge", 2, BRIDGE, 2)
        else:
            glue.attach(rng, f"C{k}", k, cycle_edges(k), cycle_value(k))
    return glue.item(rng, f"cactus{n}", glue.composed_value(), shuffle=False)


# ---------------------------------------------------------------------------
# Exact ops: single 2-connected blocks with no closed form


def _biconnected(n: int, edges: Edges) -> bool:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def connected_without(skip: int) -> bool:
        start = 0 if skip != 0 else 1
        seen = {start, skip}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    return all(connected_without(v) for v in range(n))


def _single_block(rng: random.Random, family: str, n: int, edges: Edges, value: Optional[int],
                  shuffle: bool) -> Item:
    glue = _Glue()
    glue.attach(rng, family, n, edges, 0)
    return glue.item(rng, family, value, shuffle)


def random_block(rng: random.Random, n: int, p: float, tag: str) -> Item:
    """G(n, p) conditioned on being 2-connected, neither complete nor a cycle."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        edges = tuple(e for e in pairs if rng.random() < p)
        if n < len(edges) < len(pairs) and _biconnected(n, edges):
            return _single_block(rng, f"rand{n}-{tag}", n, edges, None, shuffle=True)


def wheel(rng: random.Random, n: int) -> Item:
    """Hub plus a rim of n-1, in construction order; the value is 1 at orders 8..10."""
    return _single_block(rng, f"wheel{n}", n, wheel_edges(n), 1, shuffle=False)


def theta(rng: random.Random, internal: Sequence[int], chord: bool) -> Item:
    """Theta graph in construction order, optionally with a chord between the first two paths.

    Named families keep their construction order because the exact search's
    cost swings with vertex order (up to 20x at order 11); random blocks
    carry the seed's variety.
    """
    n, edges = theta_edges(internal)
    name = "theta" + "".join(str(m) for m in internal)
    if chord:
        edges += ((2, 2 + internal[0]),)
        name += "+chord"
    return _single_block(rng, name, n, edges, None, shuffle=False)


# ---------------------------------------------------------------------------
# Glued ops: census blocks and non-minimal blocks glued at cut vertices


@dataclass(frozen=True)
class CatalogFile:
    """One entry file of a catalog directory, as the benchmark reads it."""

    name: str
    order: int
    edges: Edges
    coloring: tuple[int, ...]

    @property
    def value(self) -> int:
        return len(set(self.coloring))


def read_catalog_file(path: str) -> CatalogFile:
    """Parse a catalog entry file (matrix with ``label:color`` labels)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    head = [tok.strip() for tok in lines[0].split(",")]
    coloring = tuple(int(tok.rsplit(":", 1)[1]) for tok in head)
    n = len(head)
    rows = [[int(tok) for tok in ln.split(",")] for ln in lines[1:]]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"{path}: matrix is not {n}x{n}")
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rows[u][v])
    return CatalogFile(os.path.basename(path)[: -len(".txt")], n, edges, coloring)


def glued(rng: random.Random, census: Sequence[Template], blocks: int, non_minimal: int,
          bridges: int) -> Item:
    """Census blocks of order 5..9 plus non-minimal blocks and bridges, shuffled."""
    kinds = ["census"] * (blocks - non_minimal) + ["non-minimal"] * non_minimal + ["bridge"] * bridges
    rng.shuffle(kinds)
    glue = _Glue()
    for kind in kinds:
        if kind == "census":
            t = rng.choice(census)
            glue.attach(rng, f"census{t.order}", t.order, t.edges, t.value)
        elif kind == "non-minimal":
            key = rng.choice(sorted(NON_MINIMAL))
            order, edges, value = NON_MINIMAL[key]
            glue.attach(rng, key, order, edges, value)
        else:
            glue.attach(rng, "bridge", 2, BRIDGE, 2)
    return glue.item(rng, f"glued{blocks}", glue.composed_value(), shuffle=True)
