"""Seeded random constructions shared across the test suite."""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from mvdcolor.catalog import generate_minimal_blocks_up_to
from mvdcolor.graph import Graph, default_labels
from oracles import components


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    labels = default_labels(n)
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        p = rng.choice((0.25, 0.35, 0.5))
        edges = [e for e in pairs if rng.random() < p]
        g = Graph.from_edges(labels, edges)
        if g.order >= 2 and len(components(g, set())) == 1:
            return g


def random_tree(rng: random.Random, n: int) -> Graph:
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Graph.from_edges(default_labels(n), edges)


def attach_blocks(rng: random.Random, block_templates: Sequence[Graph], count: int) -> Graph:
    """Glue blocks into a random tree-of-blocks, identifying one vertex each time.

    Every template's vertex 0 is merged with a random existing vertex; the
    result's blocks are exactly the chosen templates.
    """
    chosen = [rng.choice(block_templates) for _ in range(count)]
    edges: list[tuple[int, int]] = []
    total = 1
    for tpl in chosen:
        anchor = rng.randrange(total)
        remap = {0: anchor}
        for v in range(1, tpl.order):
            remap[v] = total
            total += 1
        for u, v in tpl.edges():
            edges.append((remap[u], remap[v]))
    return Graph.from_edges(default_labels(total), edges)


def theta_specs(max_order: int, min_threads: int = 3) -> list[tuple[int, ...]]:
    """Inner-vertex counts, nonincreasing, of every theta P(m_1..m_k) with all
    m_i >= 1, k >= min_threads and order 2 + sum m_i <= max_order."""

    def split(total: int, largest: int) -> list[tuple[int, ...]]:
        if total == 0:
            return [()]
        return [(m, *rest) for m in range(min(total, largest), 0, -1) for rest in split(total - m, m)]

    return [ms for total in range(1, max_order - 1) for ms in split(total, total) if len(ms) >= min_threads]


def random_cactus(rng: random.Random, blocks: int, even_only: bool = True) -> Graph:
    """Cactus built from bridges and cycle blocks."""
    from mvdcolor.graph import cycle_graph

    cycle_sizes = (4, 6, 8) if even_only else (3, 4, 5, 6, 7)
    bridge = Graph.from_edges(["a", "b"], [(0, 1)])
    templates = [bridge] + [cycle_graph(k) for k in cycle_sizes]
    return attach_blocks(rng, templates, blocks)


def with_pendants(core: Graph, pendants: int) -> Graph:
    """Core plus pendant vertices hung off core vertices round-robin."""
    n = core.order
    labels = default_labels(n + pendants)
    edges = list(core.edges())
    for i in range(pendants):
        edges.append((i % n, n + i))
    return Graph.from_edges(labels, edges)


def format_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format (inverse of ``graph.parse_edge_list``)."""
    out = [f"n {g.order}"]
    out.extend(f"{g.labels[u]} {g.labels[v]}" for u, v in g.edges())
    out.extend(g.labels[v] for v in range(g.order) if not g.neighbors[v])
    return "\n".join(out) + "\n"


def census_graphs(max_order: int) -> dict[int, list[Graph]]:
    """The census of minimal blocks of orders 3..max_order, without their labellings."""
    return {n: [g for g, _ in found] for n, found in generate_minimal_blocks_up_to(max_order).items()}


def generate_minimal_blocks(n: int) -> list[Graph]:
    """All minimally 2-connected graphs of order n, up to isomorphism."""
    return census_graphs(n)[n]


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(default_labels(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


def wheel_graph(n: int) -> Graph:
    """A hub joined to every vertex of a cycle on the other n - 1 vertices."""
    rim = n - 1
    edges = [(i, (i + 1) % rim) for i in range(rim)] + [(i, rim) for i in range(rim)]
    return Graph.from_edges(default_labels(n), edges)
