from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from typing import Optional

import pytest

from mvdcolor.blocks import Block, decompose
from mvdcolor.catalog import Catalog, CatalogEntry, theta_graph
from mvdcolor.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    default_labels,
    induced_subgraph,
    load_graph,
    path_graph,
)
from mvdcolor.iso import _Partition, canonical_labelling
from mvdcolor.solve import mvd_closed_form, mvd_exact, mvd_via_blocks, solve_block
from mvdcolor.verify import is_mvd_coloring
from builders import attach_blocks, census_graphs, random_connected_graph, random_tree, star_graph
from oracles import brute_force_isomorphism, reference_canonical_labelling


def shuffled_copy(g, rng):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return induced_subgraph(g, perm)


def labelling_map(g: Graph, h: Graph) -> Optional[dict[int, int]]:
    """g's canonical order paired with h's, position by position, when their relabelled graphs are equal."""
    a, b = canonical_labelling(g), canonical_labelling(h)
    return dict(zip(a.order, b.order)) if a.relabelled == b.relabelled else None


def key(g: Graph) -> str:
    return canonical_labelling(g).key


def test_degree_sequence_mismatch():
    assert labelling_map(cycle_graph(4), star_graph(3)) is None


def test_example_block_matches_resource_graph(data_dir):
    g, _ = load_graph(str(data_dir / "example17.txt"))
    resource, _ = load_graph(str(data_dir / "typeset9" / "graph_9Vertex-9.txt"))
    block = induced_subgraph(g, [g.index_of(lab) for lab in "KPJNHGFEA"])
    mapping = labelling_map(block, resource)
    assert mapping is not None
    for u in range(block.order):
        for v in range(u + 1, block.order):
            assert block.has_edge(u, v) == resource.has_edge(mapping[u], mapping[v])


def test_relabeled_cycle_matches():
    rng = random.Random(1)
    c5 = cycle_graph(5)
    other = shuffled_copy(c5, rng)
    mapping = labelling_map(c5, other)
    assert mapping is not None
    assert sorted(mapping.values()) == list(range(5))


def test_matcher_agrees_with_permutation_brute_force():
    rng = random.Random(314)
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 6)
        g = random_connected_graph(rng, n)
        if rng.random() < 0.5:
            h = shuffled_copy(g, rng)
        else:
            h = random_connected_graph(rng, n)
        got = labelling_map(g, h)
        want = brute_force_isomorphism(g, h)
        assert (got is None) == (want is None)
        if got is not None:
            for u in range(n):
                for v in range(u + 1, n):
                    assert g.has_edge(u, v) == h.has_edge(got[u], got[v])
        checked += 1


def test_canonical_form_examples():
    rng = random.Random(9)
    c4 = cycle_graph(4)
    assert key(c4) == key(shuffled_copy(c4, rng))
    assert key(c4) != key(path_graph(4))
    # non-isomorphic thetas of equal order, confirmed by the permutation oracle
    a, b = theta_graph([2, 1, 1]), theta_graph([1, 1, 1, 1])
    assert brute_force_isomorphism(a, b) is None
    assert key(a) != key(b)


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(27)
    for trial in range(8):
        g = random_connected_graph(rng, rng.randint(2, 8))
        want = key(g)
        for _ in range(50):
            assert key(shuffled_copy(g, rng)) == want


def test_order_13_path_and_shuffled_copy_share_a_key():
    # the key has no order guard: the search is bounded by its node budget alone
    g = path_graph(13)
    assert key(g) == key(shuffled_copy(g, random.Random(13))) != key(cycle_graph(13))


def test_canonical_form_separates_nonisomorphic_small_graphs():
    rng = random.Random(300)
    for trial in range(200):
        n = rng.randint(2, 6)
        g = random_connected_graph(rng, n)
        h = random_connected_graph(rng, n)
        same_key = key(g) == key(h)
        assert same_key == (brute_force_isomorphism(g, h) is not None)


def test_canonical_form_handles_heavy_twin_symmetry():
    # complete bipartite hubs: factorial many equal orderings without twin pruning
    g = theta_graph([1] * 8)  # K_{2,8}
    rng = random.Random(5)
    assert key(shuffled_copy(g, rng)) == key(g)
    assert key(complete_graph(10)) == key(complete_graph(10))


def with_twins(rng: random.Random, g: Graph, count: int) -> Graph:
    """g plus count new vertices, each an open or a closed twin of a random earlier one."""
    edges = g.edges()
    for new in range(g.order, g.order + count):
        v = rng.randrange(new)
        edges += [(a + b - v, new) for a, b in edges if v in (a, b)]
        if rng.random() < 0.5:
            edges.append((v, new))
    return Graph.from_edges(default_labels(g.order + count), edges)


def assert_automorphisms(g: Graph) -> None:
    edges = {frozenset(e) for e in g.edges()}
    for p in canonical_labelling(g).automorphisms:
        assert sorted(p) == sorted(p.values()) and all(p[v] != v for v in p)
        assert {frozenset(p.get(v, v) for v in e) for e in edges} == edges


def test_returned_automorphisms_map_edges_onto_edges():
    for blocks in census_graphs(9).values():
        for g in blocks:
            assert_automorphisms(g)
    rng = random.Random(91)
    for trial in range(300):
        n = rng.randint(2, 9)
        twins = rng.randint(1, 3) if trial % 2 and n <= 6 else 0
        assert_automorphisms(with_twins(rng, random_connected_graph(rng, n), twins))


def test_labelling_key_is_canonical_form():
    # ``n|bits``: adjacency of each pair of the canonical order, row by row below the diagonal
    rng = random.Random(12)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 9))
        order = canonical_labelling(g).order
        bits = "".join("1" if g.has_edge(order[i], order[j]) else "0" for i in range(g.order) for j in range(i))
        assert key(g) == f"{g.order}|{bits}"


def _catalog_block_of_order_7() -> tuple[Catalog, Graph]:
    """A catalog holding the one order-7 minimal block no closed form answers, and a relabelled copy."""
    (block,) = [g for g in census_graphs(7)[7] if mvd_closed_form(g) is None]
    cat = Catalog()
    cat.add(CatalogEntry("b7", block, mvd_exact(block).coloring))
    return cat, shuffled_copy(block, random.Random(77))


def test_transfer_coloring():
    # a catalog answer is the entry's coloring pulled back along the lookup's vertex map
    cat, relabelled = _catalog_block_of_order_7()
    entry, mapping = cat.lookup(relabelled)
    result = solve_block(Block(tuple(range(relabelled.order)), relabelled), cat)
    assert result.method == "catalog:b7"
    assert result.coloring == {v: entry.coloring[mapping[v]] for v in range(relabelled.order)}
    sizes = Counter(Counter(result.coloring.values()).values())
    assert sizes == Counter(Counter(entry.coloring.values()).values())
    assert is_mvd_coloring(relabelled, result.coloring).ok


def test_transferred_catalog_coloring_verifies_on_block(data_dir):
    g, _ = load_graph(str(data_dir / "example17.txt"))
    resource, coloring = load_graph(str(data_dir / "typeset9" / "graph_9Vertex-11.txt"))
    block = induced_subgraph(g, [g.index_of(lab) for lab in "IMDOCLQBH"])
    mapping = labelling_map(block, resource)
    assert mapping is not None
    assert is_mvd_coloring(block, {v: coloring[w] for v, w in mapping.items()}).ok


def test_transfer_commutes_with_restriction():
    # stitching renames colors but keeps each block's classes: the glued graph's coloring,
    # restricted to the catalog block, has the classes of the pulled-back entry coloring
    cat, relabelled = _catalog_block_of_order_7()
    glued = attach_blocks(random.Random(88), [relabelled, cycle_graph(5)], 4)
    result = mvd_via_blocks(glued, cat)
    for block, how in zip(decompose(glued).blocks, result.block_methods):
        if how == "catalog:b7":
            alone = solve_block(block, cat).coloring
            classes = {frozenset(v for v in alone if alone[v] == c) for c in alone.values()}
            local = {i: result.coloring[v] for i, v in enumerate(block.vertices)}
            assert {frozenset(v for v in local if local[v] == c) for c in local.values()} == classes
    assert "catalog:b7" in result.block_methods


def srg_16_6_2_2_pair() -> tuple[Graph, Graph]:
    """The Shrikhande graph and the 4x4 rook's graph: both SRG(16, 6, 2, 2), not isomorphic."""
    cells = [(i, j) for i in range(4) for j in range(4)]
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}

    def make(adjacent) -> Graph:
        pairs = itertools.combinations(range(16), 2)
        return Graph.from_edges(default_labels(16), [(a, b) for a, b in pairs if adjacent(cells[a], cells[b])])

    shrikhande = make(lambda p, q: ((q[0] - p[0]) % 4, (q[1] - p[1]) % 4) in steps)
    rook = make(lambda p, q: (p[0] == q[0]) != (p[1] == q[1]))
    return shrikhande, rook


def test_refinement_leaves_strongly_regular_graphs_in_one_cell():
    for g in srg_16_6_2_2_pair():
        p = _Partition(16)
        p.refine(g.neighbors, [0], set())
        assert p.end[0] == 16 and set(p.cell) == {0}


def test_search_agrees_with_networkx():
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        out = nx.Graph()
        out.add_nodes_from(range(g.order))
        out.add_edges_from(g.edges())
        return out

    rng = random.Random(4242)
    pairs = []
    for _ in range(200):
        n = rng.randint(2, 12)
        g = random_connected_graph(rng, n)
        pairs.append((g, shuffled_copy(g, rng) if rng.random() < 0.5 else random_connected_graph(rng, n)))
    census = census_graphs(10)
    for blocks in census.values():
        for base in blocks:
            free = [(u, v) for u, v in itertools.combinations(range(base.order), 2) if not base.has_edge(u, v)]
            chorded = Graph.from_edges(base.labels, base.edges() + [rng.choice(free)]) if free else base
            pairs += [(base, shuffled_copy(base, rng)), (chorded, shuffled_copy(chorded, rng))]
            pairs += [(base, chorded), (base, shuffled_copy(rng.choice(blocks), rng))]
    shrikhande, rook = srg_16_6_2_2_pair()
    for g in (complete_graph(10), theta_graph([1] * 8), shrikhande, rook):
        pairs.append((g, shuffled_copy(g, rng)))
    pairs.append((shrikhande, rook))
    for g, h in pairs:
        want = nx.is_isomorphic(to_nx(g), to_nx(h))
        mapping = labelling_map(g, h)
        assert (mapping is not None) == want
        if mapping is not None:
            assert sorted(mapping.values()) == list(range(h.order))
            assert all(h.has_edge(mapping[u], mapping[v]) for u, v in g.edges())
        assert (key(g) == key(h)) == want


def cubic(rng: random.Random, n: int, offset: int = 0) -> list[tuple[int, int]]:
    """The edges of a random simple cubic graph on offset .. offset + n - 1."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {(min(a, b) + offset, max(a, b) + offset) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(edges) == 3 * n // 2:
            return sorted(edges)


def test_canonical_labelling_is_invariant_on_regular_graphs():
    """Random cubic graphs, alone and in disjoint pairs: refinement leaves them
    in one cell, so the search must prune by automorphisms without losing the
    least leaf."""
    rng = random.Random(8)
    graphs = [Graph.from_edges(default_labels(n), cubic(rng, n)) for n in (8, 10, 12, 14, 16) for _ in range(8)]
    graphs += [Graph.from_edges(default_labels(16), cubic(rng, 8) + cubic(rng, 8, 8)) for _ in range(40)]
    for g in graphs:
        relabelled = canonical_labelling(g)[1]
        for _ in range(5):
            assert canonical_labelling(shuffled_copy(g, rng))[1] == relabelled


def test_search_matches_reference_search():
    """The order, the relabelled graph (so the key) and the automorphisms all equal those
    of the search that sorts every touched cell whole and copies the partition per node."""
    rng = random.Random(2014)
    graphs = [g for blocks in census_graphs(10).values() for g in blocks]
    graphs += [path_graph(n) for n in (2, 3, 50, 300)] + [cycle_graph(n) for n in (3, 50, 300)]
    graphs += [random_tree(rng, n) for n in (50, 50, 300, 300)]
    graphs += [theta_graph([1] * k) for k in (2, 5, 8)] + [star_graph(k) for k in (2, 5, 9)]
    graphs += [with_twins(rng, random_connected_graph(rng, rng.randint(2, 7)), rng.randint(1, 4)) for _ in range(200)]
    graphs += [Graph.from_edges(default_labels(n), cubic(rng, n)) for n in (8, 12, 16, 20) for _ in range(5)]
    graphs += [Graph.from_edges(default_labels(16), cubic(rng, 8) + cubic(rng, 8, 8)) for _ in range(5)]
    graphs += [*srg_16_6_2_2_pair(), complete_graph(1), complete_graph(2), complete_graph(9)]
    graphs += [shuffled_copy(g, rng) for g in graphs]
    graphs += [random_connected_graph(rng, rng.randint(2, 12)) for _ in range(3000)]
    for g in graphs:
        assert canonical_labelling(g) == reference_canonical_labelling(g), g.edges()


LARGE_SPARSE = {
    "P10000": lambda: path_graph(10_000),
    "C2000": lambda: cycle_graph(2000),
    "random_tree(10000)": lambda: random_tree(random.Random(1), 10_000),
}


@pytest.mark.parametrize("name, budget", [("P10000", 1.0), ("C2000", 0.3), ("random_tree(10000)", 3.0)])
def test_canonical_labelling_large_sparse_within_budget(name, budget):
    g = LARGE_SPARSE[name]()
    t0 = time.time()
    labelling = canonical_labelling(g)
    elapsed = time.time() - t0
    ok = elapsed < budget
    line = f"canonical_labelling {name}: {'PASS' if ok else 'FAIL (over budget)'} ({elapsed:.2f}s of {budget:.1f}s budget)"
    print(line)
    pos = {v: i for i, v in enumerate(labelling.order)}
    assert sorted(labelling.order) == list(range(g.order))
    assert labelling.relabelled == tuple(tuple(sorted(pos[w] for w in g.neighbors[v])) for v in labelling.order)
    h = shuffled_copy(g, random.Random(2))  # outside the budget: a shuffled copy maps edges onto edges
    mapping = labelling_map(g, h)
    assert mapping is not None and all(h.has_edge(mapping[u], mapping[v]) for u, v in g.edges())
    assert ok, line


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(LARGE_SPARSE))
def test_large_sparse_labelling_matches_reference_search(name):
    g = LARGE_SPARSE[name]()
    assert canonical_labelling(g) == reference_canonical_labelling(g)
