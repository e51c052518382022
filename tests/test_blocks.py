from __future__ import annotations

import random

import pytest

from mvdcolor.blocks import decompose
from mvdcolor.catalog import is_minimally_two_connected, theta_graph
from mvdcolor.graph import Graph, cycle_graph, load_graph, path_graph
from builders import attach_blocks, census_graphs, random_cactus, random_connected_graph, random_tree, star_graph
from oracles import naive_cut_vertices, oracle_is_two_connected


@pytest.fixture(scope="module")
def example17(data_dir):
    g, _ = load_graph(str(data_dir / "example17.txt"))
    return g


def test_example_cut_vertices_and_block_sets(example17):
    g = example17
    dec = decompose(g)
    assert {g.labels[v] for v in dec.cut_vertices} == {"H"}
    sets = [frozenset(g.labels[v] for v in b.vertices) for b in dec.blocks]
    assert frozenset("BCDHILMOQ") in sets
    assert frozenset("AEFGHJKNP") in sets
    assert len(sets) == 2


def test_example_block_emission_order_is_deterministic(example17):
    # Golden emission order: blocks in DFS completion order, each listing its vertices ascending.
    g = example17
    dec = decompose(g)
    orders = [[g.labels[v] for v in b.vertices] for b in dec.blocks]
    assert orders[0] == list("BCDHILMOQ")
    assert orders[1] == list("AEFGHJKNP")


def test_cycle_is_one_block():
    dec = decompose(cycle_graph(5))
    assert dec.r == 1 and not dec.cut_vertices
    assert not dec.blocks[0].trivial


def test_path_decomposes_into_trivial_blocks():
    dec = decompose(path_graph(4))
    assert dec.r == 3 and dec.t == 3
    assert dec.cut_vertices == frozenset({1, 2})


def test_decompose_rejects_bad_input():
    from mvdcolor.graph import Graph

    with pytest.raises(ValueError):
        decompose(Graph(("a",), ((),)))
    with pytest.raises(ValueError):
        decompose(Graph.from_edges(["a", "b", "c", "d"], [(0, 1), (2, 3)]))


def test_lowlink_cut_criterion():
    # the DFS root (vertex 0) is a cut vertex iff it has two or more tree
    # children; any other vertex iff some child's low link reaches its number
    assert decompose(star_graph(3)).cut_vertices == frozenset({0})
    assert decompose(Graph.from_edges(list("abcd"), [(1, 0), (1, 2), (1, 3)])).cut_vertices == frozenset({1})
    assert decompose(path_graph(3)).cut_vertices == frozenset({1})
    assert not decompose(cycle_graph(6)).cut_vertices
    bowtie = Graph.from_edges(list("abcde"), [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    assert decompose(bowtie).cut_vertices == frozenset({0})


def test_naive_cut_vertices(example17):
    assert {example17.labels[v] for v in naive_cut_vertices(example17)} == {"H"}
    assert naive_cut_vertices(cycle_graph(7)) == frozenset()
    assert naive_cut_vertices(path_graph(5)) == frozenset({1, 2, 3})


def test_decompose_agrees_with_naive_on_random_sample():
    rng = random.Random(20240817)
    for trial in range(500):
        n = rng.randint(3, 8)
        g = random_connected_graph(rng, n)
        dec = decompose(g)
        assert dec.cut_vertices == naive_cut_vertices(g), g


def test_structural_invariants_on_random_sample():
    rng = random.Random(99)
    for trial in range(120):
        n = rng.randint(2, 9)
        g = random_connected_graph(rng, n)
        dec = decompose(g)

        # every edge in exactly one block
        labeled = [
            {frozenset((b.graph.labels[u], b.graph.labels[v])) for u, v in b.graph.edges()}
            for b in dec.blocks
        ]
        total = sum(len(s) for s in labeled)
        union = set().union(*labeled) if labeled else set()
        g_edges = {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}
        assert total == len(union) == len(g_edges)
        assert union == g_edges

        # counting identity
        assert sum(b.graph.order for b in dec.blocks) - dec.r + 1 == n

        # block kinds
        for b in dec.blocks:
            if b.trivial:
                assert b.graph.order == 2 and b.graph.size == 1
            else:
                assert oracle_is_two_connected(b.graph)

        # membership: in >= 2 blocks iff cut vertex
        for v in range(n):
            count = sum(1 for b in dec.blocks if v in b.vertices)
            assert (count >= 2) == (v in dec.cut_vertices)


def test_each_block_meets_the_later_blocks_at_one_cut_vertex():
    # what stitching relies on: walking the blocks backwards, each meets the walked part at one vertex
    rng = random.Random(19)
    for trial in range(200):
        dec = decompose(random_connected_graph(rng, rng.randint(2, 12)))
        for i, block in enumerate(dec.blocks[:-1]):
            later = {v for b in dec.blocks[i + 1:] for v in b.vertices}
            shared = set(block.vertices) & later
            assert len(shared) == 1 and shared <= dec.cut_vertices


def test_a_two_connected_graph_is_its_own_block():
    # the block keeps the graph's vertex order, so solving it walks what the whole-graph search walks
    rng = random.Random(41)
    graphs = [g for gs in census_graphs(9).values() for g in gs]
    while len(graphs) < 300:
        g = random_connected_graph(rng, rng.randint(3, 12))
        if oracle_is_two_connected(g):
            graphs.append(g)
    for g in graphs:
        dec = decompose(g)
        assert dec.r == 1
        assert dec.blocks[0].vertices == tuple(range(g.order)) and dec.blocks[0].graph == g, g
        assert dec.blocks[0].graph is not g


def test_long_path_does_not_overflow():
    # the explicit stack must survive degenerate deep recursions
    g = path_graph(3000)
    dec = decompose(g)
    assert dec.r == 2999 and len(dec.cut_vertices) == 2998


def test_cut_vertices_blocks_and_minimality_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2024)
    graphs = [random_connected_graph(rng, rng.randint(2, 12)) for _ in range(150)]
    census = [g for gs in census_graphs(8).values() for g in gs]
    for _ in range(100):
        spec = [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
        if sum(spec) and spec.count(0) <= 1 and 2 + sum(spec) <= 12:
            graphs.append(theta_graph(spec))
        base = rng.choice(census)
        u, v = rng.sample(range(base.order), 2)
        graphs.append(Graph.from_edges(base.labels, base.edges() + [(u, v)]))
    minimal_seen = 0
    for g in graphs + census:
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.order))
        dec = decompose(g)
        assert dec.cut_vertices == set(nx.articulation_points(h)), g
        assert sorted(sorted(b.vertices) for b in dec.blocks) == sorted(
            sorted(c) for c in nx.biconnected_components(h)
        ), g
        expected = g.order >= 3 and nx.is_biconnected(h) and not any(
            nx.is_biconnected(nx.restricted_view(h, [], [e])) for e in h.edges()
        )
        assert is_minimally_two_connected(g) == expected, g
        minimal_seen += expected
    assert minimal_seen > len(census)


def test_decomposition_is_computed_once_and_kept_outside_the_fields():
    import dataclasses

    g = path_graph(5)
    twin = path_graph(5)
    before = (hash(g), repr(g))
    assert decompose(g) is decompose(g)
    assert decompose(twin) is not decompose(g)
    assert g == twin and (hash(g), repr(g)) == before == (hash(twin), repr(twin))
    assert "_decomposition" not in {f.name for f in dataclasses.fields(g)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        g._decomposition = None


def _count_block_searches(monkeypatch) -> list:
    import mvdcolor.blocks as blocks_module

    seen = []
    real = blocks_module._dfs_engine
    monkeypatch.setattr(blocks_module, "_dfs_engine", lambda neighbors, root: seen.append(neighbors) or real(neighbors, root))
    return seen


def _count_graph_builds(monkeypatch) -> list:
    """The labels of every graph built from here on: each builder in ``graph``,
    the block's included, ends in ``Graph._unchecked``."""
    seen = []
    real = Graph._unchecked
    monkeypatch.setattr(Graph, "_unchecked", classmethod(lambda cls, labels, *rest: seen.append(labels) or real(labels, *rest)))
    return seen


def test_a_block_graph_is_built_only_when_a_caller_needs_it(monkeypatch):
    from mvdcolor.solve import mvd_exact, mvd_via_blocks
    from mvdcolor.verify import is_mvd_coloring

    rng = random.Random(29)
    sparse = [path_graph(3000), random_tree(rng, 3000), random_cactus(rng, 200, even_only=False)]
    census = [g for gs in census_graphs(9).values() for g in gs]
    builds = _count_graph_builds(monkeypatch)
    for g in sparse:
        builds.clear()
        assert is_mvd_coloring(g, mvd_via_blocks(g).coloring).ok
        # trivial blocks are solved and stitched from their vertices; each cycle block's graph is built once
        cycles = [b.labels for b in decompose(g).blocks if not b.trivial]
        assert sorted(builds) == sorted(cycles) and len(cycles) == len(set(cycles))
    assert len(cycles) > 50
    builds.clear()
    for g in census:
        assert is_mvd_coloring(g, mvd_exact(g).coloring).ok
    # a 2-connected graph is its own block, and is searched and checked in place
    assert builds == []


def test_a_kept_decomposition_refers_to_no_graph():
    import gc
    import weakref

    rng = random.Random(7)
    for make in (lambda: cycle_graph(6), lambda: random_cactus(rng, 12, even_only=False)):
        g = make()
        dec = decompose(g)
        assert [b.graph.order for b in dec.blocks]  # read every block's graph
        gone = weakref.ref(g)
        gc.disable()
        try:
            del g  # with no cycle through it, the graph's last reference frees it
            assert gone() is None
        finally:
            gc.enable()
        assert all(b.labels == b.graph.labels for b in dec.blocks)


def test_a_solve_and_its_verdict_share_one_decomposition(monkeypatch):
    from mvdcolor.catalog import build_catalog
    from mvdcolor.solve import mvd_via_blocks
    from mvdcolor.verify import is_mvd_coloring

    cat = build_catalog(8)
    bridge = Graph.from_edges(["a", "b"], [(0, 1)])
    templates = [bridge, *(g for n in (5, 7, 8) for g in census_graphs(8)[n])]
    g = attach_blocks(random.Random(3), templates, 12)
    searches = _count_block_searches(monkeypatch)
    result = mvd_via_blocks(g, cat)
    assert is_mvd_coloring(g, result.coloring).ok
    assert {how.split(":")[0] for how in result.block_methods} == {"trivial", "closed-form", "catalog"}
    assert searches == [g.neighbors]
    # connectivity comes from that search: a disconnected graph is refused by one search each
    apart = Graph.from_edges(["a", "b", "c", "d"], [(0, 1), (2, 3)])
    searches.clear()
    with pytest.raises(ValueError, match="mvd is defined for connected graphs"):
        mvd_via_blocks(apart, cat)
    with pytest.raises(ValueError, match="verification needs a connected graph"):
        is_mvd_coloring(apart, {0: 1, 1: 1, 2: 1, 3: 1})
    assert searches == [apart.neighbors, apart.neighbors]


def test_the_exact_search_tests_connectivity_with_one_block_search(monkeypatch):
    from mvdcolor.solve import mvd_exact

    searches = _count_block_searches(monkeypatch)
    k33 = Graph.from_edges(list("abcdef"), [(u, v) for u in range(3) for v in range(3, 6)])
    assert mvd_exact(k33).value == 2
    # the search is decompose's, kept on the graph: it decided connectivity and 2-connectivity at once
    assert searches == [k33.neighbors] and "_decomposition" in vars(k33)
    hung = Graph.from_edges(list("abcde"), [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
    searches.clear()
    assert mvd_exact(hung).value == 3
    assert searches == [hung.neighbors]


def test_classify_decomposes_its_graph_once(data_dir, monkeypatch):
    from mvdcolor.analysis import classify

    g, _ = load_graph(str(data_dir / "example17.txt"))
    searches = _count_block_searches(monkeypatch)
    assert classify(g).mvd == 3
    # the gate and the exact search also run the search on each block's own graph
    assert sum(neighbors is g.neighbors for neighbors in searches) == 1
    tree = path_graph(6)
    searches.clear()
    assert classify(tree).mvd == 6
    assert searches == [tree.neighbors]


def test_connectivity_errors_keep_their_messages():
    from mvdcolor.solve import mvd_exact, mvd_via_blocks
    from mvdcolor.verify import is_mvd_coloring, monochromatic_cut_exists

    apart = Graph.from_edges(["a", "b", "c"], [(0, 1)])
    with pytest.raises(ValueError, match="block decomposition needs a connected graph"):
        decompose(apart)
    with pytest.raises(ValueError, match="verification needs a connected graph"):
        is_mvd_coloring(apart, {0: 1, 1: 2, 2: 1})
    with pytest.raises(ValueError, match="mvd is defined for connected graphs"):
        mvd_via_blocks(apart)
    with pytest.raises(ValueError, match="mvd is defined for connected graphs"):
        mvd_exact(apart)
    with pytest.raises(ValueError, match="monochromatic cuts are defined on connected graphs"):
        monochromatic_cut_exists(apart, {0: 1, 1: 2, 2: 1}, 0, 2)
    with pytest.raises(ValueError, match="verification needs at least 2 vertices"):
        is_mvd_coloring(Graph(("a",), ((),)), {0: 1})
