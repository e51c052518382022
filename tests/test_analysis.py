from __future__ import annotations

import random

import pytest

import mvdcolor.analysis as analysis_module
from mvdcolor.analysis import (
    _DEFICIT,
    GateError,
    bound_blocks,
    bound_half_order,
    classify,
    nontrivial_core,
)
from mvdcolor.catalog import theta_graph
from mvdcolor.graph import Graph, complete_graph, cycle_graph, path_graph, theta_threads
from mvdcolor.solve import MvdResult, mvd_exact, mvd_via_blocks
from builders import attach_blocks, census_graphs, random_cactus, random_tree, star_graph, theta_specs, with_pendants
from oracles import triangle_blocks_value


def glue_at_vertex(a: Graph, b: Graph) -> Graph:
    """Identify vertex 0 of b with vertex 0 of a (shared cut vertex)."""
    from mvdcolor.graph import default_labels

    edges = list(a.edges())
    offset = a.order
    remap = {0: 0}
    for v in range(1, b.order):
        remap[v] = offset + v - 1
    for u, v in b.edges():
        edges.append((remap[u], remap[v]))
    return Graph.from_edges(default_labels(a.order + b.order - 1), edges)


def test_bound_half_order():
    rep = bound_half_order(cycle_graph(10))
    assert rep.applicable and rep.value == 5
    assert mvd_exact(cycle_graph(10)).value == 5

    assert not bound_half_order(complete_graph(4)).applicable

    rep = bound_half_order(theta_graph([1, 1, 1]))
    assert rep.applicable and rep.value == 2
    assert mvd_exact(theta_graph([1, 1, 1])).value == 2


def test_bound_blocks_tree_is_sharp():
    tree = star_graph(5)
    rep = bound_blocks(tree)
    assert rep.applicable and rep.value == 6
    assert mvd_via_blocks(tree).value == 6


def test_bound_blocks_two_c4_cactus():
    g = glue_at_vertex(cycle_graph(4), cycle_graph(4))
    rep = bound_blocks(g)
    assert rep.applicable and rep.value == 3
    assert mvd_via_blocks(g).value == 3


def test_bound_blocks_single_cycle():
    rep = bound_blocks(cycle_graph(5))
    assert rep.applicable and rep.value == 2


def test_bound_blocks_rejects_triangle_blocks():
    rep = bound_blocks(cycle_graph(3))
    assert not rep.applicable
    assert "triangle-free" in rep.reason


def test_catalog_entries_respect_half_order_bound():
    from mvdcolor.catalog import build_catalog

    cat = build_catalog(6)
    for entry in cat.entries:
        rep = bound_half_order(entry.graph)
        if rep.applicable:
            assert entry.mvd_value <= rep.value


def test_classify_families():
    tree = random_tree(random.Random(1), 9)
    res = classify(tree)
    assert res.regime == "n" and res.family == "tree" and res.core is None

    unicyclic = with_pendants(cycle_graph(4), 3)
    res = classify(unicyclic)
    assert res.order == 7 and res.mvd == 5
    assert res.regime == "n-2" and res.family == "unicyclic-C4"

    k23 = with_pendants(theta_graph([1, 1, 1]), 2)
    res = classify(k23)
    assert res.order == 7 and res.mvd == 4
    assert res.regime == "n-3" and res.family == "class-A"


def test_deficit_table_matches_the_census_to_order_8():
    # mvd <= floor(n/2) on a block, so a block of deficit d has order <= 2d: order 8 covers d <= 4
    seen = set()
    for n, blocks in census_graphs(8).items():
        for g in blocks if n >= 4 else ():
            deficit = n - mvd_exact(g).value
            threads = theta_threads(g)
            key = None if threads is None else tuple(sorted(len(t) - 2 for t in threads))
            assert (deficit <= 4) == (key in _DEFICIT), (n, key, deficit)
            if key in _DEFICIT:
                assert _DEFICIT[key] == deficit, key
                seen.add(key)
    assert seen == set(_DEFICIT)


def test_deficit_table_matches_the_proved_theta_deficit():
    # n - mvd(P(m_1..m_k)) = sum ceil((m_i + 1)/2) - [every m_i even], by the parity count
    # (solve._theta_coloring); mvd <= floor(n/2) keeps a deficit <= 4 at order <= 8
    def deficit(key):
        return sum((m + 2) // 2 for m in key) - all(m % 2 == 0 for m in key)

    keys = [tuple(sorted(spec)) for spec in theta_specs(8)] + [(1, n - 3) for n in range(4, 9)]
    assert {key for key in keys if deficit(key) <= 4} == set(_DEFICIT)
    for key, d in _DEFICIT.items():
        assert d == deficit(key), key


def test_classify_cross_checks_the_solver_with_block_deficits(monkeypatch):
    g = glue_at_vertex(cycle_graph(4), theta_graph([1, 1, 1]))  # deficits 2 + 3

    def off_by_one(graph, catalog=None):
        res = mvd_via_blocks(graph, catalog)
        return MvdResult(res.value + 1, res.coloring, res.method)

    assert classify(g).regime == "n-5"
    monkeypatch.setattr(analysis_module, "mvd_via_blocks", off_by_one)
    with pytest.raises(AssertionError, match=r"block deficits \[2, 3\] sum to n-5, solver says n-4"):
        classify(g)


def test_classify_reports_core():
    g = with_pendants(cycle_graph(4), 2)
    res = classify(g)
    core = nontrivial_core(g)
    assert core is not None and core.order == 4
    assert res.core_key is not None


def test_classify_gate_failures():
    two_triangles = glue_at_vertex(cycle_graph(3), cycle_graph(3))
    with pytest.raises(GateError):
        classify(two_triangles)

    chorded = Graph.from_edges(list("abcd"), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    with pytest.raises(GateError) as err:
        classify(with_pendants(chorded, 1))
    assert err.value.block_labels == ("a", "b", "c", "d")


def test_classify_rejects_disconnected():
    with pytest.raises(ValueError):
        classify(Graph.from_edges(["a", "b", "c", "d"], [(0, 1), (2, 3)]))


def test_classify_and_bound_test_connectivity_only_in_the_block_search(data_dir, monkeypatch):
    import mvdcolor.blocks as blocks_module
    from mvdcolor.catalog import load_catalog
    from mvdcolor.graph import load_graph

    catalog = load_catalog(str(data_dir / "typeset9"))
    searches = []
    real = blocks_module._dfs_engine
    monkeypatch.setattr(blocks_module, "_dfs_engine", lambda neighbors, root: searches.append(neighbors) or real(neighbors, root))
    g, _ = load_graph(str(data_dir / "example17.txt"))
    assert classify(g, catalog).mvd == 3
    # one search spans g; the gate's minimality test runs the others on single blocks
    assert [nb for nb in searches if len(nb) == g.order] == [g.neighbors]
    fresh, _ = load_graph(str(data_dir / "example17.txt"))
    searches.clear()
    assert bound_blocks(fresh).applicable
    assert [nb for nb in searches if len(nb) == fresh.order] == [fresh.neighbors]
    apart = Graph.from_edges(["a", "b", "c", "d"], [(0, 1), (2, 3)])
    for refused, runs in ((apart, [apart.neighbors]), (Graph(("a",), ((),)), [])):
        searches.clear()
        with pytest.raises(ValueError, match="classification needs a connected graph of order >= 2"):
            classify(refused)
        assert searches == runs  # the block search refuses a disconnected graph; order 1 needs no search
        report = bound_blocks(refused)
        assert not report.applicable and report.reason == "needs a connected graph of order >= 2"


def test_triangle_blocks_value():
    two = glue_at_vertex(cycle_graph(3), cycle_graph(3))
    assert triangle_blocks_value(two) == 5
    assert mvd_via_blocks(two).value == 5

    friendship = glue_at_vertex(glue_at_vertex(cycle_graph(3), cycle_graph(3)), cycle_graph(3))
    assert triangle_blocks_value(friendship) == 7
    assert mvd_via_blocks(friendship).value == 7

    hung = with_pendants(cycle_graph(3), 1)
    assert triangle_blocks_value(hung) == 4
    assert mvd_via_blocks(hung).value == 4

    assert triangle_blocks_value(cycle_graph(4)) is None


def test_no_gated_graph_hits_n_minus_1():
    rng = random.Random(55)
    templates = [cycle_graph(4), cycle_graph(5), theta_graph([1, 1, 1]), path_graph(2)]
    for trial in range(60):
        g = attach_blocks(rng, templates, rng.randint(1, 4))
        res = classify(g)
        assert res.mvd != g.order - 1


def test_cactus_bound_is_exact_for_even_cycles():
    rng = random.Random(19)
    for trial in range(20):
        g = random_cactus(rng, rng.randint(1, 4), even_only=True)
        rep = bound_blocks(g)
        assert rep.applicable
        assert mvd_via_blocks(g).value == rep.value


def test_regime_matches_structure_on_random_gated_graphs():
    rng = random.Random(101)
    templates = [cycle_graph(4), cycle_graph(6), theta_graph([2, 1, 1]), path_graph(2)]
    for trial in range(40):
        g = attach_blocks(rng, templates, rng.randint(1, 3))
        res = classify(g)
        assert res.mvd <= bound_blocks(g).value
        code = g.order - res.mvd
        if code == 0:
            assert res.regime == "n" and res.family == "tree"
        elif code <= 5:
            assert res.regime == f"n-{code}"
        else:
            assert res.regime == "other"
