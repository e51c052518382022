from __future__ import annotations

import itertools
import random

import pytest

import mvdcolor.catalog as catalog_module
import mvdcolor.solve as solve_module
from mvdcolor.blocks import Block, decompose
from mvdcolor.catalog import (
    Catalog,
    CatalogEntry,
    CatalogError,
    build_catalog,
    census_text,
    generate_minimal_blocks_up_to,
    is_minimally_two_connected,
    load_catalog,
    save_catalog,
    theta_graph,
)
from mvdcolor.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    default_labels,
    format_matrix,
    induced_subgraph,
    triangle_free,
)
from mvdcolor.iso import canonical_labelling
from mvdcolor.solve import mvd_closed_form, mvd_exact, mvd_via_blocks, solve_block
from builders import attach_blocks, census_graphs, generate_minimal_blocks, random_connected_graph
from oracles import (
    every_pair_minimal_blocks_up_to,
    graphs_of_order,
    networkx_minimal_blocks_up_to,
    oracle_is_minimally_two_connected,
    oracle_is_two_connected,
)


def key(g):
    return canonical_labelling(g).key


def keyset(graphs):
    return {key(g) for g in graphs}


def test_theta_graphs():
    assert key(theta_graph([2, 1])) == key(cycle_graph(5))
    assert key(theta_graph([2, 2])) == key(cycle_graph(6))
    k23 = theta_graph([1, 1, 1])
    assert k23.order == 5 and k23.size == 6
    assert sorted(k23.degree(v) for v in range(5)) == [2, 2, 2, 3, 3]
    # one bare hub-hub edge closes a cycle
    assert key(theta_graph([1, 0])) == key(cycle_graph(3))


def test_theta_rejects_degenerate_specs():
    with pytest.raises(ValueError):
        theta_graph([0])
    with pytest.raises(ValueError):
        theta_graph([1, 0, 0])
    with pytest.raises(ValueError):
        theta_graph([])


def test_minimality_predicate():
    assert is_minimally_two_connected(cycle_graph(7))
    chorded = Graph.from_edges(list("abcd"), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert not is_minimally_two_connected(chorded)
    assert not is_minimally_two_connected(complete_graph(4))
    assert is_minimally_two_connected(cycle_graph(3))


def test_triangle_free():
    assert triangle_free(theta_graph([1, 1, 1]))
    assert not triangle_free(complete_graph(4))


def test_census_members_small_orders():
    levels = census_graphs(6)
    assert keyset(levels[4]) == keyset([cycle_graph(4)])
    assert keyset(levels[5]) == keyset([cycle_graph(5), theta_graph([1, 1, 1])])
    assert keyset(levels[6]) == keyset(
        [cycle_graph(6), theta_graph([2, 1, 1]), theta_graph([1, 1, 1, 1])]
    )


def test_generated_blocks_are_triangle_free_from_order_4():
    # so ``solve.mvd_exact`` ascends every census block it solves to floor(n/2), their pair bound
    levels = census_graphs(10)
    blocks = [g for n in range(4, 11) for g in levels[n]]
    assert len(blocks) == 120
    assert all(triangle_free(g) and oracle_is_two_connected(g) for g in blocks)


def test_generation_matches_labeled_brute_force_up_to_6():
    # every labelled graph of order <= 6 also pins the minimality predicate
    for n in range(1, 7):
        expected = set()
        for g in graphs_of_order(n):
            minimal = oracle_is_minimally_two_connected(g)
            assert is_minimally_two_connected(g) == minimal, g
            if minimal:
                expected.add(key(g))
        if n >= 3:
            assert keyset(generate_minimal_blocks(n)) == expected


@pytest.mark.slow
def test_generation_matches_labeled_brute_force_at_7():
    expected = {
        key(g) for g in graphs_of_order(7) if oracle_is_minimally_two_connected(g)
    }
    assert keyset(generate_minimal_blocks(7)) == expected


def test_census_counts_are_stable():
    # the number of minimally 2-connected graphs of each order, OEIS A003317
    levels = census_graphs(12)
    assert {n: len(gs) for n, gs in levels.items()} == {
        3: 1, 4: 1, 5: 2, 6: 3, 7: 6, 8: 12, 9: 28, 10: 68, 11: 184, 12: 526,
    }


@pytest.mark.parametrize("max_order", [10, pytest.param(11, marks=pytest.mark.slow)])
def test_census_counts_match_a_networkx_dedupe(max_order):
    # the census built again with networkx's ``is_isomorphic`` in place of the canonical search
    pytest.importorskip("networkx")
    levels, census = networkx_minimal_blocks_up_to(max_order), census_graphs(max_order)
    counts = {3: 1, 4: 1, 5: 2, 6: 3, 7: 6, 8: 12, 9: 28, 10: 68, 11: 184}
    assert {n: len(gs) for n, gs in levels.items()} == {n: counts[n] for n in range(3, max_order + 1)}
    assert all(keyset(levels[n]) == keyset(census[n]) for n in levels)


def assert_same_census(max_order):
    def listing(levels):
        return {n: [(g.labels, g.neighbors) for g in gs] for n, gs in levels.items()}

    assert listing(census_graphs(max_order)) == listing(every_pair_minimal_blocks_up_to(max_order))


def test_orbit_pruning_keeps_the_every_pair_census_to_9():
    assert_same_census(9)


@pytest.mark.slow
@pytest.mark.parametrize("max_order", [10, 11, 12])
def test_orbit_pruning_keeps_the_every_pair_census_at(max_order):
    assert_same_census(max_order)


def ear_ends(g):
    """The ends of each one-vertex ear the generator attaches to g."""
    return [tuple(c.neighbors[g.order]) for c in catalog_module._ear_extensions(g, 1, canonical_labelling(g).automorphisms)]


def test_cycles_get_one_ear_per_distance():
    for n in range(4, 11):
        ends = ear_ends(cycle_graph(n))
        assert sorted((b - a) % n for a, b in ends) == list(range(2, n // 2 + 1)), n


def test_ear_ends_are_one_pair_per_orbit_of_the_whole_group():
    for n, blocks in census_graphs(7).items():
        for g in blocks:
            edges = {frozenset(e) for e in g.edges()}
            group = [p for p in itertools.permutations(range(n)) if {frozenset(p[v] for v in e) for e in edges} == edges]
            def orbit(a, b):
                return frozenset(frozenset((p[a], p[b])) for p in group)

            orbits = {orbit(a, b) for a, b in itertools.combinations(range(n), 2) if not g.has_edge(a, b)}
            ends = ear_ends(g)
            assert len(ends) == len(orbits) and {orbit(a, b) for a, b in ends} == orbits


def test_order_8_generation_work_is_pruned(monkeypatch):
    calls = {"canonical": 0, "minimality": 0}

    def counted(name, fn):
        def wrapper(g):
            calls[name] += 1
            return fn(g)
        return wrapper

    monkeypatch.setattr(catalog_module, "canonical_labelling", counted("canonical", canonical_labelling))
    monkeypatch.setattr(catalog_module, "is_minimally_two_connected",
                        counted("minimality", is_minimally_two_connected))
    generate_minimal_blocks_up_to(8)
    assert calls["canonical"] <= 40 and calls["minimality"] <= 60, calls


def test_generation_returns_each_blocks_own_labelling():
    for n, found in generate_minimal_blocks_up_to(8).items():
        for g, labelling in found:
            assert labelling == canonical_labelling(g)


def test_order_8_build_labels_each_block_once(monkeypatch):
    calls = []
    monkeypatch.setattr(catalog_module, "canonical_labelling", lambda g: calls.append(g.order) or canonical_labelling(g))
    cat = build_catalog(8)
    assert len(calls) <= 40, len(calls)
    for entry in cat.entries:  # indexed under the generator's labelling, so lookup finds it
        assert cat.lookup(entry.graph)[0] is entry


def test_all_thetas_appear_in_generation():
    levels = census_graphs(8)
    generated = {n: keyset(gs) for n, gs in levels.items()}
    for total in range(1, 7):  # internal vertices; order = total + 2
        for k in range(2, total + 1):
            for parts in itertools.combinations(range(1, total), k - 1):
                ms = []
                prev = 0
                for cut in parts:
                    ms.append(cut - prev)
                    prev = cut
                ms.append(total - prev)
                if any(m < 1 for m in ms):
                    continue
                g = theta_graph(ms)
                assert key(g) in generated[g.order], ms


def test_generation_rejects_out_of_range():
    with pytest.raises(ValueError):
        generate_minimal_blocks(2)
    with pytest.raises(ValueError):
        generate_minimal_blocks(13)
    with pytest.raises(ValueError, match="orders 3..12, got 2"):
        build_catalog(2)
    with pytest.raises(ValueError, match="orders 3..12, got 13"):
        build_catalog(13)


def test_build_catalog_small():
    cat = build_catalog(6)
    counts = {n: len(cat.entries_of_order(n)) for n in (3, 4, 5, 6)}
    assert counts == {3: 1, 4: 1, 5: 2, 6: 3}
    for entry in cat.entries:
        if entry.order >= 4:
            assert entry.mvd_value <= entry.order // 2
    c3 = cat.entries_of_order(3)[0]
    assert c3.mvd_value == 3
    text = census_text(cat)
    assert "order 5: 2 graphs" in text


def test_build_catalog_known_values():
    cat = build_catalog(8)
    by_key = {key(e.graph): e for e in cat.entries}
    assert by_key[key(cycle_graph(8))].mvd_value == 4
    assert by_key[key(theta_graph([2, 1, 1]))].mvd_value == 2
    assert by_key[key(theta_graph([3, 1, 1]))].mvd_value == 3
    cycles_equal = {
        n: by_key[key(cycle_graph(n))].mvd_value == n // 2 for n in range(4, 9)
    }
    assert all(cycles_equal.values())


def test_save_load_round_trip(tmp_path):
    cat = build_catalog(5)
    save_catalog(cat, str(tmp_path))
    again = load_catalog(str(tmp_path))
    assert len(again) == len(cat)
    by_id = {e.id: e for e in again.entries}
    for entry in cat.entries:
        loaded = by_id[entry.id]
        assert loaded.graph == entry.graph
        assert loaded.mvd_value == entry.mvd_value
        assert loaded.coloring == entry.coloring


def test_load_rejects_tampered_file(tmp_path, data_dir):
    target = tmp_path / "graph_9Vertex-9.txt"
    text = (data_dir / "typeset9" / "graph_9Vertex-9.txt").read_text()
    target.write_text(text.replace("c:1", "c:3", 1))
    with pytest.raises(CatalogError, match="graph_9Vertex-9"):
        load_catalog(str(tmp_path))


def test_load_rejects_partially_colored_file(tmp_path, data_dir):
    target = tmp_path / "graph_9Vertex-9.txt"
    text = (data_dir / "typeset9" / "graph_9Vertex-9.txt").read_text()
    target.write_text(text.replace("c:1", "c", 1))
    with pytest.raises(CatalogError, match="graph_9Vertex-9.txt: label 'c' has no color"):
        load_catalog(str(tmp_path))


def test_load_rejects_duplicate_class(tmp_path):
    cat = build_catalog(4)
    save_catalog(cat, str(tmp_path))
    c4 = cat.entries_of_order(4)[0]
    (tmp_path / "copycat.txt").write_text(format_matrix(c4.graph, c4.coloring))
    with pytest.raises(CatalogError, match="graph_4Vertex-1.txt: entry 'graph_4Vertex-1' is isomorphic"):
        load_catalog(str(tmp_path))


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("rainbow", "a:1, b:2, c:3, d:4\n0, 1, 0, 1\n1, 0, 1, 0\n0, 1, 0, 1\n1, 0, 1, 0\n",
         "rainbow.txt: stored coloring fails verification (no monochromatic cut for 'a','c')"),
        ("single", "a:1\n0\n", "single.txt: entry 'single': verification needs at least 2 vertices"),
        ("apart", "a:1, b:2\n0, 0\n0, 0\n", "apart.txt: entry 'apart': verification needs a connected graph"),
    ],
)
def test_load_names_the_entry_file_and_the_fault(tmp_path, name, text, message):
    # a file cannot leave a vertex uncoloured (see test_load_rejects_partially_colored_file),
    # so test_add_names_the_entry_whose_coloring_misses_vertices pins that text through ``add``
    (tmp_path / f"{name}.txt").write_text(text)
    with pytest.raises(CatalogError) as caught:
        load_catalog(str(tmp_path))
    assert str(caught.value) == message


def test_add_rejects_a_failing_coloring():
    c4 = cycle_graph(4)
    cat = Catalog()
    with pytest.raises(CatalogError, match="stored coloring fails verification"):
        cat.add(CatalogEntry("rainbow", c4, {v: v + 1 for v in range(4)}))
    assert len(cat) == 0 and cat.lookup(c4) is None


def test_add_names_the_entry_whose_coloring_misses_vertices():
    cat = Catalog()
    with pytest.raises(CatalogError) as caught:
        cat.add(CatalogEntry("c6", cycle_graph(6), {0: 1}))
    assert str(caught.value) == "entry 'c6': coloring misses vertices: b, c, d, e, f"
    assert len(cat) == 0


def test_census_id_is_rejected_and_other_ids_round_trip(tmp_path):
    c5 = cycle_graph(5)
    c5_entry = CatalogEntry("census", c5, mvd_closed_form(c5).coloring)
    k4_entry = CatalogEntry("k4", complete_graph(4), {v: v + 1 for v in range(4)})
    cat = Catalog()
    with pytest.raises(CatalogError, match="entry id 'census' would be saved over the census file"):
        cat.add(c5_entry)
    cat.add(k4_entry)
    cat.add(CatalogEntry("c5", c5, c5_entry.coloring))
    save_catalog(cat, str(tmp_path))
    again = load_catalog(str(tmp_path))
    assert {e.id: (e.graph, e.coloring) for e in again.entries} == {e.id: (e.graph, e.coloring) for e in cat.entries}


def _non_theta_block_of_order_7() -> Graph:
    """The one minimal block of order 7 that no closed form answers."""
    (block,) = [g for g in census_graphs(7)[7] if mvd_closed_form(g) is None]
    return block


def test_entry_value_is_its_color_count():
    block = _non_theta_block_of_order_7()
    coloring = mvd_exact(block).coloring
    with pytest.raises(TypeError):
        CatalogEntry("b7", block, 3, coloring)  # a value can no longer disagree with the coloring
    entry = CatalogEntry("b7", block, coloring)
    assert entry.mvd_value == 2
    cat = Catalog()
    cat.add(entry)
    result = mvd_via_blocks(block, cat)
    assert (result.value, result.block_methods) == (2, ("catalog:b7",))


def _non_theta_block_of_order_8_with_value_2() -> Graph:
    """The first minimal block of order 8, in census order, that no closed form answers; its value is 2."""
    return next(g for g in census_graphs(8)[8] if mvd_closed_form(g) is None)


def test_load_refuses_a_passing_coloring_below_the_value(tmp_path):
    # one colour passes on every graph, so only the solve in ``Catalog.add`` sees that 1 < mvd = 2
    block = _non_theta_block_of_order_8_with_value_2()
    (tmp_path / "b8.txt").write_text(format_matrix(block, {v: 1 for v in range(block.order)}))
    with pytest.raises(CatalogError) as caught:
        load_catalog(str(tmp_path))
    assert str(caught.value) == "b8.txt: entry 'b8' is not optimal: color count 1, graph's value 2"


def test_load_keeps_an_optimal_entry_and_its_hit(tmp_path):
    block = _non_theta_block_of_order_8_with_value_2()
    (tmp_path / "b8.txt").write_text(format_matrix(block, mvd_exact(block).coloring))
    cat = load_catalog(str(tmp_path))
    assert [(e.id, e.mvd_value) for e in cat.entries] == [("b8", 2)]
    result = mvd_via_blocks(block, cat)
    assert (result.value, result.block_methods) == (2, ("catalog:b8",))


def test_add_refuses_an_entry_past_the_walk_budget(monkeypatch):
    block = _non_theta_block_of_order_7()
    monkeypatch.setattr(solve_module, "MAX_WALK_STEPS", 1)
    cat = Catalog()
    with pytest.raises(CatalogError, match="entry 'b7' cannot be certified optimal: block .* budget"):
        cat.add(CatalogEntry("b7", block, {v: 1 for v in range(block.order)}))
    assert len(cat) == 0


def test_save_refuses_a_directory_with_entries_it_would_not_overwrite(tmp_path):
    save_catalog(build_catalog(6), str(tmp_path))
    before = {p.name: p.read_text() for p in tmp_path.iterdir()}
    with pytest.raises(CatalogError, match="holds 'graph_5Vertex-1.txt', which this catalog would not overwrite"):
        save_catalog(build_catalog(4), str(tmp_path))
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == before
    assert len(load_catalog(str(tmp_path))) == 7


def test_save_overwrites_a_catalog_of_the_same_entries(tmp_path):
    cat = build_catalog(6)
    first = save_catalog(cat, str(tmp_path))
    assert save_catalog(cat, str(tmp_path)) == first
    assert [e.id for e in load_catalog(str(tmp_path)).entries] == [e.id for e in cat.entries]


def test_save_writes_the_census_that_load_skips(tmp_path):
    cat = build_catalog(5)
    written = save_catalog(cat, str(tmp_path))
    census = tmp_path / "census.txt"
    assert str(census) in written and len(written) == len(cat) + 1
    assert census.read_text(encoding="utf-8") == census_text(cat)
    assert [e.id for e in load_catalog(str(tmp_path)).entries] == [e.id for e in cat.entries]


def test_lookup_is_isomorphism_invariant():
    cat = build_catalog(6)
    rng = random.Random(66)
    for entry in cat.entries:
        for _ in range(15):
            perm = list(range(entry.order))
            rng.shuffle(perm)
            relabeled = induced_subgraph(entry.graph, perm)
            hit = cat.lookup(relabeled)
            assert hit is not None and hit[0].id == entry.id
            mapping = hit[1]
            assert sorted(mapping.values()) == list(range(entry.order))
            for u, v in relabeled.edges():
                assert entry.graph.has_edge(mapping[u], mapping[v])
    absent = Graph.from_edges(default_labels(4), [(0, 1), (1, 2), (2, 3)])
    assert cat.lookup(absent) is None


def _no_canonical_search(monkeypatch) -> None:
    def search(g):
        raise AssertionError(f"canonical search on {g.edges()}")

    monkeypatch.setattr(catalog_module, "canonical_labelling", search)


@pytest.fixture(scope="module")
def census9():
    return build_catalog(9)


def test_closed_forms_come_before_the_catalog(monkeypatch, census9):
    # a theta, a cycle and a complete block, each in the catalog, read closed-form
    blocks = [theta_graph([1, 1, 1]), cycle_graph(6), complete_graph(3)]
    assert all(census9.lookup(g) is not None for g in blocks)
    glued = attach_blocks(random.Random(23), blocks, 9)
    assert {b.graph.order for b in decompose(glued).blocks} == {3, 5, 6}
    _no_canonical_search(monkeypatch)
    for g in blocks:
        assert solve_block(Block(tuple(range(g.order)), g), census9).method == "closed-form"
    result = mvd_via_blocks(glued, census9)
    assert set(result.block_methods) == {"closed-form"}
    assert result.value == mvd_via_blocks(glued).value


def test_a_census_block_with_no_closed_form_reads_its_entry(census9):
    block = _non_theta_block_of_order_7()
    (entry,) = [e for e in census9.entries_of_order(7) if mvd_closed_form(e.graph) is None]
    perm = list(range(7))
    random.Random(5).shuffle(perm)
    relabelled = induced_subgraph(block, perm)
    glued = attach_blocks(random.Random(5), [relabelled, cycle_graph(5)], 4)
    result = mvd_via_blocks(glued, census9)
    trail = dict(zip((b.graph.order for b in decompose(glued).blocks), result.block_methods))
    assert trail[7] == f"catalog:{entry.id}" and trail[5] == "closed-form"
    assert result.value == mvd_via_blocks(glued).value


def _wheel(n: int) -> Graph:
    return Graph.from_edges(default_labels(n), [(0, i) for i in range(1, n)] + [(i, i % (n - 1) + 1) for i in range(1, n)])


def _with_hub_edge(spec) -> Graph:
    g = theta_graph(spec)
    return Graph.from_edges(g.labels, g.edges() + [(0, 1)])


_PRISM = Graph.from_edges(default_labels(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
_DIAMOND = Graph.from_edges(default_labels(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
_CUBE = Graph.from_edges(default_labels(8), [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit])
_K33 = Graph.from_edges(default_labels(6), [(u, v) for u in range(3) for v in range(3, 6)])


def _non_minimal_blocks() -> list[Graph]:
    """The shapes of the benchmark's non-minimal glued blocks: the diamond,
    W5, W7, the prism, K3,3, the cube, and thetas with adjacent hubs."""
    thetas = [_with_hub_edge(spec) for spec in ([1, 1, 1], [2, 2], [3, 2], [3, 3])]
    return [_DIAMOND, _wheel(5), _wheel(7), _PRISM, _K33, _CUBE, *thetas]


def test_lookup_misses_an_unmatched_degree_sequence_without_a_search(monkeypatch, census9):
    _no_canonical_search(monkeypatch)
    for g in [*map(_wheel, range(5, 11)), _PRISM, _DIAMOND, _CUBE, complete_graph(4), cycle_graph(14)]:
        assert census9.lookup(g) is None, g.edges()


def test_lookup_misses_matched_degrees_on_unmatched_edge_ends_without_a_search(monkeypatch, census9):
    # thetas with adjacent hubs share a census block's degree sequence, but
    # not its multiset of edge end degrees
    thetas = [_with_hub_edge(spec) for spec in ([2, 2], [3, 2], [3, 3])]
    census_degrees = {tuple(sorted(map(len, e.graph.neighbors))) for e in census9.entries}
    assert all(tuple(sorted(map(len, g.neighbors))) in census_degrees for g in thetas)
    _no_canonical_search(monkeypatch)
    for g in thetas:
        assert census9.lookup(g) is None, g.edges()


def test_lookup_hits_every_census_block_to_order_9_under_relabelling(census9):
    rng = random.Random(99)
    for entry in census9.entries:
        for _ in range(3):
            perm = list(range(entry.order))
            rng.shuffle(perm)
            relabelled = induced_subgraph(entry.graph, perm)
            hit = census9.lookup(relabelled)
            assert hit is not None and hit[0] is entry
            mapping = hit[1]
            assert sorted(mapping.values()) == list(range(entry.order))
            assert sorted(tuple(sorted((mapping[u], mapping[v]))) for u, v in relabelled.edges()) == entry.graph.edges()


def test_lookup_hits_exactly_the_graphs_networkx_finds_isomorphic(census9):
    nx = pytest.importorskip("networkx")

    def nx_graph(g: Graph):
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.order))
        return h

    graphs = _non_minimal_blocks()
    rng = random.Random(50)
    graphs += [random_connected_graph(rng, rng.randint(3, 9)) for _ in range(50)]
    graphs += [cycle_graph(7), theta_graph([2, 2, 1]), _non_theta_block_of_order_7()]
    hits = 0
    for g in graphs:
        same = [e for e in census9.entries if e.order == g.order and nx.is_isomorphic(nx_graph(g), nx_graph(e.graph))]
        hit = census9.lookup(g)
        assert (hit[0] if hit else None) == (same[0] if same else None), g.edges()
        hits += hit is not None
    assert hits >= 3
