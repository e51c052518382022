from __future__ import annotations

import itertools
import random

import pytest

import mvdcolor.catalog as catalog_module
from mvdcolor.blocks import is_two_connected
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
from mvdcolor.iso import canonical_form, canonical_labelling, find_isomorphism
from mvdcolor.solve import mvd_closed_form, mvd_via_blocks
from builders import census_graphs, generate_minimal_blocks
from oracles import every_pair_minimal_blocks_up_to, graphs_of_order, oracle_is_minimally_two_connected


def keyset(graphs):
    return {canonical_form(g) for g in graphs}


def test_theta_graphs():
    assert find_isomorphism(theta_graph([2, 1]), cycle_graph(5)) is not None
    assert find_isomorphism(theta_graph([2, 2]), cycle_graph(6)) is not None
    k23 = theta_graph([1, 1, 1])
    assert k23.order == 5 and k23.size == 6
    assert sorted(k23.degree(v) for v in range(5)) == [2, 2, 2, 3, 3]
    # one bare hub-hub edge closes a cycle
    assert find_isomorphism(theta_graph([1, 0]), cycle_graph(3)) is not None


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
    assert all(triangle_free(g) and is_two_connected(g) for g in blocks)


def test_generation_matches_labeled_brute_force_up_to_6():
    # every labelled graph of order <= 6 also pins the minimality predicate
    for n in range(1, 7):
        expected = set()
        for g in graphs_of_order(n):
            minimal = oracle_is_minimally_two_connected(g)
            assert is_minimally_two_connected(g) == minimal, g
            if minimal:
                expected.add(canonical_form(g))
        if n >= 3:
            assert keyset(generate_minimal_blocks(n)) == expected


@pytest.mark.slow
def test_generation_matches_labeled_brute_force_at_7():
    expected = {
        canonical_form(g) for g in graphs_of_order(7) if oracle_is_minimally_two_connected(g)
    }
    assert keyset(generate_minimal_blocks(7)) == expected


def test_census_counts_are_stable():
    # derived artifacts: counts for orders 7..9 are pinned as regression values
    levels = census_graphs(9)
    assert {n: len(gs) for n, gs in levels.items()} == {
        3: 1, 4: 1, 5: 2, 6: 3, 7: 6, 8: 12, 9: 28,
    }


def assert_same_census(max_order):
    def listing(levels):
        return {n: [(g.labels, g.neighbors) for g in gs] for n, gs in levels.items()}

    assert listing(census_graphs(max_order)) == listing(every_pair_minimal_blocks_up_to(max_order))


def test_orbit_pruning_keeps_the_every_pair_census_to_9():
    assert_same_census(9)


@pytest.mark.slow
def test_orbit_pruning_keeps_the_every_pair_census_at_10():
    assert_same_census(10)


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
                assert canonical_form(g) in generated[g.order], ms


def test_generation_rejects_out_of_range():
    with pytest.raises(ValueError):
        generate_minimal_blocks(2)
    with pytest.raises(ValueError):
        generate_minimal_blocks(11)
    with pytest.raises(ValueError, match="orders 3..10, got 2"):
        build_catalog(2)
    with pytest.raises(ValueError, match="orders 3..10, got 11"):
        build_catalog(11)


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
    by_key = {canonical_form(e.graph): e for e in cat.entries}
    assert by_key[canonical_form(cycle_graph(8))].mvd_value == 4
    assert by_key[canonical_form(theta_graph([2, 1, 1]))].mvd_value == 2
    assert by_key[canonical_form(theta_graph([3, 1, 1]))].mvd_value == 3
    cycles_equal = {
        n: by_key[canonical_form(cycle_graph(n))].mvd_value == n // 2 for n in range(4, 9)
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


def test_entry_value_is_its_color_count():
    c5 = cycle_graph(5)
    coloring = mvd_closed_form(c5).coloring
    with pytest.raises(TypeError):
        CatalogEntry("c5", c5, 3, coloring)  # a value can no longer disagree with the coloring
    entry = CatalogEntry("c5", c5, coloring)
    assert entry.mvd_value == 2
    cat = Catalog()
    cat.add(entry)
    result = mvd_via_blocks(c5, cat)
    assert (result.value, result.block_methods) == (2, ("catalog:c5",))


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
