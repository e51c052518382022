from __future__ import annotations

import random
import time

import pytest

import mvdcolor.solve as solve_module
from mvdcolor.blocks import decompose, is_two_connected
from mvdcolor.catalog import (
    is_minimally_two_connected,
    load_catalog,
    theta_graph,
)
from mvdcolor.graph import (
    Graph,
    GuardError,
    complete_graph,
    cycle_graph,
    default_labels,
    load_graph,
    path_graph,
    triangle_free,
)
from mvdcolor.solve import (
    MvdResult,
    _theta_coloring,
    certified_bound,
    counting_formula,
    mvd_closed_form,
    mvd_compose,
    mvd_exact,
    mvd_via_blocks,
    stitch_colorings,
)
from mvdcolor.verify import _classes, color_count, is_mvd_coloring, pair_rows, partition_passes
from builders import attach_blocks, census_graphs, random_cactus, random_connected_graph, random_tree, star_graph, theta_specs
from oracles import all_set_partitions, oracle_is_mvd, partitions_into_k_classes, restrict


def test_partition_enumeration_counts():
    # Stirling numbers of the second kind
    assert sum(1 for _ in partitions_into_k_classes(5, 2)) == 15
    assert sum(1 for _ in partitions_into_k_classes(6, 3)) == 90
    assert sum(1 for _ in partitions_into_k_classes(4, 4)) == 1
    assert list(partitions_into_k_classes(3, 2)) == [(1, 1, 2), (1, 2, 1), (1, 2, 2)]


def test_partition_enumeration_is_restricted_growth():
    for colors in partitions_into_k_classes(6, 3):
        seen_max = 0
        for c in colors:
            assert c <= seen_max + 1
            seen_max = max(seen_max, c)
        assert seen_max == 3


def test_exact_small_values():
    assert mvd_exact(cycle_graph(4)).value == 2
    assert mvd_exact(complete_graph(4)).value == 4
    # frozen from the subset-enumeration oracle
    assert mvd_exact(theta_graph([1, 1, 1])).value == 2
    assert mvd_exact(theta_graph([2, 1, 1])).value == 2
    assert mvd_exact(theta_graph([3, 1, 1])).value == 3


def test_exact_guards():
    with pytest.raises(GuardError):
        mvd_exact(cycle_graph(12))
    with pytest.raises(ValueError):
        mvd_exact(Graph.from_edges(["a", "b", "c", "d"], [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        mvd_exact(Graph(("a",), ((),)))


def test_exact_coloring_is_certified():
    rng = random.Random(3)
    for trial in range(30):
        g = random_connected_graph(rng, rng.randint(2, 7))
        res = mvd_exact(g)
        assert is_mvd_coloring(g, res.coloring).ok
        assert color_count(res.coloring) == res.value
        assert res.method == "exact"


def test_exact_matches_independent_oracle():
    # maximum class count over oracle-passing partitions
    rng = random.Random(31)
    for trial in range(12):
        g = random_connected_graph(rng, rng.randint(2, 6))
        want = 0
        for parts in all_set_partitions(g.order):
            if len(parts) <= want:
                continue
            coloring = {v: i + 1 for i, part in enumerate(parts) for v in part}
            if oracle_is_mvd(g, coloring):
                want = len(parts)
        assert mvd_exact(g).value == want


def reference_exact(g: Graph) -> tuple[int, dict[int, int]]:
    """The descending search over the reference enumerator: the first
    partition, from the same start in the same order, that the public
    verifier passes.

    No pruning and no pair bound: it starts at n, or at n // 2 on a minimal
    block.
    """
    n = g.order
    start = n // 2 if n >= 4 and is_minimally_two_connected(g) else n
    for k in range(start, 0, -1):
        for colors in partitions_into_k_classes(n, k):
            coloring = {v: colors[v] for v in range(n)}
            if is_mvd_coloring(g, coloring).ok:
                return k, coloring
    raise AssertionError("the single-class coloring always passes")


def wheel_graph(n: int) -> Graph:
    """A hub joined to every vertex of a cycle on the other n - 1 vertices."""
    rim = n - 1
    edges = [(i, (i + 1) % rim) for i in range(rim)] + [(i, rim) for i in range(rim)]
    return Graph.from_edges(default_labels(n), edges)


def _census_with_chords(rng: random.Random, orders: range) -> list[Graph]:
    """The census blocks of the given orders, each followed by a copy with
    one random chord added (none for a complete block)."""
    census = census_graphs(orders[-1])
    graphs = []
    for n in orders:
        for b in census[n]:
            free = [(u, v) for u in range(b.order) for v in range(u + 1, b.order) if not b.has_edge(u, v)]
            graphs.append(b)
            if free:
                graphs.append(Graph.from_edges(b.labels, b.edges() + [rng.choice(free)]))
    return graphs


def _chorded_triangle_free_cycles(rng: random.Random, count: int) -> list[Graph]:
    """``count`` cycles of order 6..8, each with one to three random chords,
    kept when triangle-free: 2-connected, triangle-free and not minimal."""
    graphs = []
    while len(graphs) < count:
        c = cycle_graph(rng.randint(6, 8))
        chords = rng.sample([(u, v) for u in range(c.order) for v in range(u + 2, c.order) if not c.has_edge(u, v)],
                            rng.randint(1, 3))
        g = Graph.from_edges(c.labels, c.edges() + chords)
        if triangle_free(g):
            graphs.append(g)
    return graphs


def test_exact_walk_matches_reference_search():
    rng = random.Random(97)
    graphs = [random_connected_graph(rng, rng.randint(2, 8)) for _ in range(40)]
    graphs += _census_with_chords(rng, range(3, 9))
    graphs += [wheel_graph(n) for n in range(4, 9)]
    graphs += [complete_graph(n) for n in range(2, 8)]
    graphs += _non_minimal_triangle_free_blocks()
    # thetas with adjacent hubs, whose values 2 and 3 fall one below floor(n/2)
    graphs += [theta_graph([3, 2, 0]), theta_graph([3, 3, 0])]
    graphs += _chorded_triangle_free_cycles(rng, 20)
    for g in graphs:
        res = mvd_exact(g)
        assert (res.value, res.coloring) == reference_exact(g), g.edges()


@pytest.mark.slow
def test_exact_walk_matches_reference_search_at_order_9():
    for g in _census_with_chords(random.Random(99), range(9, 10)):
        res = mvd_exact(g)
        assert (res.value, res.coloring) == reference_exact(g), g.edges()


def _prune_cuts(g: Graph, monkeypatch) -> list[tuple[int, tuple[int, ...]]]:
    """(k, colours of the coloured vertices) for each branch that the C | U
    check of ``mvd_exact``'s walks cuts on g, read by wrapping ``_walk`` and
    the pass test: a failed test at a node short of a full assignment."""
    cuts: list[tuple[int, tuple[int, ...]]] = []
    nodes: list[tuple[list[int], int]] = []
    real_walk, real_passes = solve_module._walk, solve_module.partition_passes

    def walk(g, n, rows, memo, masks, v, used, check_from):
        nodes.append((list(masks), v))
        try:
            return real_walk(g, n, rows, memo, masks, v, used, check_from)
        finally:
            nodes.pop()

    def passes(g, class_masks, rows, memo):
        ok = real_passes(g, class_masks, rows, memo)
        masks, v = nodes[-1]
        if not ok and v < g.order:
            cuts.append((len(masks), tuple(c + 1 for u in range(v) for c, m in enumerate(masks) if m >> u & 1)))
        return ok

    with monkeypatch.context() as patch:
        patch.setattr(solve_module, "_walk", walk)
        patch.setattr(solve_module, "partition_passes", passes)
        mvd_exact(g)
    return cuts


def test_pruned_branches_hold_no_passing_coloring(monkeypatch):
    # every completion of a cut branch into k classes fails the subset oracle
    graphs = [g for blocks in census_graphs(8).values() for g in blocks] + _non_minimal_triangle_free_blocks()
    partitions: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    cut_total = completions = 0
    for g in graphs:
        for k, prefix in _prune_cuts(g, monkeypatch):
            cut_total += 1
            if (g.order, k) not in partitions:
                partitions[g.order, k] = list(partitions_into_k_classes(g.order, k))
            for colors in partitions[g.order, k]:
                if colors[: len(prefix)] == prefix:
                    completions += 1
                    assert not oracle_is_mvd(g, dict(enumerate(colors))), (g.edges(), k, prefix, colors)
    assert (cut_total, completions) == (861, 20428)


def _non_minimal_triangle_free_blocks() -> list[Graph]:
    """The cube Q3, K3,3, C6 with the chord (0,3), and the theta P(2,2,0),
    whose hubs are adjacent: the exact search ascends them to floor(n/2)
    with pruning, the reference search descends from n."""
    cube = Graph.from_edges(default_labels(8), [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit])
    k33 = Graph.from_edges(default_labels(6), [(u, v) for u in range(3) for v in range(3, 6)])
    c6 = cycle_graph(6)
    chorded = Graph.from_edges(c6.labels, c6.edges() + [(0, 3)])
    graphs = [cube, k33, chorded, theta_graph([2, 2, 0])]
    for g in graphs:
        assert triangle_free(g) and is_two_connected(g) and not is_minimally_two_connected(g)
    return graphs


def _half_order_value(g: Graph) -> int:
    """mvd of a minimal block of order >= 4: the largest k <= floor(n/2), the
    known upper bound, with a passing partition into k classes."""
    rows, memo = pair_rows(g), {}
    for k in range(g.order // 2, 0, -1):
        for colors in partitions_into_k_classes(g.order, k):
            if partition_passes(g, [mask for _, mask in _classes(colors)], rows, memo):
                return k
    raise AssertionError("the single-class coloring always passes")


def _pin_pair_bound_on_census(n: int) -> int:
    """Every nonadjacent pair's bound, from a maximum set of disjoint paths,
    is >= the value on the order-n census; returns how many blocks the least
    of them is tight on."""
    nx = pytest.importorskip("networkx")
    tight = 0
    for g in census_graphs(n)[n]:
        value = _half_order_value(g)
        h = nx.Graph(g.edges())
        bounds = [
            certified_bound(g, a, b, list(nx.node_disjoint_paths(h, a, b)))
            for a in range(n) for b in range(a + 1, n) if not g.has_edge(a, b)
        ]
        assert min(bounds) >= value, g.edges()
        tight += min(bounds) == value
    return tight


def test_pair_bound_holds_on_the_census_to_order_9():
    assert [_pin_pair_bound_on_census(n) for n in range(4, 10)] == [1, 2, 3, 4, 8, 9]


@pytest.mark.slow
def test_pair_bound_holds_on_the_census_at_order_10():
    assert _pin_pair_bound_on_census(10) == 17


def test_certified_bound_checks_its_certificate():
    k23 = theta_graph([1, 1, 1])  # hubs 0 and 1, inner vertices 2, 3, 4
    assert certified_bound(k23, 0, 1, [[0, 2, 1], [0, 3, 1], [0, 4, 1]]) == 2
    assert certified_bound(k23, 0, 1, [[0, 2, 1], [0, 3, 1]]) == 2
    with pytest.raises(ValueError, match="private inner vertex"):
        certified_bound(k23, 0, 1, [[0, 2, 1], [0, 3, 1], [0, 2, 1]])
    with pytest.raises(ValueError, match="not an edge"):
        certified_bound(k23, 0, 1, [[0, 2, 3, 1]])
    with pytest.raises(ValueError, match="not a nonadjacent pair"):
        certified_bound(k23, 0, 2, [[0, 2]])
    with pytest.raises(ValueError, match="2-connected triangle-free"):
        certified_bound(complete_graph(4), 0, 1, [])


def test_fast_assignment_check_matches_public_verifier():
    rng = random.Random(59)
    for trial in range(80):
        g = random_connected_graph(rng, rng.randint(2, 7))
        colors = tuple(rng.randint(1, 3) for _ in range(g.order))
        masks = [mask for _, mask in _classes(colors)]
        fast = partition_passes(g, masks, pair_rows(g), {})
        slow = is_mvd_coloring(g, {v: colors[v] for v in range(g.order)}).ok
        assert fast == slow


def test_closed_forms():
    res = mvd_closed_form(cycle_graph(9))
    assert res is not None and res.value == 4
    walk_colors = [res.coloring[v] for v in range(9)]
    assert walk_colors == [1, 2, 3, 4, 1, 2, 3, 4, 1]
    assert mvd_closed_form(cycle_graph(3)).value == 3
    star = star_graph(4)
    assert mvd_closed_form(star) is None  # a tree is all trivial blocks
    assert mvd_via_blocks(star).value == star.order
    k23 = mvd_closed_form(theta_graph([1, 1, 1]))
    assert k23 is not None and k23.value == 2 and k23.method == "closed-form"
    assert mvd_closed_form(cycle_graph(4)).method == "closed-form"
    chorded = theta_graph([3, 3, 3])
    chorded = Graph.from_edges(chorded.labels, chorded.edges() + [(3, 6)])
    wheel = Graph.from_edges(default_labels(6), [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)])
    bowtie = Graph.from_edges(default_labels(7), [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6), (6, 0)])
    for g in (theta_graph([2, 2, 1]), theta_graph([2, 2, 1, 1]), theta_graph([2, 1, 0]), chorded, wheel, bowtie):
        assert mvd_closed_form(g) is None


def _threads_of(spec):
    """theta_graph(spec)'s threads as walks from hub 0 to hub 1, in spec order."""
    threads, nxt = [], 2
    for m in spec:
        threads.append([0, *range(nxt, nxt + m), 1])
        nxt += m
    return threads


def test_theta_closed_form_is_certified_exactly_at_the_bound():
    specs = theta_specs(16, min_threads=2)
    assert len(specs) == 493
    certified = 0
    for spec in specs:
        g, k = theta_graph(spec), len(spec)
        coloring = _theta_coloring(_threads_of(spec))
        assert is_mvd_coloring(g, coloring).ok, spec
        count = color_count(coloring)
        assert count == 2 + all(m % 2 == 0 for m in spec) + sum((m - 1) // 2 for m in spec)
        bound = 1 + (g.order - k) // 2
        assert count <= bound
        certified += count == bound
        if k >= 3:
            res = mvd_closed_form(g)
            assert (res is None) == (count != bound), spec
            if res is not None:
                assert res.value == bound and color_count(res.coloring) == bound
    assert certified == 281


def _pin_thetas_against_exact(specs):
    for spec in specs:
        g = theta_graph(spec)
        exact = mvd_exact(g).value
        assert color_count(_theta_coloring(_threads_of(spec))) == exact, spec
        res = mvd_closed_form(g)
        assert res is None or res.value == exact, spec


def test_theta_coloring_matches_exact_to_order_10():
    specs = theta_specs(10)
    assert len(specs) == 42
    _pin_thetas_against_exact(specs)


@pytest.mark.slow
def test_theta_coloring_matches_exact_at_order_11():
    specs = [spec for spec in theta_specs(11) if sum(spec) == 9]
    assert len(specs) == 25
    _pin_thetas_against_exact(specs)


def test_chain_of_large_thetas_composes():
    # P(61,61,61) all odd, P(40,41,41,41) one even, P(100,30,30) three even: all meet the bound
    specs = ([61, 61, 61], [40, 41, 41, 41], [100, 30, 30])
    edges, last = [], 0
    for spec in specs:  # each theta's hub 0 is glued to the previous theta's last vertex
        block = theta_graph(spec)
        edges += [(last + u, last + v) for u, v in block.edges()]
        last += block.order - 1
    g = Graph.from_edges(default_labels(last + 1), edges)
    values = [1 + (2 + sum(spec) - len(spec)) // 2 for spec in specs]  # 1 + (n - k) // 2
    assert values == [92, 81, 80]
    budget = 12.0
    t0 = time.time()
    res = mvd_via_blocks(g)
    elapsed = time.time() - t0
    ok = elapsed < budget
    line = f"solve theta chain: {'PASS' if ok else 'FAIL (over budget)'} ({elapsed:.2f}s of {budget:.0f}s budget)"
    print(line)
    assert res.block_methods == ("closed-form",) * 3
    assert res.value == sum(values) - 3 + 1
    assert color_count(res.coloring) == res.value
    assert is_mvd_coloring(g, res.coloring).ok
    assert ok, line


def test_closed_forms_agree_with_exact():
    for n in range(4, 11):
        assert mvd_closed_form(cycle_graph(n)).value == mvd_exact(cycle_graph(n)).value
    for n in range(2, 7):
        assert mvd_closed_form(complete_graph(n)).value == mvd_exact(complete_graph(n)).value
    rng = random.Random(17)
    for trial in range(10):
        tree = random_tree(rng, rng.randint(2, 8))
        assert mvd_via_blocks(tree).value == mvd_exact(tree).value == tree.order


def test_compose():
    g, _ = load_graph_from_fixture()
    dec = decompose(g)
    two = MvdResult(2, {}, "exact")
    assert mvd_compose(dec, [two, two]) == 3
    with pytest.raises(ValueError):
        mvd_compose(dec, [two])

    tree = path_graph(6)
    dec_tree = decompose(tree)
    results = [MvdResult(2, {}, "closed-form")] * dec_tree.r
    assert mvd_compose(dec_tree, results) == 6


def load_graph_from_fixture():
    from pathlib import Path

    return load_graph(str(Path(__file__).parent.parent / "data" / "example17.txt"))


def test_counting_formula():
    g, _ = load_graph_from_fixture()
    dec = decompose(g)
    assert counting_formula(dec, [2, 2]) == 3

    rng = random.Random(2)
    cactus = attach_blocks(rng, [cycle_graph(4), cycle_graph(6), cycle_graph(8)], 3)
    dec_c = decompose(cactus)
    values = sorted(b.graph.order // 2 for b in dec_c.blocks)
    composed = sum(values) - dec_c.r + 1
    assert counting_formula(dec_c, [b.graph.order // 2 for b in dec_c.blocks]) == composed

    tri = decompose(cycle_graph(3))
    assert counting_formula(tri, [3]) == 3
    with pytest.raises(ValueError):
        counting_formula(tri, [6])


def test_stitch_path_of_two_edges():
    g = path_graph(3)
    dec = decompose(g)
    per_block = [{0: 1, 1: 2} for _ in range(dec.r)]
    stitched = stitch_colorings(dec, per_block)
    assert color_count(stitched) == 3
    # the middle vertex's color is shared between the two blocks
    assert len({stitched[0], stitched[1], stitched[2]}) == 3


def test_stitch_single_block_renames():
    g = cycle_graph(5)
    dec = decompose(g)
    stitched = stitch_colorings(dec, [{0: 7, 1: 9, 2: 7, 3: 9, 4: 7}])
    assert color_count(stitched) == 2
    assert sorted(set(stitched.values())) == [1, 2]


def test_stitch_rejects_bad_block_coloring():
    c4 = cycle_graph(4)
    dec4 = decompose(c4)
    # the block lists C4 as d, c, b, a: b and d share a colour, a and c have one each, so no class cuts b from d
    with pytest.raises(ValueError, match="fails verification.*no monochromatic cut for 'b','d'"):
        stitch_colorings(dec4, [{0: 1, 1: 2, 2: 1, 3: 3}])


def test_stitch_properties_on_random_block_trees():
    rng = random.Random(23)
    templates = [cycle_graph(4), cycle_graph(5), theta_graph([1, 1, 1]), path_graph(2)]
    for trial in range(25):
        g = attach_blocks(rng, templates, rng.randint(1, 4))
        dec = decompose(g)
        per_block = [mvd_exact(b.graph).coloring for b in dec.blocks]
        stitched = stitch_colorings(dec, per_block)
        expect = sum(color_count(c) for c in per_block) - dec.r + 1
        assert color_count(stitched) == expect
        for block, local in zip(dec.blocks, per_block):
            lifted = {i: stitched[v] for i, v in enumerate(block.vertices)}
            assert is_mvd_coloring(block.graph, lifted).ok
            # class structure preserved up to renaming
            rename: dict[int, int] = {}
            for i in range(block.graph.order):
                rename.setdefault(local[i], lifted[i])
                assert rename[local[i]] == lifted[i]
            assert len(set(rename.values())) == len(rename)

        # blocks sharing a cut vertex share exactly that vertex's color
        for i in range(dec.r):
            for j in range(i + 1, dec.r):
                shared = set(dec.blocks[i].vertices) & set(dec.blocks[j].vertices)
                if not shared:
                    continue
                (w,) = shared
                ci = {stitched[v] for v in dec.blocks[i].vertices}
                cj = {stitched[v] for v in dec.blocks[j].vertices}
                assert ci & cj == {stitched[w]}


def test_via_blocks_on_worked_example(data_dir):
    g, _ = load_graph(str(data_dir / "example17.txt"))
    catalog = load_catalog(str(data_dir / "typeset9"))
    res = mvd_via_blocks(g, catalog)
    assert res.value == 3
    assert res.method == "block-composed"
    assert all(how.startswith("catalog:") for how in res.block_methods)
    dec = decompose(g)
    for block in dec.blocks:
        assert color_count(restrict(res.coloring, block.vertices)) == 2


def test_via_blocks_trees_and_unicyclic():
    rng = random.Random(41)
    for trial in range(10):
        tree = random_tree(rng, rng.randint(2, 9))
        res = mvd_via_blocks(tree)
        assert res.value == tree.order

    # a C4 with a 3-vertex tail: n=7, value n-2
    g = Graph.from_edges(
        list("abcdefg"),
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6)],
    )
    assert mvd_via_blocks(g).value == 5


def test_via_blocks_agrees_with_exact_on_random_graphs():
    rng = random.Random(71)
    for trial in range(40):
        g = random_connected_graph(rng, rng.randint(2, 8))
        blockwise = mvd_via_blocks(g)
        exact = mvd_exact(g)
        assert blockwise.value == exact.value
        assert is_mvd_coloring(g, blockwise.coloring).ok
        assert is_mvd_coloring(g, exact.coloring).ok


def test_catalog_is_skipped_for_blocks_larger_than_its_entries(data_dir):
    # C14 with a pendant edge: the block C14 is beyond the canonical-form guard
    catalog = load_catalog(str(data_dir / "typeset9"))
    g = Graph.from_edges(default_labels(15), [(i, (i + 1) % 14) for i in range(14)] + [(0, 14)])
    assert catalog.lookup(cycle_graph(14)) is None
    assert mvd_via_blocks(g, catalog).value == mvd_via_blocks(g).value == 8


def test_block_solve_scales_to_long_paths_and_cacti():
    cactus = random_cactus(random.Random(30), 30)
    blocks = decompose(cactus).blocks
    cactus_value = sum(2 if b.trivial else b.graph.order // 2 for b in blocks) - len(blocks) + 1
    budget = 1.0
    inputs = (
        ("P100", path_graph(100), 100),
        ("30-block cactus", cactus, cactus_value),
        ("P5000", path_graph(5000), 5000),
    )
    for name, g, want in inputs:
        t0 = time.time()
        res = mvd_via_blocks(g)
        elapsed = time.time() - t0
        ok = elapsed < budget
        line = (
            f"scale {name}: {'PASS' if ok else 'FAIL (over budget)'} "
            f"(n={g.order}, value {res.value}; {elapsed:.2f}s of {budget:.0f}s budget)"
        )
        print(line)
        assert res.value == want
        for block in res.decomposition.blocks:
            assert is_mvd_coloring(block.graph, {i: res.coloring[v] for i, v in enumerate(block.vertices)}).ok
        if g.order < 1000:  # whole-graph verification builds one O(n) class view per colour: n of them here
            assert is_mvd_coloring(g, res.coloring).ok
        assert ok, line


@pytest.mark.parametrize("n, budget", [(1500, 12.0), (2000, 2.5)], ids=["C1500", "C2000"])
def test_long_cycle_solves_within_budget(n, budget):
    g = cycle_graph(n)
    t0 = time.time()
    res = mvd_via_blocks(g)
    elapsed = time.time() - t0
    ok = elapsed < budget
    line = f"solve C{n}: {'PASS' if ok else 'FAIL (over budget)'} ({elapsed:.2f}s of {budget:.1f}s budget)"
    print(line)
    assert res.value == n // 2 and res.block_methods == ("closed-form",)
    assert ok, line


def test_via_blocks_guard_names_the_block():
    big_block = theta_graph([2, 2, 1, 1, 1, 1, 1, 1])  # order 12, a theta that misses the bound
    with pytest.raises(GuardError, match="block {a, b, c"):
        mvd_via_blocks(big_block)


def test_guard_message_stays_short_on_a_large_block():
    g = theta_graph([500, 500, 2, 2])  # order 1006, misses the theta bound
    with pytest.raises(GuardError) as err:
        mvd_via_blocks(g)
    message = str(err.value)
    assert "guard" in message and "order 1006" in message
    assert message.startswith("block {v1, v10, v100, ...}")
    assert len(message) < 160, message


def test_no_larger_coloring_exists_at_small_order():
    rng = random.Random(83)
    for trial in range(15):
        g = random_connected_graph(rng, rng.randint(2, 6))
        res = mvd_exact(g)
        if res.value == g.order:
            continue
        for colors in partitions_into_k_classes(g.order, res.value + 1):
            assert not is_mvd_coloring(g, {v: colors[v] for v in range(g.order)}).ok
