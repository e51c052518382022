from __future__ import annotations

import random
import time

import pytest

from mvdcolor.blocks import decompose
from mvdcolor.catalog import theta_graph
from mvdcolor.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    default_labels,
    induced_subgraph,
    load_graph,
    parse_coloring,
    path_graph,
)
import mvdcolor.verify as verify
from mvdcolor.solve import mvd_via_blocks
from mvdcolor.verify import (
    class_view,
    color_count,
    is_mvd_coloring,
    monochromatic_cut_exists,
)
from builders import attach_blocks, random_connected_graph, random_tree
from oracles import (
    components,
    oracle_is_mvd,
    oracle_least_cut_color,
    oracle_monochromatic_cut_colors,
    oracle_separates,
    restrict,
)


def test_c4_alternating_pair_has_cut():
    c4 = cycle_graph(4)
    assert monochromatic_cut_exists(c4, {0: 1, 1: 2, 2: 1, 3: 2}, 0, 2) == 2


def test_c4_three_colors_has_no_cut():
    # derived by cut enumeration: the only separating cut {b, d} is bicolored
    c4 = cycle_graph(4)
    assert monochromatic_cut_exists(c4, {0: 1, 1: 2, 2: 1, 3: 3}, 0, 2) is None


def test_c5_alternating_coloring_pair():
    # the floor(n/2)-color cycle construction: classes {a,c,e} and {b,d}
    c5 = cycle_graph(5)
    coloring = {0: 1, 1: 2, 2: 1, 3: 2, 4: 1}
    assert monochromatic_cut_exists(c5, coloring, 1, 4) == 1


def test_adjacent_pair_is_an_error():
    c4 = cycle_graph(4)
    with pytest.raises(ValueError, match="adjacent"):
        monochromatic_cut_exists(c4, {v: 1 for v in range(4)}, 0, 1)


def test_vertex_indices_outside_the_graph_are_errors():
    # -1 must not be read as the last vertex, nor 7 as a vertex no class holds;
    # (0, -1) would otherwise pass as the adjacent pair a, e
    c5 = cycle_graph(5)
    for x, y, bad in ((-1, 1, -1), (0, 7, 7), (0, -1, -1)):
        with pytest.raises(ValueError, match=f"^vertex index {bad} is outside 0..4$"):
            monochromatic_cut_exists(c5, {v: 1 for v in range(5)}, x, y)


def test_verdicts():
    k5 = complete_graph(5)
    assert is_mvd_coloring(k5, {v: v + 1 for v in range(5)}).ok

    tree = path_graph(5)
    assert is_mvd_coloring(tree, {v: v + 1 for v in range(5)}).ok

    c4 = cycle_graph(4)
    verdict = is_mvd_coloring(c4, {0: 1, 1: 2, 2: 1, 3: 3})
    assert not verdict.ok
    assert verdict.witness == (0, 2)
    assert verdict.certificate is None


def test_verdict_requires_total_coloring():
    # each error names the first thing wrong: missing vertices, then by key order
    # an unknown index or a nonpositive color
    c4 = cycle_graph(4)
    assert is_mvd_coloring(c4, {0: 1, 1: 2, 2: 1, 3: 2}).ok
    for coloring, message in [
        ({0: 1, 1: 2}, "coloring misses vertices: c, d"),
        ({0: 1, 1: 2, 2: 1, 3: 2, 4: 1}, "coloring mentions unknown vertex index 4"),
        ({0: 1, 1: 2, 2: 1, -1: 1}, "coloring misses vertices: d"),
        ({0: 1, 1: 2, 2: 1, 3: 2, -1: 1}, "coloring mentions unknown vertex index -1"),
        ({0: 1, 1: 0, 2: 1, 3: 2}, "colors must be positive, got 0"),
        ({0: 1, 1: 2, 2: -3, 3: 2, 7: 1}, "colors must be positive, got -3"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            is_mvd_coloring(c4, coloring)


def test_restrict():
    coloring = {0: 5, 1: 7, 2: 5}
    assert restrict(coloring, [0, 1, 2]) == coloring
    assert restrict(coloring, [1]) == {1: 7}
    assert color_count(restrict(coloring, [2])) == 1


def test_restrict_example_block_has_two_colors(data_dir):
    g, _ = load_graph(str(data_dir / "example17.txt"))
    coloring = parse_coloring((data_dir / "example17_coloring.txt").read_text(), g)
    block = [g.index_of(lab) for lab in "KPJNHGFEA"]
    sub = restrict(coloring, block)
    assert set(sub.values()) == {10, 11}


def test_agrees_with_subset_oracle_on_small_graphs():
    rng = random.Random(4242)
    for trial in range(60):
        n = rng.randint(2, 5)
        g = random_connected_graph(rng, n)
        coloring = {v: rng.randint(1, 3) for v in range(n)}
        assert is_mvd_coloring(g, coloring).ok == oracle_is_mvd(g, coloring)
        for x in range(n):
            for y in range(x + 1, n):
                if g.has_edge(x, y):
                    continue
                got = monochromatic_cut_exists(g, coloring, x, y)
                want = oracle_monochromatic_cut_colors(g, coloring, x, y)
                assert (got is None) == (not want)
                if got is not None:
                    assert got in want


def test_restriction_of_passing_coloring_passes_on_connected_subgraphs():
    # restrictions of a passing coloring pass on connected induced subgraphs
    rng = random.Random(7)
    from mvdcolor.solve import mvd_via_blocks

    for trial in range(25):
        n = rng.randint(3, 8)
        g = random_connected_graph(rng, n)
        coloring = mvd_via_blocks(g).coloring
        for _ in range(6):
            size = rng.randint(2, n)
            subset = sorted(rng.sample(range(n), size))
            sub = induced_subgraph(g, subset)
            if len(components(sub, set())) != 1:
                continue
            local = {i: coloring[v] for i, v in enumerate(subset)}
            assert is_mvd_coloring(sub, local).ok


def test_all_one_coloring_passes_and_merging_keeps_other_certificates():
    rng = random.Random(11)
    from mvdcolor.solve import mvd_via_blocks

    for trial in range(25):
        n = rng.randint(3, 8)
        g = random_connected_graph(rng, n)
        from mvdcolor.graph import is_complete

        if not is_complete(g):
            assert is_mvd_coloring(g, {v: 1 for v in range(n)}).ok

        coloring = mvd_via_blocks(g).coloring
        verdict = is_mvd_coloring(g, coloring)
        assert verdict.ok
        colors = sorted(set(coloring.values()))
        if len(colors) < 2:
            continue
        a, b = rng.sample(colors, 2)
        merged = {v: (a if c == b else c) for v, c in coloring.items()}
        # pairs certified by an untouched class must still pass via it
        assert verdict.certificate is not None
        for pair, color in verdict.certificate.items():
            if color not in (a, b):
                assert monochromatic_cut_exists(g, merged, *pair) is not None


def test_certificates_are_sound():
    rng = random.Random(13)
    from mvdcolor.solve import mvd_via_blocks

    for trial in range(25):
        g = random_connected_graph(rng, rng.randint(3, 8))
        coloring = mvd_via_blocks(g).coloring
        verdict = is_mvd_coloring(g, coloring)
        assert verdict.ok and verdict.certificate is not None
        for (x, y), color in verdict.certificate.items():
            cls = {v for v, c in coloring.items() if c == color and v not in (x, y)}
            assert oracle_separates(g, cls, x, y)


def test_trees_with_distinct_colors_pass():
    rng = random.Random(5)
    for n in range(2, 9):
        tree = random_tree(rng, n)
        assert is_mvd_coloring(tree, {v: v + 1 for v in range(n)}).ok


def test_verdict_witness_and_certificates_match_the_oracle_exactly():
    # witness: least failing pair by label; certificate: least separating color
    rng = random.Random(2112)
    for trial in range(150):
        n = rng.randint(2, 8)
        base = random_connected_graph(rng, n)
        g = Graph(tuple(rng.sample(default_labels(n), n)), base.neighbors)
        coloring = {v: rng.randint(1, rng.randint(1, n)) for v in range(n)}
        by_label = sorted(range(n), key=lambda v: g.labels[v])
        witness = None
        certificate = {}
        for i, x in enumerate(by_label):
            for y in by_label[i + 1:]:
                if g.has_edge(x, y):
                    continue
                colors = oracle_monochromatic_cut_colors(g, coloring, x, y)
                if not colors:
                    witness = (x, y)
                    break
                certificate[(x, y)] = min(colors)
            if witness is not None:
                break
        verdict = is_mvd_coloring(g, coloring)
        assert verdict.ok == oracle_is_mvd(g, coloring) == (witness is None)
        assert verdict.witness == witness
        assert verdict.certificate == (certificate if witness is None else None)


def test_block_lemma_verdict_is_the_conjunction_over_blocks():
    rng = random.Random(1729)
    templates = [
        path_graph(2), cycle_graph(4), cycle_graph(5), complete_graph(4),
        theta_graph([1, 1, 1]), theta_graph([2, 1, 1]),
    ]
    seen = set()
    for trial in range(150):
        g = attach_blocks(rng, templates, rng.randint(2, 5))
        coloring = {v: rng.randint(1, rng.randint(1, 4)) for v in range(g.order)}
        per_block = [
            is_mvd_coloring(b.graph, {i: coloring[v] for i, v in enumerate(b.vertices)}).ok
            for b in decompose(g).blocks
        ]
        verdict = is_mvd_coloring(g, coloring).ok
        assert verdict == all(per_block)
        seen.add(verdict)
    assert seen == {True, False}


def test_block_local_verdict_matches_the_oracle_on_glued_graphs():
    # ok, witness and certificate on glued graphs of order up to about 40,
    # where a failing block's least pair must beat every other block's
    rng = random.Random(4711)
    templates = [
        path_graph(2), cycle_graph(4), cycle_graph(5), cycle_graph(6), complete_graph(4),
        theta_graph([1, 1, 1]), theta_graph([2, 1, 1]), theta_graph([2, 2, 1]),
    ]
    verdicts, shared_witness = set(), 0
    for trial in range(160):
        base = attach_blocks(rng, templates, rng.randint(2, 9))
        n = base.order
        g = Graph(tuple(rng.sample(default_labels(n), n)), base.neighbors)
        if trial % 3 == 0:
            coloring = mvd_via_blocks(g).coloring
        else:
            coloring = {v: rng.randint(1, rng.randint(1, 3)) for v in range(n)}
        by_label = sorted(range(n), key=lambda v: g.labels[v])
        witness, certificate = None, {}
        for i, x in enumerate(by_label):
            for y in by_label[i + 1:]:
                if g.has_edge(x, y):
                    continue
                color = oracle_least_cut_color(g, coloring, x, y)
                if n <= 8:
                    assert color == min(oracle_monochromatic_cut_colors(g, coloring, x, y), default=None)
                if color is None:
                    witness = (x, y)
                    break
                certificate[(x, y)] = color
            if witness is not None:
                break
        verdict = is_mvd_coloring(g, coloring)
        assert (verdict.ok, verdict.witness) == (witness is None, witness)
        assert verdict.certificate == (certificate if witness is None else None)
        verdicts.add(verdict.ok)
        if witness is not None:
            dec = decompose(g)
            failing = [
                b for b in dec.blocks
                if witness[0] in b.vertices
                and not oracle_is_mvd(b.graph, {i: coloring[v] for i, v in enumerate(b.vertices)})
            ]
            shared_witness += witness[0] in dec.cut_vertices and len(failing) >= 2
    assert verdicts == {True, False} and shared_witness


def test_reading_the_verdict_builds_no_certificate(monkeypatch):
    def sweep_forbidden(*_):
        raise AssertionError("certificate sweep ran")

    g = cycle_graph(8)
    passing, failing = {v: v % 2 + 1 for v in range(8)}, {v: v + 1 for v in range(8)}
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_certificate", sweep_forbidden)
        assert is_mvd_coloring(g, passing).ok
        verdict = is_mvd_coloring(g, failing)
        assert (verdict.ok, verdict.witness) == (False, (0, 2))
        assert verdict.certificate is None
    sweeps = []
    real = verify._certificate
    monkeypatch.setattr(verify, "_certificate", lambda *a: sweeps.append(1) or real(*a))
    verdict = is_mvd_coloring(g, passing)
    first = verdict.certificate
    assert verdict.certificate is first and len(first) == 8 * 7 // 2 - 8
    assert sweeps == [1]


def test_long_path_verdict_within_budget():
    n = 2000
    g = path_graph(n)
    budget = 0.5
    t0 = time.perf_counter()
    ok = is_mvd_coloring(g, {v: v + 1 for v in range(n)}).ok
    elapsed = time.perf_counter() - t0
    assert ok
    assert elapsed < budget, f"verdict on P{n} took {elapsed:.3f}s of {budget}s"


def test_class_view_matches_the_separation_oracle():
    # bit y of joined[x] is clear iff the class minus {x, y} separates x and y
    rng = random.Random(3119)
    inside = {(False, False): 0, (True, False): 0, (False, True): 0, (True, True): 0}
    for trial in range(120):
        g = random_connected_graph(rng, rng.randint(2, 9))
        class_mask = rng.getrandbits(g.order)
        joined = class_view(g, class_mask)
        for x in range(g.order):
            for y in range(g.order):
                if x == y or g.has_edge(x, y):
                    continue
                cut = {v for v in range(g.order) if class_mask >> v & 1} - {x, y}
                assert (not joined[x] >> y & 1) == oracle_separates(g, cut, x, y)
                inside[(bool(class_mask >> x & 1), bool(class_mask >> y & 1))] += 1
    assert all(inside.values())


def test_long_path_verifies_within_budget():
    n = 1000
    g = path_graph(n)
    budget = 10.0
    t0 = time.time()
    verdict = is_mvd_coloring(g, {v: v + 1 for v in range(n)})
    elapsed = time.time() - t0
    ok = elapsed < budget
    line = f"verify P{n}: {'PASS' if ok else 'FAIL (over budget)'} ({elapsed:.2f}s of {budget:.0f}s budget)"
    print(line)
    assert verdict.ok and len(verdict.certificate) == n * (n - 1) // 2 - (n - 1)
    assert ok, line
