"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mvdcolor.blocks import decompose
from mvdcolor.catalog import (
    build_catalog,
    load_catalog,
    save_catalog,
    theta_graph,
)
from mvdcolor.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    default_labels,
    load_graph,
    path_graph,
)
from mvdcolor.iso import canonical_labelling
from mvdcolor.solve import (
    counting_formula,
    mvd_exact,
    mvd_via_blocks,
    solve_block,
)
from mvdcolor.verify import color_count, is_mvd_coloring
from mvdcolor.analysis import bound_blocks, classify
from builders import attach_blocks, census_graphs, random_cactus, random_tree, random_connected_graph, with_pendants
from oracles import oracle_is_mvd, partitions_into_k_classes, restrict

DATA = Path(__file__).parent.parent / "data"

_cache: dict = {}


def report(criterion: int, elapsed: float, budget: float, detail: str) -> None:
    ok = elapsed < budget
    line = (
        f"criterion {criterion}: {'PASS' if ok else 'FAIL (over budget)'} "
        f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)"
    )
    print(line)
    assert ok, line


def test_criterion_1_cycles():
    t0 = time.time()
    for n in range(4, 11):
        assert mvd_exact(cycle_graph(n)).value == n // 2, f"C{n}"
    assert mvd_exact(cycle_graph(3)).value == 3
    report(1, time.time() - t0, 30, "mvd(C3)=3 and mvd(Cn)=floor(n/2) for n=4..10")


def test_criterion_2_complete_graphs_and_trees():
    t0 = time.time()
    for n in range(2, 7):
        assert mvd_via_blocks(complete_graph(n)).value == n, f"K{n}"
    rng = random.Random(2024)
    for trial in range(20):
        tree = random_tree(rng, rng.randint(2, 10))
        assert mvd_via_blocks(tree).value == tree.order
    report(2, time.time() - t0, 10, "K2..K6 and 20 random trees give value n")


def test_criterion_3_worked_example_end_to_end(tmp_path):
    t0 = time.time()
    g, _ = load_graph(str(DATA / "example17.txt"))
    assert g.order == 17 and g.size == 23

    dec = decompose(g)
    assert {g.labels[v] for v in dec.cut_vertices} == {"H"}
    block_sets = {frozenset(g.labels[v] for v in b.vertices) for b in dec.blocks}
    assert block_sets == {frozenset("BCDHILMOQ"), frozenset("AEFGHJKNP")}

    proc = subprocess.run(
        [sys.executable, "-m", "mvdcolor", "solve", str(DATA / "example17.txt"),
         "--catalog", str(DATA / "typeset9")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "mvd = 3" in proc.stdout

    catalog = load_catalog(str(DATA / "typeset9"))
    res = mvd_via_blocks(g, catalog)
    assert res.value == 3
    for block in dec.blocks:
        assert color_count(restrict(res.coloring, block.vertices)) == 2

    coloring_path = tmp_path / "solved.txt"
    lines = [ln for ln in proc.stdout.splitlines()]
    start = lines.index("coloring:") + 1
    coloring_path.write_text("\n".join(lines[start:start + 17]) + "\n")
    check = subprocess.run(
        [sys.executable, "-m", "mvdcolor", "verify", str(DATA / "example17.txt"), str(coloring_path)],
        capture_output=True, text=True,
    )
    assert check.returncode == 0 and "PASS" in check.stdout
    report(3, time.time() - t0, 5, "cut {H}, both 9-vertex blocks, value 3, verify PASS")


def _criterion_4_sample():
    if "c4_sample" not in _cache:
        rng = random.Random(40_40)
        rows = []
        for trial in range(300):
            g = random_connected_graph(rng, rng.randint(2, 9))
            rows.append(g)
        _cache["c4_sample"] = rows
    return _cache["c4_sample"]


def _criterion_4_results():
    if "c4_results" not in _cache:
        rows = []
        for g in _criterion_4_sample():
            blockwise = mvd_via_blocks(g)
            exact = mvd_exact(g)
            dec = decompose(g)
            values = [solve_block(b, None).value for b in dec.blocks]
            rows.append((g, dec, values, blockwise, exact))
        _cache["c4_results"] = rows
    return _cache["c4_results"]


def test_criterion_4_composition_agreement():
    t0 = time.time()
    count = 0
    for g, dec, values, blockwise, exact in _criterion_4_results():
        assert blockwise.value == exact.value, (g.labels, g.edges())
        assert is_mvd_coloring(g, blockwise.coloring).ok
        assert is_mvd_coloring(g, exact.coloring).ok
        count += 1
    assert count >= 300
    report(4, time.time() - t0, 600, f"blockwise = exact on {count} random graphs, n <= 9")


def test_criterion_5_minimal_block_census():
    t0 = time.time()
    levels = census_graphs(6)

    def keys(graphs):
        return {canonical_labelling(g).key for g in graphs}

    assert keys(levels[4]) == keys([cycle_graph(4)])
    assert keys(levels[5]) == keys([cycle_graph(5), theta_graph([1, 1, 1])])
    assert keys(levels[6]) == keys(
        [cycle_graph(6), theta_graph([2, 1, 1]), theta_graph([1, 1, 1, 1])]
    )
    report(5, time.time() - t0, 60, "census at orders 4, 5, 6 matches exactly")


def _catalog_order_9(tmp_path_factory=None):
    if "catalog9" not in _cache:
        _cache["catalog9"] = build_catalog(9)
    return _cache["catalog9"]


def test_criterion_6_catalog_regeneration(tmp_path):
    t0 = time.time()
    cat = _catalog_order_9()
    cycles = {n: canonical_labelling(cycle_graph(n)).key for n in range(3, 10)}
    for entry in cat.entries:
        n = entry.order
        if n >= 4:
            assert entry.mvd_value <= n // 2, entry.id
            if canonical_labelling(entry.graph).key == cycles[n]:
                assert entry.mvd_value == n // 2, entry.id
    save_catalog(cat, str(tmp_path))
    again = load_catalog(str(tmp_path))
    assert len(again) == len(cat)
    for entry in again.entries:
        assert is_mvd_coloring(entry.graph, entry.coloring).ok
        assert color_count(entry.coloring) == entry.mvd_value
    report(
        6, time.time() - t0, 900,
        f"{len(cat)} entries up to order 9 respect the half-order bound and reload verified",
    )


def test_criterion_6_catalog_order_10(tmp_path):
    t0 = time.time()
    cat = build_catalog(10)
    for entry in cat.entries:
        if entry.order >= 4:
            assert entry.mvd_value <= entry.order // 2
    save_catalog(cat, str(tmp_path))
    again = load_catalog(str(tmp_path))
    assert len(again) == len(cat) == 121
    report(6, time.time() - t0, 2, f"{len(cat)} entries up to order 10 built, saved and reloaded")


def _criterion_7_results():
    if "c7_results" not in _cache:
        rng = random.Random(7_77)
        cactus_rows = []
        for trial in range(100):
            g = random_cactus(rng, rng.randint(1, 5), even_only=True)
            res = mvd_via_blocks(g)
            dec = decompose(g)
            values = [solve_block(b, None).value for b in dec.blocks]
            cactus_rows.append((g, dec, values, res))
        levels = census_graphs(7)
        templates = [g for n in range(4, 8) for g in levels[n]] + [path_graph(2)]
        gated_rows = []
        for trial in range(100):
            g = attach_blocks(rng, templates, rng.randint(1, 4))
            res = mvd_via_blocks(g)
            dec = decompose(g)
            values = [solve_block(b, None).value for b in dec.blocks]
            gated_rows.append((g, dec, values, res))
        _cache["c7_results"] = (cactus_rows, gated_rows)
    return _cache["c7_results"]


def test_criterion_7_block_graph_bound():
    t0 = time.time()
    cactus_rows, gated_rows = _criterion_7_results()
    for g, dec, values, res in cactus_rows:
        rep = bound_blocks(g)
        assert rep.applicable
        assert res.value == rep.value, "sharpness on even cactuses"
    for g, dec, values, res in gated_rows:
        rep = bound_blocks(g)
        assert rep.applicable
        assert res.value <= rep.value
    report(7, time.time() - t0, 300, "100 even cactuses attain the bound; 100 gated graphs respect it")


def test_criterion_8_classification():
    t0 = time.time()
    rng = random.Random(8_88)

    for trial in range(5):
        tree = random_tree(rng, rng.randint(2, 10))
        res = classify(tree)
        assert res.regime == "n" and res.family == "tree"

    for pendants in range(0, 4):
        res = classify(with_pendants(cycle_graph(4), pendants))
        assert res.regime == "n-2" and res.family == "unicyclic-C4"

    class_a_cores = [cycle_graph(5), theta_graph([1, 1, 1]), cycle_graph(6)]
    for core in class_a_cores:
        for pendants in (0, 2):
            res = classify(with_pendants(core, pendants))
            assert res.regime == "n-3" and res.family == "class-A", core.labels

    class_b_cores = [
        cycle_graph(7),
        theta_graph([3, 1, 1]),
        theta_graph([2, 1, 1]),
        theta_graph([1, 1, 1, 1]),
        cycle_graph(8),
    ]
    for core in class_b_cores:
        for pendants in (0, 1):
            res = classify(with_pendants(core, pendants))
            assert res.regime == "n-4" and res.family == "class-B"

    # two C4 blocks, adjacent (shared cut vertex) and non-adjacent (joined by a path)
    adjacent = Graph.from_edges(
        default_labels(7),
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)],
    )
    res = classify(adjacent)
    assert res.regime == "n-4" and res.family == "class-B"
    nonadjacent = Graph.from_edges(
        default_labels(9),
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 5)],
    )
    res = classify(nonadjacent)
    assert res.regime == "n-4" and res.family == "class-B"

    class_c_cores = [
        cycle_graph(9),
        theta_graph([5, 1, 1]),
        theta_graph([3, 3, 1]),
        cycle_graph(10),
    ]
    for core in class_c_cores:
        for pendants in (0, 1):
            res = classify(with_pendants(core, pendants))
            assert res.regime == "n-5" and res.family == "class-C", core.order

    # no gated instance lands on n-1
    levels = census_graphs(6)
    templates = [g for n in range(4, 7) for g in levels[n]] + [path_graph(2)]
    for trial in range(60):
        g = attach_blocks(rng, templates, rng.randint(1, 4))
        res = classify(g)
        assert res.mvd != g.order - 1
    report(8, time.time() - t0, 600, "all constructed families classify to the stated regimes")


def _connected_graphs_up_to_iso(max_n: int) -> dict[int, list[Graph]]:
    """Connected graphs up to isomorphism, grown one vertex at a time."""
    out: dict[int, list[Graph]] = {1: [Graph(("a",), ((),))]}
    for n in range(2, max_n + 1):
        seen: dict[str, Graph] = {}
        labels = default_labels(n)
        for smaller in out[n - 1]:
            base = smaller.edges()
            for mask in range(1, 1 << (n - 1)):
                edges = list(base) + [(i, n - 1) for i in range(n - 1) if (mask >> i) & 1]
                g = Graph.from_edges(labels, edges)
                seen.setdefault(canonical_labelling(g).key, g)
        out[n] = [seen[k] for k in sorted(seen)]
    return out


def test_criterion_9_verifier_matches_subset_oracle():
    t0 = time.time()
    classes = _connected_graphs_up_to_iso(6)
    assert [len(classes[n]) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]
    checked = 0
    for n in range(2, 7):
        colorings = []
        for k in range(1, min(3, n) + 1):
            colorings.extend(partitions_into_k_classes(n, k))
        for g in classes[n]:
            for colors in colorings:
                coloring = {v: colors[v] for v in range(n)}
                assert is_mvd_coloring(g, coloring).ok == oracle_is_mvd(g, coloring)
                checked += 1
    report(9, time.time() - t0, 600, f"verifier = subset oracle on {checked} graph/coloring pairs")


def test_criterion_10_counting_formula():
    t0 = time.time()
    checked = 0
    out_of_domain = 0
    for g, dec, values, blockwise, exact in _criterion_4_results():
        if all(2 <= v <= 5 for v in values):
            assert counting_formula(dec, values) == sum(values) - dec.r + 1 == blockwise.value
            checked += 1
        else:
            with pytest.raises(ValueError):
                counting_formula(dec, values)
            out_of_domain += 1
    cactus_rows, gated_rows = _criterion_7_results()
    for g, dec, values, res in itertools.chain(cactus_rows, gated_rows):
        assert all(2 <= v <= 5 for v in values)
        assert counting_formula(dec, values) == res.value
        checked += 1
    assert checked >= 300
    report(
        10, time.time() - t0, 600,
        f"counting formula = composition on {checked} decompositions ({out_of_domain} outside 2..5)",
    )
