from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

PKG = [sys.executable, "-m", "mvdcolor"]


def run_cli(*args: str):
    return subprocess.run(PKG + list(args), capture_output=True, text=True)


@pytest.fixture()
def c9_file(tmp_path) -> str:
    from mvdcolor.graph import cycle_graph, format_matrix

    path = tmp_path / "c9.txt"
    path.write_text(format_matrix(cycle_graph(9)))
    return str(path)


def test_decompose_worked_example(data_dir):
    proc = run_cli("decompose", str(data_dir / "example17.txt"))
    assert proc.returncode == 0
    assert "cut vertices: H" in proc.stdout
    assert "block 1 (nontrivial): B, C, D, H, I, L, M, O, Q" in proc.stdout
    assert "block 2 (nontrivial): A, E, F, G, H, J, K, N, P" in proc.stdout


def test_decompose_is_byte_deterministic(data_dir):
    a = run_cli("decompose", str(data_dir / "example17.txt"))
    b = run_cli("decompose", str(data_dir / "example17.txt"))
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_decompose_rejects_disconnected(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("a, b, c, d\n0, 1, 0, 0\n1, 0, 0, 0\n0, 0, 0, 1\n0, 0, 1, 0\n")
    proc = run_cli("decompose", str(path))
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_solve_worked_example_with_catalog(data_dir):
    proc = run_cli(
        "solve", str(data_dir / "example17.txt"),
        "--catalog", str(data_dir / "typeset9"),
    )
    assert proc.returncode == 0
    assert "mvd = 3" in proc.stdout
    assert "catalog:graph_9Vertex-11" in proc.stdout
    assert "catalog:graph_9Vertex-9" in proc.stdout


def test_solve_refuses_a_catalog_entry_below_its_value(tmp_path):
    # a one-colour entry passes, but its block's value is 2: with it, solve once answered mvd = 1
    from builders import census_graphs
    from mvdcolor.graph import format_matrix
    from mvdcolor.solve import mvd_closed_form

    block = next(g for g in census_graphs(8)[8] if mvd_closed_form(g) is None)
    cat = tmp_path / "cat"
    cat.mkdir()
    (cat / "b8.txt").write_text(format_matrix(block, {v: 1 for v in range(block.order)}))
    graph = tmp_path / "b8.txt"
    graph.write_text(format_matrix(block))
    proc = run_cli("solve", str(graph), "--catalog", str(cat))
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr == "error: b8.txt: entry 'b8' is not optimal: color count 1, graph's value 2\n"
    assert "mvd = 2" in run_cli("solve", str(graph)).stdout


def test_solve_tree(tmp_path):
    from builders import star_graph
    from mvdcolor.graph import format_matrix

    path = tmp_path / "star.txt"
    path.write_text(format_matrix(star_graph(5)))
    proc = run_cli("solve", str(path))
    assert proc.returncode == 0
    assert "mvd = 6" in proc.stdout


def test_solve_output_feeds_verify(data_dir, tmp_path):
    proc = run_cli(
        "solve", str(data_dir / "example17.txt"),
        "--catalog", str(data_dir / "typeset9"),
    )
    assert proc.returncode == 0
    color_lines = [
        ln for ln in proc.stdout.splitlines() if ":" in ln and not ln.startswith(("graph", "block", "method", "coloring"))
    ]
    coloring_path = tmp_path / "coloring.txt"
    coloring_path.write_text("\n".join(color_lines) + "\n")
    check = run_cli("verify", str(data_dir / "example17.txt"), str(coloring_path))
    assert check.returncode == 0
    assert "PASS" in check.stdout


def test_verify_pinned_reference_coloring(data_dir):
    proc = run_cli(
        "verify", str(data_dir / "example17.txt"), str(data_dir / "example17_coloring.txt")
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "PASS"


def test_verify_fail_reports_least_witness(tmp_path):
    graph = tmp_path / "c4.txt"
    graph.write_text("a, b, c, d\n0, 1, 0, 1\n1, 0, 1, 0\n0, 1, 0, 1\n1, 0, 1, 0\n")
    coloring = tmp_path / "bad.txt"
    coloring.write_text("a:1\nb:2\nc:1\nd:3\n")
    proc = run_cli("verify", str(graph), str(coloring))
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    assert "witness: a,c" in proc.stdout


def test_verify_rejects_partial_coloring(tmp_path):
    graph = tmp_path / "c4.txt"
    graph.write_text("a, b, c, d\n0, 1, 0, 1\n1, 0, 1, 0\n0, 1, 0, 1\n1, 0, 1, 0\n")
    coloring = tmp_path / "partial.txt"
    coloring.write_text("a:1\nb:2\n")
    proc = run_cli("verify", str(graph), str(coloring))
    assert proc.returncode == 2


def test_verify_rejects_partially_colored_matrix(tmp_path):
    graph = tmp_path / "p3.txt"
    graph.write_text("a:1, b, c:2\n0, 1, 0\n1, 0, 1\n0, 1, 0\n")
    proc = run_cli("verify", str(graph))
    assert proc.returncode == 2
    assert "label 'b' has no color, but other labels do (line 1, column 2)" in proc.stderr


def test_verify_accepts_colored_matrix(data_dir):
    proc = run_cli("verify", str(data_dir / "typeset9" / "graph_9Vertex-9.txt"))
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_edge_list_input_is_sniffed(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text("n 4\na b\nb c\nc a\nc d\n")
    proc = run_cli("decompose", str(path))
    assert proc.returncode == 0
    assert "cut vertices: c" in proc.stdout


def test_solve_long_path_edge_list_within_budget(tmp_path):
    from builders import format_edge_list
    from mvdcolor.graph import path_graph

    path = tmp_path / "p1000.txt"
    path.write_text(format_edge_list(path_graph(1000)))
    budget = 2.0
    t0 = time.time()
    proc = run_cli("solve", str(path))
    elapsed = time.time() - t0
    ok = elapsed < budget
    line = f"solve P1000: {'PASS' if ok else 'FAIL (over budget)'} ({elapsed:.2f}s of {budget:.0f}s budget)"
    print(line)
    assert proc.returncode == 0, proc.stderr
    assert "mvd = 1000" in proc.stdout
    assert ok, line


def test_iso_subcommand(tmp_path):
    # isomorphism is the catalog's lookup step, not a subcommand: the parser refuses ``iso``
    from mvdcolor.graph import cycle_graph, format_matrix

    a = tmp_path / "a.txt"
    a.write_text(format_matrix(cycle_graph(5)))
    proc = run_cli("iso", str(a), str(a))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "invalid choice: 'iso'" in proc.stderr


def test_iso_node_budget_exit_code(tmp_path, capsys, monkeypatch):
    # classify labels the core for its key, so a canonical search past its node budget exits 3
    import mvdcolor.iso as iso
    from mvdcolor.cli import main
    from mvdcolor.graph import cycle_graph, format_matrix

    a = tmp_path / "a.txt"
    a.write_text(format_matrix(cycle_graph(5)))
    monkeypatch.setattr(iso, "MAX_SEARCH_NODES", 1)
    assert main(["classify", str(a)]) == 3
    assert "budget" in capsys.readouterr().err


def test_catalog_build_and_classify(tmp_path, data_dir):
    out = tmp_path / "cat"
    proc = run_cli("catalog", "build", "--max-order", "6", "--out", str(out))
    assert proc.returncode == 0
    assert "order 4: 1 graphs" in proc.stdout
    assert "order 5: 2 graphs" in proc.stdout
    assert "order 6: 3 graphs" in proc.stdout
    assert (out / "census.txt").exists()
    assert (out / "graph_4Vertex-1.txt").exists()

    from mvdcolor.graph import cycle_graph, format_matrix
    from builders import with_pendants

    g = with_pendants(cycle_graph(4), 3)
    gpath = tmp_path / "unicyclic.txt"
    gpath.write_text(format_matrix(g))
    proc = run_cli("classify", str(gpath), "--catalog", str(out))
    assert proc.returncode == 0
    assert "regime: n-2" in proc.stdout
    assert "family: unicyclic-C4" in proc.stdout


def test_classify_gated_block_beyond_canonical_guard(tmp_path):
    from mvdcolor.graph import cycle_graph, format_matrix

    c14 = tmp_path / "c14.txt"
    c14.write_text(format_matrix(cycle_graph(14)))
    proc = run_cli("classify", str(c14))
    assert proc.returncode == 0, proc.stderr
    assert "family: unclassified" in proc.stdout
    assert "core key: (beyond canonical guard)" in proc.stdout


def test_classify_gate_failure_exit_code(tmp_path):
    triangle = tmp_path / "c3.txt"
    triangle.write_text("a, b, c\n0, 1, 1\n1, 0, 1\n1, 1, 0\n")
    proc = run_cli("classify", str(triangle))
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_bound_subcommand(c9_file):
    proc = run_cli("bound", c9_file)
    assert proc.returncode == 0
    assert "half-order: applicable, bound = 4" in proc.stdout
    assert "block-formula: applicable, bound = 4" in proc.stdout


def test_bound_long_cycle_within_budget(tmp_path):
    from builders import format_edge_list
    from mvdcolor.graph import cycle_graph

    path = tmp_path / "c5000.txt"
    path.write_text(format_edge_list(cycle_graph(5000)))
    budget = 2.0
    t0 = time.time()
    proc = run_cli("bound", str(path))
    elapsed = time.time() - t0
    ok = elapsed < budget
    line = f"bound C5000: {'PASS' if ok else 'FAIL (over budget)'} ({elapsed:.2f}s of {budget:.0f}s budget)"
    print(line)
    assert proc.returncode == 0, proc.stderr
    assert "half-order: applicable, bound = 2500" in proc.stdout
    assert ok, line


def test_solve_large_theta_within_budget(tmp_path):
    from mvdcolor.catalog import theta_graph
    from mvdcolor.graph import format_matrix

    path = tmp_path / "p500.txt"
    path.write_text(format_matrix(theta_graph([500, 500, 500])))
    budget = 15.0
    t0 = time.time()
    proc = run_cli("solve", str(path), "--json")
    elapsed = time.time() - t0
    ok = elapsed < budget
    line = f"solve P(500,500,500): {'PASS' if ok else 'FAIL (over budget)'} ({elapsed:.2f}s of {budget:.0f}s budget)"
    print(line)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["mvd"] == 750
    assert [b["method"] for b in report["blocks"]] == ["closed-form"]
    assert ok, line


def test_export_dot_round_trip(tmp_path, data_dir):
    out = tmp_path / "g.dot"
    proc = run_cli(
        "export-dot", str(data_dir / "example17.txt"),
        "--coloring", str(data_dir / "example17_coloring.txt"),
        "--out", str(out),
    )
    assert proc.returncode == 0
    text = out.read_text()
    assert '"A"' in text and "fillcolor" in text
    import re

    ids = dict(re.findall(r'"(\w+)" \[label="\w+", style=filled, fillcolor="#\w+", colorid=(\d+)\]', text))
    assert ids["A"] == "10" and ids["B"] == "1" and ids["H"] == "11"


def test_export_dot_refuses_a_partial_coloring(tmp_path):
    from mvdcolor.graph import format_matrix, path_graph

    graph, coloring, out = tmp_path / "p3.txt", tmp_path / "partial.txt", tmp_path / "p3.dot"
    graph.write_text(format_matrix(path_graph(3)))
    coloring.write_text("a:1\nb:2\n")
    proc = run_cli("export-dot", str(graph), "--coloring", str(coloring), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == "error: coloring misses vertices: c\n" and not proc.stdout
    assert not out.exists()


def test_solve_guard_exit_code(tmp_path):
    from builders import wheel_graph
    from mvdcolor.graph import format_matrix

    big = tmp_path / "w12.txt"
    big.write_text(format_matrix(wheel_graph(12)))  # its unpruned descent passes the walk budget
    proc = run_cli("solve", str(big))
    assert proc.returncode == 3
    assert "guard" in proc.stderr and "budget" in proc.stderr


def test_solve_walk_budget_exit_code(tmp_path, capsys, monkeypatch):
    import mvdcolor.solve as solve
    from builders import wheel_graph
    from mvdcolor.cli import main
    from mvdcolor.graph import format_matrix

    path = tmp_path / "w6.txt"
    path.write_text(format_matrix(wheel_graph(6)))
    monkeypatch.setattr(solve, "MAX_WALK_STEPS", 1)
    assert main(["solve", str(path)]) == 3
    assert "budget" in capsys.readouterr().err


def test_solve_chorded_theta_of_order_12(tmp_path):
    # a non-theta block above order 11 that exact search answers at its first level
    from mvdcolor.catalog import theta_graph
    from mvdcolor.graph import Graph, format_matrix
    from oracles import oracle_is_mvd

    theta = theta_graph([2, 2, 1, 1, 1, 1, 1, 1])
    g = Graph.from_edges(theta.labels, theta.edges() + [(2, 5)])
    path = tmp_path / "chorded.txt"
    path.write_text(format_matrix(g))
    proc = run_cli("solve", str(path))
    assert proc.returncode == 0, proc.stderr
    assert "mvd = 1" in proc.stdout
    # no 2-colouring passes the subset oracle, so by coarsening no colouring with more colours does
    for mask in range(1, 1 << (g.order - 1)):
        assert not oracle_is_mvd(g, {0: 1, **{v: 1 + (mask >> (v - 1) & 1) for v in range(1, g.order)}}), mask


@pytest.mark.parametrize("spec, value", [((4, 4, 4, 4, 4), 8), ((10, 2, 1), 6)])
def test_solve_theta_below_the_path_bound_in_closed_form(tmp_path, spec, value):
    # orders 22 and 15: beyond the exact-search guard, and minutes of exact search without it
    from mvdcolor.catalog import theta_graph
    from mvdcolor.graph import format_matrix
    from mvdcolor.verify import is_mvd_coloring

    g = theta_graph(spec)
    path = tmp_path / "theta.txt"
    path.write_text(format_matrix(g))
    budget = 2.0
    t0 = time.time()
    proc = run_cli("solve", str(path), "--json")
    elapsed = time.time() - t0
    ok = elapsed < budget
    line = f"solve P{spec}: {'PASS' if ok else 'FAIL (over budget)'} ({elapsed:.2f}s of {budget:.0f}s budget)"
    print(line)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["mvd"] == value and report["self_check"] == "PASS"
    assert [b["method"] for b in report["blocks"]] == ["closed-form"]
    coloring = {g.labels.index(label): c for label, c in report["coloring"].items()}
    assert len(set(coloring.values())) == value and is_mvd_coloring(g, coloring).ok
    assert ok, line


def test_json_reports(data_dir):
    proc = run_cli("decompose", str(data_dir / "example17.txt"), "--json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["cut_vertices"] == ["H"]
    assert report["exit_code"] == 0
    assert report["input"] == {"order": 17, "size": 23}

    again = run_cli("decompose", str(data_dir / "example17.txt"), "--json")
    assert again.stdout == proc.stdout


def test_preserve_colors(data_dir):
    renumbered = run_cli(
        "solve", str(data_dir / "example17.txt"),
        "--catalog", str(data_dir / "typeset9"), "--json",
    )
    preserved = run_cli(
        "solve", str(data_dir / "example17.txt"),
        "--catalog", str(data_dir / "typeset9"),
        "--preserve-colors", "--json",
    )
    ren = json.loads(renumbered.stdout)["coloring"]
    pre = json.loads(preserved.stdout)["coloring"]
    assert sorted(set(ren.values())) == [1, 2, 3]
    assert len(set(pre.values())) == 3
    # renumbering is a bijective renaming of the preserved classes
    mapping = {}
    for label, c in pre.items():
        mapping.setdefault(c, ren[label])
        assert mapping[c] == ren[label]


def main_out(capsys, *args: str) -> str:
    from mvdcolor.cli import main

    assert main(list(args)) == 0
    return capsys.readouterr().out


def test_solve_verifies_each_block_once(data_dir, capsys, monkeypatch):
    import mvdcolor.verify as verify
    from mvdcolor.blocks import decompose
    from mvdcolor.graph import load_graph

    calls = []
    real = verify.partition_passes
    monkeypatch.setattr(verify, "partition_passes", lambda *a: calls.append(1) or real(*a))
    example = str(data_dir / "example17.txt")
    main_out(capsys, "solve", example)
    assert len(calls) == decompose(load_graph(example)[0]).r == 2


def test_solve_skips_the_verifier_on_trivial_blocks(tmp_path, capsys, monkeypatch):
    import random

    import mvdcolor.verify as verify
    from builders import attach_blocks, random_tree
    from mvdcolor.blocks import decompose
    from mvdcolor.graph import Graph, complete_graph, cycle_graph, format_matrix

    calls = []
    real = verify.partition_passes
    monkeypatch.setattr(verify, "partition_passes", lambda *a: calls.append(a[0].order) or real(*a))
    rng = random.Random(13)
    tree = tmp_path / "tree.txt"
    tree.write_text(format_matrix(random_tree(rng, 48)))
    main_out(capsys, "solve", str(tree), "--json")
    assert calls == []
    bridge = Graph.from_edges(["a", "b"], [(0, 1)])
    glued = attach_blocks(rng, [bridge, bridge, cycle_graph(5), complete_graph(4), cycle_graph(6)], 12)
    path = tmp_path / "glued.txt"
    path.write_text(format_matrix(glued))
    main_out(capsys, "solve", str(path))
    nontrivial = [b.graph.order for b in decompose(glued).blocks if not b.trivial]
    assert 0 < len(nontrivial) < decompose(glued).r
    assert sorted(calls) == sorted(nontrivial)


@pytest.fixture()
def family_files(tmp_path) -> dict:
    from builders import star_graph
    from mvdcolor.graph import complete_graph, cycle_graph, format_matrix, path_graph

    files = {}
    for name, g in (("star", star_graph(5)), ("p6", path_graph(6)), ("c9", cycle_graph(9)), ("k5", complete_graph(5))):
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(format_matrix(g))
    return files


def test_solve_whole_graph_families_go_through_blocks(family_files, capsys):
    from mvdcolor.graph import load_graph
    from mvdcolor.solve import mvd_closed_form
    from mvdcolor.verify import is_mvd_coloring

    trails = {"star": ["trivial"] * 5, "p6": ["trivial"] * 5, "c9": ["closed-form"], "k5": ["closed-form"]}
    for name, path in family_files.items():
        g, _ = load_graph(str(path))
        report = json.loads(main_out(capsys, "solve", str(path), "--json"))
        assert report["method"] == "block-composed"
        assert [b["method"] for b in report["blocks"]] == trails[name]
        assert report["mvd"] == (g.order if name in ("star", "p6") else mvd_closed_form(g).value)
        coloring = {g.index_of(label): c for label, c in report["coloring"].items()}
        assert is_mvd_coloring(g, coloring).ok
        assert len(set(coloring.values())) == report["mvd"]


def test_main_calls_share_no_parser_state(data_dir, c9_file, capsys, monkeypatch):
    import mvdcolor.cli as cli

    calls = []
    real = cli.load_catalog
    monkeypatch.setattr(cli, "load_catalog", lambda d: calls.append(d) or real(d))
    catalog = str(data_dir / "typeset9")

    def same_as_fresh_process(*argv: str) -> str:
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        fresh = run_cli(*argv)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
        return out

    bad = ["catalog", "build", "--max-order", "nope", "--out", catalog]
    with pytest.raises(SystemExit) as exc:
        cli.main(bad)
    assert exc.value.code == 2
    assert capsys.readouterr().err == run_cli(*bad).stderr
    same_as_fresh_process("solve", c9_file)
    same_as_fresh_process("solve", c9_file, "--catalog", catalog, "--json")
    plain = same_as_fresh_process("solve", c9_file)
    assert "method: block-composed" in plain and "closed-form" in plain
    assert calls == [catalog]


def test_catalog_build_over_a_larger_build_exits_2(tmp_path, capsys):
    from mvdcolor.catalog import load_catalog
    from mvdcolor.cli import main

    out = str(tmp_path / "cat")
    assert main(["catalog", "build", "--max-order", "6", "--out", out]) == 0
    capsys.readouterr()
    assert main(["catalog", "build", "--max-order", "4", "--out", out]) == 2
    assert "'graph_5Vertex-1.txt'" in capsys.readouterr().err
    assert len(load_catalog(out)) == 7


@pytest.mark.parametrize("args, path", [
    (("solve", "{dir}"), "{dir}"),
    (("solve", "{graph}", "--catalog", "{file}"), "{file}"),
    (("catalog", "build", "--max-order", "4", "--out", "{file}"), "{file}"),
    (("export-dot", "{graph}", "--out", "{dir}"), "{dir}"),
    (("solve", "{graph}", "--emit-dot", "{dir}"), "{dir}"),
], ids=["solve-dir", "catalog-file", "build-out-file", "export-dot-dir", "emit-dot-dir"])
def test_os_errors_exit_2(tmp_path, data_dir, capsys, args, path):
    """A path of the wrong kind is an input error, not a negative verdict."""
    from mvdcolor.cli import main

    (tmp_path / "file").write_text("")
    paths = {"dir": str(tmp_path), "file": str(tmp_path / "file"), "graph": str(data_dir / "example17.txt")}
    assert main([arg.format(**paths) for arg in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and repr(path.format(**paths)) in err


@pytest.fixture()
def report_inputs(tmp_path, data_dir) -> dict:
    from mvdcolor.graph import cycle_graph, format_matrix

    files = {"example": data_dir / "example17.txt", "coloring": data_dir / "example17_coloring.txt",
             "dot": tmp_path / "g.dot", "catalog": tmp_path / "cat", "bad": tmp_path / "bad.txt",
             "c4": tmp_path / "c4.txt"}
    files["bad"].write_text("a:1\nb:2\nc:1\nd:3\n")
    files["c4"].write_text(format_matrix(cycle_graph(4)))
    return {name: str(path) for name, path in files.items()}


@pytest.mark.parametrize("args, code", [
    (("decompose", "{example}"), 0),
    (("solve", "{example}"), 0),
    (("verify", "{example}", "{coloring}"), 0),
    (("verify", "{c4}", "{bad}"), 1),
    (("catalog", "build", "--max-order", "6", "--out", "{catalog}"), 0),
    (("classify", "{example}"), 0),
    (("bound", "{example}"), 0),
    (("export-dot", "{example}", "--coloring", "{coloring}", "--out", "{dot}"), 0),
], ids=["decompose", "solve", "verify-pass", "verify-fail", "catalog-build", "classify", "bound",
        "export-dot"])
def test_json_reports_use_json_dumps_layout(report_inputs, capsys, args, code):
    from mvdcolor.cli import main

    assert main([arg.format(**report_inputs) for arg in args] + ["--json"]) == code
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
