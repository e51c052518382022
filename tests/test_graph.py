from __future__ import annotations

import itertools
import random
import re
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvdcolor.graph as graph_module
from mvdcolor.graph import (
    Graph,
    GraphFormatError,
    complete_graph,
    cycle_graph,
    default_labels,
    format_matrix,
    induced_subgraph,
    load_graph,
    parse_coloring,
    parse_edge_list,
    parse_matrix,
    path_graph,
    theta_threads,
    to_dot,
)
from builders import format_edge_list
from builders import random_connected_graph
from oracles import components, reference_parse_matrix, reference_row_mask

C4_TEXT = """a, b, c, d
0, 1, 0, 1
1, 0, 1, 0
0, 1, 0, 1
1, 0, 1, 0
"""


def test_parse_c4():
    g, coloring = parse_matrix(C4_TEXT)
    assert g.order == 4 and g.size == 4
    assert coloring is None
    assert g.labels == ("a", "b", "c", "d")
    assert g.has_edge(0, 1) and g.has_edge(0, 3) and not g.has_edge(0, 2)


def test_parse_example17(data_dir):
    g, coloring = parse_matrix((data_dir / "example17.txt").read_text())
    assert g.order == 17
    assert g.size == 23
    assert coloring is None
    assert len(components(g, set())) == 1


def test_parse_resource_with_colors(data_dir):
    g, coloring = parse_matrix((data_dir / "typeset9" / "graph_9Vertex-9.txt").read_text())
    assert g.order == 9
    assert coloring is not None
    class1 = {g.labels[v] for v, c in coloring.items() if c == 1}
    class2 = {g.labels[v] for v, c in coloring.items() if c == 2}
    assert class1 == {"a", "c", "e", "g", "h"}
    assert class2 == {"b", "d", "f", "i"}


@pytest.mark.parametrize(
    "text, fragment, line",
    [
        ("a, b\n0, 1\n", "expected 2 matrix rows", 2),
        ("a, b\n0, 1, 0\n1, 0\n", "expected 2 entries", 2),
        ("a, b\n0, 1\n0, 0\n", "asymmetric", 3),
        ("a, b\n1, 1\n1, 0\n", "nonzero diagonal", 2),
        ("a, b, c\n0, 1, 1\n0, 0, 0\n0, 0, 0\n", "asymmetric entries for 'a','b'", 3),
        ("a, a\n0, 1\n1, 0\n", "duplicate label", 1),
        ("a, b\n0, x\n1, 0\n", "must be 0 or 1", 2),
        # rows that are 0/1 digits and commas, but too short or with a comma typed as a digit
        ("a, b, c\n0, 1,\n1, 0, 0\n0, 0, 0\n", "must be 0 or 1, got ''", 2),
        ("a, b, c\n0, 1, 0\n1, 0, 0\n0, 001\n", "expected 3 entries, found 2", 4),
        ("a, b:zero\n0, 1\n1, 0\n", "bad color", 1),
    ],
)
def test_parse_errors_carry_location(text, fragment, line):
    with pytest.raises(GraphFormatError) as err:
        parse_matrix(text)
    assert fragment in str(err.value)
    assert err.value.line == line


P3 = Graph.from_edges(["a", "b", "c"], [(0, 1), (1, 2)])
TEXT_PARSERS = {
    "edges": parse_edge_list,
    "coloring": lambda text: parse_coloring(text, P3),
}


@pytest.mark.parametrize(
    "fmt, text, fragment, line, column",
    [
        ("edges", "", "empty edge-list file", 1, None),
        ("edges", "\n\nm 3\n", "first line must be 'n <count>'", 3, None),
        ("edges", "\nn three\na b\n", "bad vertex count 'three'", 2, None),
        ("edges", "\nn 3\na b\n", "declared 3 vertices, found 2", 2, None),
        ("edges", "n 3\n\n\na b c\n", "or a single label", 4, None),
        ("edges", "\n\nn 3\na a\n", "self-loop", 4, None),
        ("edges", "n 3\na b\n\nb b\n", "self-loop", 4, None),
        ("coloring", "a:1\n\nb 2\n", "expected label:color, got 'b 2'", 3, 1),
        ("coloring", "a:1, z:2\n", "unknown label 'z'", 1, 2),
        ("coloring", "a:1\nb:two\n", "bad color 'two'", 2, 1),
        ("coloring", "a:0\n", "color must be positive, got 0", 1, 1),
        ("coloring", "a:1, b:2\n\nc:1, a:2\n", "label 'a' colored twice", 3, 2),
    ],
)
def test_text_parse_errors_carry_location(fmt, text, fragment, line, column):
    with pytest.raises(GraphFormatError) as err:
        TEXT_PARSERS[fmt](text)
    assert fragment in str(err.value)
    assert (err.value.line, err.value.column) == (line, column)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matrix_round_trip(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in pairs if rng.random() < 0.4]
    from mvdcolor.graph import default_labels

    g = Graph.from_edges(default_labels(n), edges)
    again, coloring = parse_matrix(format_matrix(g))
    assert again == g and coloring is None
    colored = {v: rng.randint(1, 3) for v in range(n)}
    again, back = parse_matrix(format_matrix(g, colored))
    assert again == g and back == colored



# padding around tokens, one kind per text: ASCII spaces, spaces that only
# str.strip drops, or ASCII spaces and a carriage return, which splits a line
_PADS = st.sampled_from([
    ["", "", " ", "  ", "\t", " \t "],
    ["", " ", "\x1f", "\u00a0", "\u2003 ", "\u3000", "\t\u202f"],
    ["", "", "", " ", "\t"] * 30 + ["\r"],
])
# "\uff11" and "1_0" are read by int(), but are not single 0/1 digits
_STRAY = st.sampled_from(["x", "2", "01", "", "0 1", "-1", "1.0", "\uff11", "1_0", "00"])


@st.composite
def matrix_texts(draw) -> str:
    """Matrix-format text, valid or with one fault: the empty file, a row
    too many or too few, a short or long row, a comma typed as a digit, a
    stray token, a nonzero diagonal entry or an asymmetric pair.  Lines end
    in LF or CRLF, and the text may end in blank lines."""
    n = draw(st.integers(min_value=1, max_value=6))
    fault = draw(st.sampled_from(
        ["none", "none", "empty", "rows", "short", "long", "comma", "stray", "stray", "diagonal", "asymmetric"]))
    if fault == "empty":
        return draw(st.sampled_from(["", "\n", " \n\t\n", "\r\n\r\n"]))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rows = [["0"] * n for _ in range(n)]
    for u, v in edges:
        rows[u][v] = rows[v][u] = "1"
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(0, n - 1))
    if fault == "rows" and draw(st.booleans()):
        rows.insert(i, list(rows[j]))
    elif fault == "rows":
        rows.pop(i)
    elif fault == "short":
        rows[i].pop()
    elif fault == "long":
        rows[i].append(draw(st.sampled_from(["0", "1"])))
    elif fault == "comma" and n > 1:  # the row keeps its width once spaces are dropped
        k = min(j, n - 2)
        rows[i][k:k + 2] = [rows[i][k] + draw(st.sampled_from(["0", "1"])) + rows[i][k + 1]]
    elif fault == "stray":
        rows[i][j] = draw(_STRAY)
    elif fault == "diagonal":
        rows[i][i] = "1"
    elif fault == "asymmetric":  # one row, maybe several columns
        for j in ({j} | set(draw(st.lists(st.integers(0, n - 1), max_size=2)))) - {i}:
            rows[i][j] = "1" if rows[i][j] == "0" else "0"
    labels = default_labels(n)
    if draw(st.booleans()):
        labels = [f"{lab}:{draw(st.integers(1, 3))}" for lab in labels]
    lines = [", ".join(labels)]
    pads = draw(_PADS)
    for row in rows:
        # a row may keep to plain spaces, so that the per-row oracle reads it in one step beside odd rows
        pad = st.sampled_from(draw(st.sampled_from([pads, ["", " "]])))
        lines.append(",".join(draw(pad) + tok + draw(pad) for tok in row))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end, end * 2, end + " \t" + end]))


def _parse_outcome(parse, text):
    """The parsed labels, adjacency, masks and coloring, or the error's text and place."""
    try:
        g, coloring = parse(text)
    except GraphFormatError as err:
        return str(err), err.line, err.column
    return g.labels, g.neighbors, g.adj_masks, coloring


def _per_row_masks(rows, n):
    return [reference_row_mask(raw, n, line) for line, raw in enumerate(rows, start=2)]


@settings(max_examples=600, deadline=None)
@given(matrix_texts())
def test_parse_matrix_agrees_with_reference_reader(text):
    # the rows are checked together and read in one step each, or else token by token;
    # one oracle reads every row token by token, the other matches each row on its own
    outcome = _parse_outcome(parse_matrix, text)
    assert outcome == _parse_outcome(reference_parse_matrix, text)
    with mock.patch.object(graph_module, "_row_masks", _per_row_masks):
        assert outcome == _parse_outcome(parse_matrix, text)


def test_parse_large_theta_matrix_within_budget(tmp_path):
    from mvdcolor.catalog import theta_graph

    path = tmp_path / "p500.txt"
    path.write_text(format_matrix(theta_graph([500, 500, 500])))
    text = path.read_text()
    budget = 0.4
    t0 = time.time()
    g, coloring = parse_matrix(text)
    elapsed = time.time() - t0
    ok = elapsed < budget
    line = f"parse P(500,500,500): {'PASS' if ok else 'FAIL (over budget)'} ({elapsed:.2f}s of {budget:.1f}s budget)"
    print(line)
    assert (g.order, g.size, coloring) == (1502, 1503, None)
    assert ok, line
    # a non-breaking space in one row costs about 1.4x; were every row then read
    # token by token, it would cost about 7x
    lines = text.split("\n")
    lines[7] = lines[7].replace(" ", "\u00a0", 1)
    odd = "\n".join(lines)
    assert parse_matrix(odd) == (g, None)
    best = {text: float("inf"), odd: float("inf")}
    for _ in range(3):
        for body in best:
            t0 = time.perf_counter()
            parse_matrix(body)
            best[body] = min(best[body], time.perf_counter() - t0)
    assert best[odd] < 3 * best[text], (best[odd], best[text])


def test_edge_list_round_trip():
    g = Graph.from_edges(["a", "b", "c", "d"], [(0, 1)])
    text = format_edge_list(g)
    assert text == "n 4\na b\nc\nd\n"
    assert parse_edge_list(text) == g
    # default labels pass through "v" at orders 22..26
    p24 = path_graph(24)
    assert parse_edge_list(format_edge_list(p24)) == p24
    # the retired "v <label>" declaration fails on the vertex count
    with pytest.raises(GraphFormatError, match="declared 4 vertices, found 5"):
        parse_edge_list("n 4\na b\nv c\nv d\n")
    with pytest.raises(GraphFormatError, match="single label"):
        parse_edge_list("n 3\na b c\n")


@pytest.mark.parametrize("head, coloring", [("n , a, b", None), ("n :1, a:2, b:1", {0: 1, 1: 2, 2: 1})])
def test_matrix_with_first_label_n_is_not_read_as_edge_list(tmp_path, head, coloring):
    path = tmp_path / "p3.txt"
    path.write_text(head + "\n0, 1, 0\n1, 0, 1\n0, 1, 0\n")
    g, colors = load_graph(str(path))
    assert g == Graph.from_edges(["n", "a", "b"], [(0, 1), (1, 2)])
    assert colors == coloring


_edge_list_label = st.one_of(
    st.sampled_from(["v", "n", "v1"]),
    st.text(min_size=1, max_size=3).filter(lambda s: s.split() == [s]),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_edge_list_label, min_size=1, max_size=8, unique=True), st.data())
def test_edge_list_round_trips_any_whitespace_free_labels(labels, data):
    pairs = list(itertools.combinations(range(len(labels)), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph.from_edges(labels, edges)
    again = parse_edge_list(format_edge_list(g))
    # the format keeps labels and edges; vertex indices follow first appearance
    assert sorted(again.labels) == sorted(labels)
    assert {frozenset((again.labels[u], again.labels[v])) for u, v in again.edges()} == {
        frozenset((labels[u], labels[v])) for u, v in edges
    }


def test_induced_subgraph():
    c5 = cycle_graph(5)
    assert induced_subgraph(c5, range(5)) == c5
    k4 = complete_graph(4)
    assert induced_subgraph(k4, [0, 2, 3]).size == 3
    with pytest.raises(ValueError):
        induced_subgraph(c5, [])
    with pytest.raises(ValueError):
        induced_subgraph(c5, [0, 9])


def test_induced_block_of_example(data_dir):
    g, _ = parse_matrix((data_dir / "example17.txt").read_text())
    chosen = [g.index_of(lab) for lab in "IMDOCLQBH"]
    sub = induced_subgraph(g, chosen)
    assert sub.order == 9 and sub.size == 11


def test_dot_round_trips_labels_and_classes():
    g = cycle_graph(4)
    coloring = {0: 1, 1: 2, 2: 1, 3: 2}
    text = to_dot(g, coloring)
    found = dict(re.findall(r'"(\w+)" \[label="\w+", style=filled, fillcolor="(#\w+)"', text))
    assert set(found) == {"a", "b", "c", "d"}
    assert found["a"] == found["c"] and found["b"] == found["d"]
    assert found["a"] != found["b"]
    assert '"a" -- "b";' in text


def test_dot_escapes_quotes_and_backslashes():
    g = Graph.from_edges(["a\"x", "b\\"], [(0, 1)])
    for coloring in (None, {0: 1, 1: 2}):
        text = to_dot(g, coloring)
        body = text.split("\n", 1)[1]
        quoted_string = r'"(?:[^"\\]|\\.)*"'
        quoted = re.findall(quoted_string, body)
        # no stray double quote outside the quoted strings
        assert '"' not in re.sub(quoted_string, "", body)
        labels = {re.sub(r"\\(.)", r"\1", q[1:-1]) for q in quoted if not q.startswith('"#')}
        assert labels == {"a\"x", "b\\"}


def test_parse_rejects_partially_colored_labels():
    with pytest.raises(GraphFormatError, match="label 'b' has no color") as err:
        parse_matrix("a:1, b, c:2\n0, 1, 0\n1, 0, 1\n0, 1, 0\n")
    assert (err.value.line, err.value.column) == (1, 2)
    with pytest.raises(GraphFormatError, match="label 'a' has no color") as err:
        parse_matrix("a, b:1\n0, 1\n1, 0\n")
    assert (err.value.line, err.value.column) == (1, 1)


def test_graph_rejects_bad_structure():
    with pytest.raises(ValueError):
        Graph.from_edges(["a", "b"], [(0, 0)])
    with pytest.raises(ValueError):
        Graph(("a", "a"), ((), ()))
    with pytest.raises(ValueError):
        Graph(("a", "b"), ((1,), ()))  # asymmetric


def test_trusted_builders_agree_with_the_checked_constructor(monkeypatch):
    rng = random.Random(2024)
    graphs = [random_connected_graph(rng, rng.randint(2, 12)) for _ in range(40)]
    subsets = [rng.sample(range(g.order), rng.randint(1, g.order)) for g in graphs]
    with monkeypatch.context() as patch:
        patch.setattr(Graph, "__post_init__", lambda self: pytest.fail("a trusted builder ran the checks"))
        built = [
            (parse_matrix(format_matrix(g))[0], induced_subgraph(g, vs), Graph.from_edges(g.labels, g.edges()))
            for g, vs in zip(graphs, subsets)
        ]
    for g, vs, trusted in zip(graphs, subsets, built):
        whole = Graph(g.labels, g.neighbors)
        sub = Graph(
            tuple(g.labels[v] for v in vs),
            tuple(tuple(j for j, w in enumerate(vs) if g.has_edge(v, w)) for v in vs),
        )
        for got, want in zip(trusted, (whole, sub, whole)):
            assert got == want
            assert (got.adj_masks, got.label_index) == (want.adj_masks, want.label_index)
    for labels, edges, message in [
        (["a", ""], [(0, 1)], "empty label"),
        (["a", "a"], [(0, 1)], "duplicate label"),
        (["a", "b"], [(1, 1)], "self-loop"),
        (["a", "b"], [(0, 2)], "out of range"),
        (["a", "b"], [(-1, 0)], "out of range"),
    ]:
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(labels, edges)


def test_theta_threads():
    from mvdcolor.catalog import theta_graph

    assert theta_threads(theta_graph([3, 1, 2])) == [[0, 2, 3, 4, 1], [0, 5, 1], [0, 6, 7, 1]]
    assert theta_threads(theta_graph([1] * 10)) == [[0, v, 1] for v in range(2, 12)]
    # a cycle is the theta with two threads, split at vertex 0 and the vertex two steps along
    assert theta_threads(cycle_graph(6)) == [[0, 1, 2], [0, 5, 4, 3, 2]]
    k23 = theta_graph([1, 1, 1]).edges()
    rejected = {
        "triangle": cycle_graph(3),
        "two disjoint triangles": Graph.from_edges(
            [str(v) for v in range(6)], [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        ),
        "bare hub edge": theta_graph([2, 1, 0]),
        "chord": Graph.from_edges(theta_graph([3, 3, 3]).labels, theta_graph([3, 3, 3]).edges() + [(3, 6)]),
        "two cycles sharing a vertex": Graph.from_edges(
            [str(v) for v in range(7)], [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6), (6, 0)]
        ),
        # hub 0's loop is walked from both ends, hub 1's is never walked: the counts balance
        "thread back to a hub": Graph.from_edges(
            [str(v) for v in range(9)], k23 + [(0, 5), (5, 6), (6, 0), (1, 7), (7, 8), (8, 1)]
        ),
        "missed vertex": Graph.from_edges([str(v) for v in range(8)], k23 + [(5, 6), (6, 7), (7, 5)]),
        "pendant": Graph.from_edges([str(v) for v in range(6)], k23 + [(2, 5)]),
    }
    for name, g in rejected.items():
        assert theta_threads(g) is None, name
