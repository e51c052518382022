"""Immutable labeled simple graphs, file formats, and structural tests.

Vertices are 0-based indices; labels are presentation-only and unique within
a graph.  All operations are pure and graphs may be shared freely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence


class GraphFormatError(ValueError):
    """Malformed graph/coloring input.  Carries 1-based line and token column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc = f" ({loc})"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class GuardError(RuntimeError):
    """A size guard or solver limit was exceeded."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: unique text labels plus symmetric adjacency.

    ``neighbors[v]`` is the sorted tuple of vertices adjacent to v.  Derived
    bitmask adjacency is cached for fast set operations, and
    ``blocks.decompose`` keeps its result here; neither takes part in equality.
    """

    labels: tuple[str, ...]
    neighbors: tuple[tuple[int, ...], ...]
    adj_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    label_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(self.neighbors) != n:
            raise ValueError("labels and adjacency disagree on order")
        index: dict[str, int] = {}
        for i, lab in enumerate(self.labels):
            if not lab:
                raise ValueError(f"empty label at vertex {i}")
            if lab in index:
                raise ValueError(f"duplicate label {lab!r}")
            index[lab] = i
        masks = []
        for v, nbrs in enumerate(self.neighbors):
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError(f"neighbor list of {self.labels[v]!r} must be sorted and duplicate-free")
            m = 0
            for w in nbrs:
                if w == v:
                    raise ValueError(f"self-loop at vertex {self.labels[v]!r}")
                if not 0 <= w < n:
                    raise ValueError(f"neighbor index {w} out of range")
                m |= 1 << w
            masks.append(m)
        for v in range(n):
            for w in self.neighbors[v]:
                if not (masks[w] >> v) & 1:
                    raise ValueError(
                        f"asymmetric adjacency between {self.labels[v]!r} and {self.labels[w]!r}"
                    )
        object.__setattr__(self, "adj_masks", tuple(masks))
        object.__setattr__(self, "label_index", index)

    @classmethod
    def _unchecked(cls, labels: tuple[str, ...], neighbors: tuple[tuple[int, ...], ...],
                   masks: Optional[Sequence[int]] = None) -> "Graph":
        """``__post_init__`` without its checks, for this module's builders,
        whose labels are nonempty and distinct and whose adjacency is sorted,
        symmetric and duplicate-free, and given the adjacency masks if known."""
        if masks is None:
            masks = []
            for nbrs in neighbors:
                m = 0
                for w in nbrs:
                    m |= 1 << w
                masks.append(m)
        g = object.__new__(cls)
        vars(g).update(labels=labels, neighbors=neighbors, adj_masks=tuple(masks),
                       label_index={lab: i for i, lab in enumerate(labels)})
        return g

    @classmethod
    def from_edges(cls, labels: Sequence[str], edges: Iterable[tuple[int, int]]) -> "Graph":
        n = len(labels)
        if not all(labels) or len(set(labels)) != n:
            cls(tuple(labels), ((),) * n)  # raises naming the first bad label
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex index {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls._unchecked(tuple(labels), tuple(tuple(sorted(s)) for s in nbrs))

    @property
    def order(self) -> int:
        return len(self.labels)

    @property
    def size(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2

    def index_of(self, label: str) -> int:
        return self.label_index[label]

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj_masks[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.order) for v in self.neighbors[u] if u < v]

    def full_mask(self) -> int:
        return (1 << self.order) - 1


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced by the given vertices, in the given order, labels kept."""
    if len(vertices) == 0:
        raise ValueError("induced subgraph of the empty vertex set")
    if len(set(vertices)) != len(vertices):
        raise ValueError("duplicate vertices in selection")
    for v in vertices:
        if not 0 <= v < g.order:
            raise ValueError(f"vertex index {v} not in graph")
    return _induced(g.labels, g.neighbors, vertices)


def _induced(labels: Sequence[str], neighbors: Sequence[Sequence[int]], vertices: Sequence[int]) -> Graph:
    """``induced_subgraph`` of the graph with these labels and adjacency, for
    distinct vertices already known to lie in it."""
    pos = {v: i for i, v in enumerate(vertices)}
    nbrs = tuple(tuple(sorted(pos[w] for w in neighbors[u] if w in pos)) for u in vertices)
    return Graph._unchecked(tuple(labels[v] for v in vertices), nbrs)


def is_complete(g: Graph) -> bool:
    n = g.order
    return g.size == n * (n - 1) // 2


def triangle_free(g: Graph) -> bool:
    masks = g.adj_masks
    return not any(masks[u] & masks[v] for u, v in g.edges())


def theta_threads(g: Graph) -> Optional[list[list[int]]]:
    """The threads of g as walks [a, ..., b] if g is a theta graph or a cycle
    whose hubs a < b are nonadjacent, else None.

    A theta graph has exactly two vertices of degree >= 3, the hubs, and
    every other vertex of degree 2.  A cycle of order >= 4 is the theta with
    two threads: its hubs are vertex 0 and the vertex two steps along, and
    its threads hold one and n - 3 inner vertices.  Each hub neighbour starts
    a thread, walked until it meets a hub.  None when a thread comes back to
    a, when a thread has no inner vertex (the hubs are adjacent, as in a
    triangle), or when the threads miss a vertex.
    """
    hubs = [v for v in range(g.order) if g.degree(v) != 2]
    if not hubs and g.order:
        hubs = [0, g.neighbors[g.neighbors[0][0]][1]]
    elif len(hubs) != 2 or any(g.degree(v) < 3 for v in hubs):
        return None
    a, b = hubs
    threads = []
    for first in g.neighbors[a]:
        walk = [a, first]
        while walk[-1] not in hubs:
            x, y = g.neighbors[walk[-1]]
            walk.append(x if x != walk[-2] else y)
        if walk[-1] == a or len(walk) == 2:
            return None
        threads.append(walk)
    if sum(len(t) - 2 for t in threads) + 2 != g.order:
        return None
    return threads


# ---------------------------------------------------------------------------
# File formats


def _split_tokens(line: str) -> list[str]:
    return [tok.strip() for tok in line.split(",")]


_DROP_SPACES = str.maketrans("", "", " \t\x1f")  # splitlines breaks at the other ASCII spaces


def _row_masks(rows: Sequence[str], n: int) -> list[int]:
    """The matrix rows as masks of their 1 entries, entry j as bit j.

    The rows are checked together: with their spaces dropped and the rows
    joined by newlines, an n x n table's commas and row breaks must fill the
    odd positions and its n^2 0s and 1s the even ones, and then each row is
    read in one step.  Otherwise each row is read token by token by
    ``_row_mask``.
    """
    flat = "\n".join(rows)
    if flat.isascii():
        flat = flat.translate(_DROP_SPACES)
    else:  # translate is slow on other text, so split the rows that hold it at their spaces
        flat = "\n".join(r.translate(_DROP_SPACES) if r.isascii() else "".join(r.split()) for r in rows)
    if flat[1::2] == (("," * (n - 1) + "\n") * n)[:-1] and flat.count("0") + flat.count("1") == n * n:
        return [int(row[::-2], 2) for row in flat.split("\n")]
    return [_row_mask(raw, n, line) for line, raw in enumerate(rows, start=2)]


def _row_mask(raw: str, n: int, line: int) -> int:
    """One matrix row as the mask of its 1 entries, read token by token, which
    accepts every space ``str.strip`` drops and names the first bad token."""
    toks = _split_tokens(raw)
    if len(toks) != n:
        raise GraphFormatError(f"expected {n} entries, found {len(toks)}", line=line)
    mask = 0
    for col, tok in enumerate(toks, start=1):
        if tok not in ("0", "1"):
            raise GraphFormatError(f"matrix entry must be 0 or 1, got {tok!r}", line=line, column=col)
        if tok == "1":
            mask |= 1 << (col - 1)
    return mask


def parse_matrix(text: str) -> tuple[Graph, Optional[dict[int, int]]]:
    """Parse the adjacency-matrix format.

    Line 1 holds comma-separated labels, each optionally ``label:color`` with a
    positive integer color.  Lines 2..n+1 hold comma-separated 0/1 entries of a
    symmetric, zero-diagonal n x n matrix.  Either every label carries a color
    or none does.  Returns the graph plus the coloring, or None without colors.

    The rows are read as bitmasks (see ``_row_masks``), and once checked the
    masks are the graph's.  Errors name the first bad row, then, row by row, a
    nonzero diagonal entry or the row's least asymmetric entry.
    """
    lines = [ln for ln in text.splitlines()]
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines or not lines[0].strip():
        if any(ln.strip() for ln in lines):
            raise GraphFormatError("missing label line", line=1)
        return Graph((), ()), None

    labels: list[str] = []
    colors: list[Optional[int]] = []
    for col, tok in enumerate(_split_tokens(lines[0]), start=1):
        if not tok:
            raise GraphFormatError("empty label token", line=1, column=col)
        if ":" in tok:
            name, _, raw = tok.partition(":")
            name = name.strip()
            raw = raw.strip()
            if not name:
                raise GraphFormatError("empty label before ':'", line=1, column=col)
            try:
                color = int(raw)
            except ValueError:
                raise GraphFormatError(f"bad color {raw!r}", line=1, column=col) from None
            if color < 1:
                raise GraphFormatError(f"color must be positive, got {color}", line=1, column=col)
            labels.append(name)
            colors.append(color)
        else:
            labels.append(tok)
            colors.append(None)
    if None in colors and any(colors):  # colors are positive
        col = colors.index(None) + 1
        raise GraphFormatError(f"label {labels[col - 1]!r} has no color, but other labels do", line=1, column=col)
    n = len(labels)
    seen: dict[str, int] = {}
    for col, lab in enumerate(labels, start=1):
        if lab in seen:
            raise GraphFormatError(f"duplicate label {lab!r}", line=1, column=col)
        seen[lab] = col

    if len(lines) - 1 != n:
        raise GraphFormatError(f"expected {n} matrix rows, found {len(lines) - 1}", line=len(lines))
    masks = _row_masks(lines[1:], n)
    # Below-diagonal entries give the neighbour lists, in ascending order, and
    # the transpose of the lower triangle, which each row's upper part must match.
    nbrs: list[list[int]] = [[] for _ in range(n)]
    upper = [0] * n
    for j, m in enumerate(masks):
        below = m & ((1 << j) - 1)
        while below:
            low = below & -below
            i = low.bit_length() - 1
            nbrs[i].append(j)
            nbrs[j].append(i)
            upper[i] |= 1 << j
            below ^= low
    for i, m in enumerate(masks):
        if m >> i & 1:
            raise GraphFormatError("nonzero diagonal entry", line=2 + i, column=i + 1)
        if asym := (m ^ upper[i]) >> (i + 1):
            j = i + (asym & -asym).bit_length()
            raise GraphFormatError(f"asymmetric entries for {labels[i]!r},{labels[j]!r}", line=2 + j, column=i + 1)
    g = Graph._unchecked(tuple(labels), tuple(map(tuple, nbrs)), masks)
    if colors[0] is None:
        return g, None
    return g, dict(enumerate(colors))  # type: ignore[arg-type]


def format_matrix(g: Graph, coloring: Optional[dict[int, int]] = None) -> str:
    """Serialize to the adjacency-matrix format (inverse of parse_matrix)."""
    if coloring is not None:
        head = ", ".join(f"{g.labels[v]}:{coloring[v]}" for v in range(g.order))
    else:
        head = ", ".join(g.labels)
    out = [head]
    for u in range(g.order):
        out.append(", ".join("1" if g.has_edge(u, v) else "0" for v in range(g.order)))
    return "\n".join(out) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: ``n <count>``, then one line per edge or vertex.

    A line of two labels is an edge; a line of one label declares that vertex,
    which is how isolated vertices are written.
    """
    # numbered as in the file, blank lines skipped
    lines = [(lineno, raw.split()) for lineno, raw in enumerate(text.splitlines(), start=1) if raw.strip()]
    if not lines:
        raise GraphFormatError("empty edge-list file", line=1)
    head_line, head = lines[0]
    if len(head) != 2 or head[0] != "n":
        raise GraphFormatError("first line must be 'n <count>'", line=head_line)
    try:
        n = int(head[1])
    except ValueError:
        raise GraphFormatError(f"bad vertex count {head[1]!r}", line=head_line) from None
    labels: list[str] = []
    index: dict[str, int] = {}

    def intern(lab: str) -> int:
        if lab not in index:
            index[lab] = len(labels)
            labels.append(lab)
        return index[lab]

    edges: list[tuple[int, int]] = []
    for lineno, tokens in lines[1:]:
        parts = [intern(lab) for lab in tokens]
        if len(parts) == 1:
            continue
        if len(parts) != 2:
            raise GraphFormatError("expected 'labelU labelV' or a single label", line=lineno)
        u, v = parts
        if u == v:
            raise GraphFormatError("self-loop", line=lineno)
        edges.append((u, v))
    if len(labels) != n:
        raise GraphFormatError(f"declared {n} vertices, found {len(labels)}", line=head_line)
    return Graph.from_edges(labels, set((min(u, v), max(u, v)) for u, v in edges))


def parse_coloring(text: str, g: Graph) -> dict[int, int]:
    """Parse ``label:color`` tokens (one per line or comma-separated)."""
    coloring: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        for col, tok in enumerate(_split_tokens(raw), start=1):
            if not tok:
                continue
            name, sep, value = tok.partition(":")
            if not sep:
                raise GraphFormatError(f"expected label:color, got {tok!r}", line=lineno, column=col)
            name = name.strip()
            if name not in g.label_index:
                raise GraphFormatError(f"unknown label {name!r}", line=lineno, column=col)
            try:
                color = int(value.strip())
            except ValueError:
                raise GraphFormatError(f"bad color {value.strip()!r}", line=lineno, column=col) from None
            if color < 1:
                raise GraphFormatError(f"color must be positive, got {color}", line=lineno, column=col)
            v = g.index_of(name)
            if v in coloring:
                raise GraphFormatError(f"label {name!r} colored twice", line=lineno, column=col)
            coloring[v] = color
    return coloring


def load_graph(path: str) -> tuple[Graph, Optional[dict[int, int]]]:
    """Read a graph file, sniffing matrix vs edge-list format."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    first = text.lstrip().split("\n", 1)[0]
    # a matrix label line is comma-separated, even when its first label is n
    if (first.startswith("n ") or first.startswith("n\t")) and "," not in first:
        return parse_edge_list(text), None
    return parse_matrix(text)


# ---------------------------------------------------------------------------
# DOT export

_PALETTE = (
    "#e6194b", "#3cb44b", "#ffe119", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff",
)


def to_dot(g: Graph, coloring: Optional[dict[int, int]] = None) -> str:
    """Graphviz text, labels escaped; colored vertices are filled from a fixed palette."""
    quoted = ['"' + lab.replace("\\", "\\\\").replace('"', '\\"') + '"' for lab in g.labels]
    out = ["graph G {"]
    for v in range(g.order):
        lab = quoted[v]
        if coloring is not None:
            fill = _PALETTE[(coloring[v] - 1) % len(_PALETTE)]
            out.append(f'  {lab} [label={lab}, style=filled, fillcolor="{fill}", colorid={coloring[v]}];')
        else:
            out.append(f"  {lab} [label={lab}];")
    for u, v in g.edges():
        out.append(f"  {quoted[u]} -- {quoted[v]};")
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Small families used throughout

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def default_labels(n: int) -> list[str]:
    if n <= len(_ALPHABET):
        return list(_ALPHABET[:n])
    return [f"v{i + 1}" for i in range(n)]


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(default_labels(n), [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("paths need at least 1 vertex")
    return Graph.from_edges(default_labels(n), [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(default_labels(n), itertools.combinations(range(n), 2))
