"""Independent brute-force oracles the test suite checks the library against.

Everything here goes through definitions directly (subset enumeration,
permutation search, full partition enumeration) and stays independent of the
implementation paths it validates.  Reference helpers that the library no
longer needs also live here: the restricted-growth partition enumerator that
the exact search used to draw from, ``restrict``, the census generator that
attaches an ear at every vertex pair, ``k_path_bound``, the bound that k
disjoint paths between a nonadjacent pair certify, ``threads``,
``strip_bound``, the bound that stripping one thread certifies,
``shorten_thread``,
``triangle_blocks_value``, which reads the library's block decomposition,
``reference_parse_matrix``, the whole-file tokenising matrix reader that
the one-pass reader replaced, ``reference_row_mask``, the row reader that
matched each row on its own before the rows were checked together, and
``reference_canonical_labelling``, the canonical search whose refinement sorts
every touched cell whole, which the move-only-touched-vertices refinement
replaced.  ``networkx_minimal_blocks_up_to`` builds the census with
networkx's ``is_isomorphic`` in place of the library's canonical search.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from mvdcolor.blocks import decompose, is_minimally_two_connected
from mvdcolor.graph import Graph, GraphFormatError, cycle_graph, default_labels, induced_subgraph
from mvdcolor.iso import Labelling, _relabelled, _twin_classes, canonical_labelling
from mvdcolor.solve import mvd_via_blocks


def components(g: Graph, removed: set[int]) -> list[set[int]]:
    """Connected components of g minus a vertex set, by plain flood fill."""
    remaining = [v for v in range(g.order) if v not in removed]
    seen: set[int] = set()
    out = []
    for start in remaining:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in g.neighbors[v]:
                if w not in removed and w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        out.append(comp)
    return out


def oracle_separates(g: Graph, cut: set[int], x: int, y: int) -> bool:
    for comp in components(g, cut):
        if x in comp:
            return y not in comp
    return False


def naive_cut_vertices(g: Graph) -> frozenset[int]:
    """Definition-based: v is a cut vertex iff g - v is disconnected."""
    if g.order < 3 or len(components(g, set())) != 1:
        raise ValueError("cut-vertex oracle needs a connected graph of order >= 3")
    return frozenset(v for v in range(g.order) if len(components(g, {v})) > 1)


def oracle_is_two_connected(g: Graph) -> bool:
    """Order >= 3, connected, and no single vertex removal disconnects."""
    return g.order >= 3 and len(components(g, set())) == 1 and not naive_cut_vertices(g)


def oracle_is_minimally_two_connected(g: Graph) -> bool:
    """2-connected, and no single edge can be removed keeping 2-connectivity."""
    if not oracle_is_two_connected(g):
        return False
    edges = g.edges()
    return not any(
        oracle_is_two_connected(Graph.from_edges(g.labels, [f for f in edges if f != e])) for e in edges
    )


def oracle_monochromatic_cut_colors(g: Graph, coloring: dict[int, int], x: int, y: int) -> set[int]:
    """Colors of every monochromatic vertex cut separating x and y.

    Enumerates all nonempty subsets of V minus the pair, keeping those that
    are single-colored and separate the pair.
    """
    rest = [v for v in range(g.order) if v not in (x, y)]
    found: set[int] = set()
    for size in range(1, len(rest) + 1):
        for subset in itertools.combinations(rest, size):
            colors = {coloring[v] for v in subset}
            if len(colors) != 1:
                continue
            if oracle_separates(g, set(subset), x, y):
                found |= colors
    return found


def oracle_least_cut_color(g: Graph, coloring: Mapping[int, int], x: int, y: int) -> Optional[int]:
    """min(oracle_monochromatic_cut_colors(...)), or None, without the subsets.

    A separator that avoids x and y still separates them when vertices other
    than x and y are added, so a cut of color c exists iff c's whole class
    minus {x, y} separates the pair: one flood fill per color, at any order.
    """
    for color in sorted(set(coloring.values())):
        cut = {v for v, c in coloring.items() if c == color} - {x, y}
        if oracle_separates(g, cut, x, y):
            return color
    return None


def oracle_is_mvd(g: Graph, coloring: dict[int, int]) -> bool:
    for x in range(g.order):
        for y in range(x + 1, g.order):
            if g.has_edge(x, y):
                continue
            if not oracle_monochromatic_cut_colors(g, coloring, x, y):
                return False
    return True


def all_set_partitions(n: int) -> Iterator[list[list[int]]]:
    """Every partition of {0..n-1}, built by placing each element in turn."""
    def extend(i: int, parts: list[list[int]]) -> Iterator[list[list[int]]]:
        if i == n:
            yield [list(p) for p in parts]
            return
        for p in parts:
            p.append(i)
            yield from extend(i + 1, parts)
            p.pop()
        parts.append([i])
        yield from extend(i + 1, parts)
        parts.pop()

    yield from extend(0, [])


def oracle_mvd(g: Graph) -> int:
    """Maximum class count over all partitions passing the subset oracle."""
    best = 0
    for parts in all_set_partitions(g.order):
        if len(parts) <= best:
            continue
        coloring = {v: i + 1 for i, part in enumerate(parts) for v in part}
        if oracle_is_mvd(g, coloring):
            best = len(parts)
    return best


def partitions_into_k_classes(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Restricted-growth enumeration of partitions of n items into exactly k classes.

    Yields color tuples with classes numbered 1..k in first-appearance order,
    in lexicographic order.
    """
    if n < 1 or k < 1 or k > n:
        return
    colors = [1] * n

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            if used == k:
                yield tuple(colors)
            return
        hi = min(used + 1, k)
        remaining = n - i - 1
        for c in range(1, hi + 1):
            new_used = max(used, c)
            if k - new_used <= remaining:
                colors[i] = c
                yield from rec(i + 1, new_used)
        colors[i] = 1

    yield from rec(1, 1)


def triangle_blocks_value(g: Graph) -> Optional[int]:
    """n when every nontrivial block is a triangle (vacuously for trees)."""
    if g.order < 2 or len(components(g, set())) != 1:
        raise ValueError("needs a connected graph of order >= 2")
    dec = decompose(g)
    for block in dec.blocks:
        if block.trivial:
            continue
        bg = block.graph
        if not (bg.order == 3 and bg.size == 3):
            return None
    return g.order


def k_path_bound(g: Graph, a: int, b: int, paths: Sequence[Sequence[int]]) -> int:
    """1 + (n - k) // 2, the upper bound on mvd(g) of a 2-connected
    triangle-free g that k internally disjoint a-b paths certify for a
    nonadjacent pair a, b: the class that separates a and b holds an inner
    vertex of every path, and every other class has at least 2 vertices."""
    assert not g.has_edge(a, b) and all(p[0] == a and p[-1] == b for p in paths)
    inner = [v for p in paths for v in p[1:-1]]
    assert len(inner) == len(set(inner)), "paths share an inner vertex"
    return 1 + (g.order - len(paths)) // 2


def threads(g: Graph) -> list[tuple[int, list[int], int]]:
    """Each thread of g once, as (a, inner vertices from a's side, b).

    A thread is a maximal path whose m >= 1 inner vertices have degree 2,
    between two nonadjacent vertices a < b of degree >= 3; a cycle has none."""
    found = []
    for a in range(g.order):
        if len(g.neighbors[a]) < 3:
            continue
        for w in g.neighbors[a]:
            path = [a, w]
            while len(g.neighbors[path[-1]]) == 2:
                path.append(next(x for x in g.neighbors[path[-1]] if x != path[-2]))
            b, inner = path[-1], path[1:-1]
            if inner and a < b and not g.has_edge(a, b):
                found.append((a, inner, b))
    return found


def strip_bound(g: Graph) -> list[tuple[int, int]]:
    """The thread-strip bound of each thread of g, as (m, bound) pairs.

    For a 2-connected triangle-free g, mvd(g) <= mvd(g - T) + (m - 1) // 2,
    where g - T drops the m inner vertices of a thread T: g - T is connected,
    at most mvd(g - T) classes meet it, every class has >= 2 vertices, and the
    class that separates T's ends meets both T and g - T, so every class inside
    T misses one of T's inner vertices."""
    bounds = []
    for _, inner, _ in threads(g):
        stripped = induced_subgraph(g, [v for v in range(g.order) if v not in inner])
        bounds.append((len(inner), mvd_via_blocks(stripped).value + (len(inner) - 1) // 2))
    return bounds


def shorten_thread(g: Graph, a: int, inner: Sequence[int]) -> Graph:
    """g with the thread from a through ``inner`` two inner vertices shorter (needs m >= 3)."""
    keep = [v for v in range(g.order) if v not in inner[:2]]
    shorter = induced_subgraph(g, keep)
    return Graph.from_edges(shorter.labels, shorter.edges() + [(keep.index(a), keep.index(inner[2]))])


def restrict(coloring: Mapping[int, int], vertices: Iterable[int]) -> dict[int, int]:
    """Restriction to a vertex subset; colors keep their identities."""
    return {v: coloring[v] for v in vertices}


def _ear_extensions(g: Graph, n: int, pairs: Iterable[tuple[int, int]]) -> Iterator[Graph]:
    """g with an ear of n - g.order inner vertices between each pair, where the result is minimal."""
    for a, b in pairs:
        path = [a, *range(g.order, n), b]
        candidate = Graph.from_edges(default_labels(n), g.edges() + list(zip(path, path[1:])))
        if is_minimally_two_connected(candidate):
            yield candidate


def every_pair_minimal_blocks_up_to(max_order: int) -> dict[int, list[Graph]]:
    """The census without symmetry pruning: every smaller block in discovery
    order gets an ear at every vertex pair, lexicographically; each minimal
    candidate is keyed by its canonical labelling's key and the first one per
    key kept.  Built once per max order in a test session, and handed out as
    new lists."""
    return {n: list(gs) for n, gs in _every_pair_levels(max_order).items()}


@functools.cache
def _every_pair_levels(max_order: int) -> dict[int, tuple[Graph, ...]]:
    orders = range(3, max_order + 1)
    levels = {n: {canonical_labelling(cycle_graph(n)).key: cycle_graph(n)} for n in orders}
    for n in orders:
        for smaller in range(3, n):
            for g in levels[smaller].values():
                for candidate in _ear_extensions(g, n, itertools.combinations(range(g.order), 2)):
                    levels[n].setdefault(canonical_labelling(candidate).key, candidate)
    return {n: tuple(levels[n][key] for key in sorted(levels[n])) for n in orders}


def networkx_minimal_blocks_up_to(max_order: int) -> dict[int, list[Graph]]:
    """The census deduplicated by networkx's ``is_isomorphic``, with no canonical
    search: every smaller block gets an ear at every nonadjacent pair (an ear
    beside an edge makes that edge redundant), and a minimal candidate is kept
    unless a kept block of its degree sequence is isomorphic to it."""
    import networkx as nx

    orders = range(3, max_order + 1)
    kept: dict[int, dict[tuple[int, ...], list[tuple[Graph, object]]]] = {n: {} for n in orders}

    def keep(g: Graph) -> None:
        h = nx.Graph(g.edges())
        bucket = kept[g.order].setdefault(tuple(sorted(map(len, g.neighbors))), [])
        if not any(nx.is_isomorphic(h, other) for _, other in bucket):
            bucket.append((g, h))

    for n in orders:
        keep(cycle_graph(n))
        for smaller in range(3, n):
            for g, _ in [pair for bucket in kept[smaller].values() for pair in bucket]:
                pairs = [(a, b) for a, b in itertools.combinations(range(g.order), 2) if not g.has_edge(a, b)]
                for candidate in _ear_extensions(g, n, pairs):
                    keep(candidate)
    return {n: [g for bucket in kept[n].values() for g, _ in bucket] for n in orders}


def brute_force_isomorphism(g: Graph, h: Graph) -> Optional[dict[int, int]]:
    if g.order != h.order:
        return None
    n = g.order
    for perm in itertools.permutations(range(n)):
        if all(g.has_edge(u, v) == h.has_edge(perm[u], perm[v])
               for u in range(n) for v in range(u + 1, n)):
            return {v: perm[v] for v in range(n)}
    return None


def graphs_of_order(n: int) -> Iterator[Graph]:
    """All labeled graphs on n vertices, one per edge subset."""
    pairs = list(itertools.combinations(range(n), 2))
    labels = default_labels(n)
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(labels, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def reference_parse_matrix(text: str) -> tuple[Graph, Optional[dict[int, int]]]:
    """The adjacency-matrix format read token by token: every token stripped
    with ``str.strip``, every row checked, then the diagonal and symmetry of
    the whole 0/1 table, row by row."""

    def split_tokens(line: str) -> list[str]:
        return [tok.strip() for tok in line.split(",")]

    lines = [ln for ln in text.splitlines()]
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines or not lines[0].strip():
        if any(ln.strip() for ln in lines):
            raise GraphFormatError("missing label line", line=1)
        return Graph((), ()), None

    labels: list[str] = []
    colors: list[Optional[int]] = []
    for col, tok in enumerate(split_tokens(lines[0]), start=1):
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
    rows: list[list[int]] = []
    for i, raw in enumerate(lines[1:], start=2):
        row: list[int] = []
        toks = split_tokens(raw)
        if len(toks) != n:
            raise GraphFormatError(f"expected {n} entries, found {len(toks)}", line=i)
        for col, tok in enumerate(toks, start=1):
            if tok not in ("0", "1"):
                raise GraphFormatError(f"matrix entry must be 0 or 1, got {tok!r}", line=i, column=col)
            row.append(int(tok))
        rows.append(row)
    for i in range(n):
        if rows[i][i] != 0:
            raise GraphFormatError("nonzero diagonal entry", line=2 + i, column=i + 1)
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise GraphFormatError(
                    f"asymmetric entries for {labels[i]!r},{labels[j]!r}", line=2 + j, column=i + 1
                )
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j]]
    g = Graph.from_edges(labels, edges)
    if colors[0] is None:
        return g, None
    return g, dict(enumerate(colors))  # type: ignore[arg-type]


_REFERENCE_ROW = re.compile(r"[01](?:,[01])*")


def reference_row_mask(raw: str, n: int, line: int) -> int:
    """One matrix row as the mask of its 1 entries, entry j as bit j: in one
    step when, with spaces and tabs dropped, a regular expression matches n
    single 0/1 digits and commas, else token by token, naming the first bad
    token."""
    row = raw.replace(" ", "").replace("\t", "")
    if len(row) == 2 * n - 1 and _REFERENCE_ROW.fullmatch(row):
        return int(row[::-2], 2)
    toks = [tok.strip() for tok in raw.split(",")]
    if len(toks) != n:
        raise GraphFormatError(f"expected {n} entries, found {len(toks)}", line=line)
    mask = 0
    for col, tok in enumerate(toks, start=1):
        if tok not in ("0", "1"):
            raise GraphFormatError(f"matrix entry must be 0 or 1, got {tok!r}", line=line, column=col)
        if tok == "1":
            mask |= 1 << (col - 1)
    return mask


def _reference_split(lab: list[int], start: list[int], end: list[int], c: int, key: Callable) -> list[tuple[int, int]]:
    """Sort the cell at c by key and cut it where the key changes; the fragments' bounds."""
    e = end[c]
    lab[c:e] = sorted(lab[c:e], key=key)
    keys = [key(v) for v in lab[c:e]]
    cuts = [c] + [c + i for i in range(1, e - c) if keys[i] != keys[i - 1]] + [e]
    for a, b in zip(cuts, cuts[1:]):
        end[a] = b
        for v in lab[a:b]:
            start[v] = a
    return list(zip(cuts, cuts[1:]))


def _reference_refine(nbrs: Sequence[Sequence[int]], lab: list[int], start: list[int], end: list[int],
                      queue: list[int]) -> None:
    """Split the ordered partition until equitable: each splitter sorts every cell it
    touches by neighbour count, and queues all fragments of an unqueued cell but the
    first largest."""
    queued = set(queue)
    for s in queue:  # the queue grows while it is read
        queued.discard(s)
        count: dict[int, int] = {}
        for u in lab[s:end[s]]:
            for w in nbrs[u]:
                count[w] = count.get(w, 0) + 1
        for c in sorted({start[w] for w in count}):
            frags = _reference_split(lab, start, end, c, lambda v: count.get(v, 0))
            if c not in queued:
                frags.remove(max(frags, key=lambda f: f[1] - f[0]))
            queue.extend(a for a, _ in frags if a not in queued)
            queued.update(a for a, _ in frags)


def reference_canonical_labelling(g: Graph) -> Labelling:
    """The canonical search with a partition copied at every node and refined by
    whole-cell sorts, scanning every cell at every node; no node budget."""
    n, nbrs, twins = g.order, g.neighbors, _twin_classes(g)
    best: Optional[tuple] = None
    gens: list[dict[int, int]] = []
    stack: list[tuple] = []
    node: Optional[tuple] = (list(range(n)), [0] * n, [n] * (n + 1), [], [0])
    while node is not None:
        lab, start, end, path, splitters = node
        while splitters:
            _reference_refine(nbrs, lab, start, end, splitters)
            cells = [(end[c] - c, c) for c in set(start) if end[c] - c > 1]
            twin_cells = [c for _, c in cells if len({twins[v] for v in lab[c:end[c]]}) == 1]
            splitters = [i for c in twin_cells for i in range(c, end[c])]
            for c in twin_cells:
                _reference_split(lab, start, end, c, lambda v: v)
        if cells:
            c = min(cells)[1]
            stack.append((lab, start, end, path, list({twins[v]: v for v in lab[c:end[c]]}.values()), []))
        else:
            leaf = (_relabelled(nbrs, lab), lab, path)
            if best and leaf[0] == best[0]:
                gens.append({a: b for a, b in zip(best[1], lab) if a != b})
                del stack[1 + next(i for i, (a, b) in enumerate(zip(path, best[2])) if a != b):]
            elif not best or leaf[0] < best[0]:
                best = leaf
        node = None
        while stack and node is None:
            lab, start, end, path, children, tried = stack[-1]
            if not children:
                stack.pop()
                continue
            w = children.pop()
            fixing = [p for p in gens if all(start[y] == start[x] for x, y in p.items())] if tried else []
            orbit, todo = {w}, [w]
            for x in todo:
                new = {p.get(x, x) for p in fixing} - orbit
                orbit |= new
                todo.extend(new)
            if orbit.isdisjoint(tried):
                tried.append(w)
                lab, start, end = lab[:], start[:], end[:]
                _reference_split(lab, start, end, start[w], lambda v: v != w)
                node = (lab, start, end, path + [w], [start[w]])
    swaps = [{v: t, t: v} for v, t in enumerate(twins) if t != v]
    return Labelling(best[1], best[0], gens + swaps)
