"""Complete graph-isomorphism matching and canonical forms for small graphs.

The matcher is a plain backtracking search with degree and neighbor-degree
pruning; absence of a result is definitive.  Canonical keys are minimum
adjacency strings, feasible here because every caller works at order <= 12.
"""

from __future__ import annotations

from typing import Optional

from .graph import Graph, GuardError

CANONICAL_MAX_ORDER = 12


def _invariant(g: Graph, v: int) -> tuple:
    return (g.degree(v), tuple(sorted(g.degree(w) for w in g.neighbors[v])))


def find_isomorphism(g: Graph, h: Graph) -> Optional[dict[int, int]]:
    """Adjacency-preserving bijection from g onto h, or None (definitive).

    When several isomorphisms exist the one minimal under vertex-index order
    is returned; callers must not rely on which automorphism that is.
    """
    n = g.order
    if n != h.order or g.size != h.size:
        return None
    g_inv = [_invariant(g, v) for v in range(n)]
    h_inv = [_invariant(h, v) for v in range(n)]
    if sorted(g_inv) != sorted(h_inv):
        return None
    candidates = [[w for w in range(n) if h_inv[w] == g_inv[v]] for v in range(n)]

    mapping: list[int] = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in candidates[v]:
            if used[w]:
                continue
            ok = True
            for u in range(v):
                if g.has_edge(u, v) != h.has_edge(mapping[u], w):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if extend(v + 1):
                return True
            used[w] = False
            mapping[v] = -1
        return False

    if extend(0):
        return {v: mapping[v] for v in range(n)}
    return None


def transfer_coloring(mapping: dict[int, int], source: dict[int, int]) -> dict[int, int]:
    """Pull a coloring of the target graph back along the mapping."""
    return {v: source[w] for v, w in mapping.items()}


def _twin_classes(g: Graph) -> list[int]:
    """Class id per vertex; twins (equal open or closed neighborhoods) share one.

    Swapping two twins is an automorphism, so the canonical search only needs
    one representative per class at each branch point.  No vertex has both an
    open twin (nonadjacent) and a closed twin (adjacent), so each class is the
    first vertex with an equal open mask, else the first with an equal closed
    mask.
    """
    first_open: dict[int, int] = {}
    first_closed: dict[int, int] = {}
    classes = []
    for v, mask in enumerate(g.adj_masks):
        rep = first_open.setdefault(mask, v)
        if rep == v:
            rep = first_closed.setdefault(mask | (1 << v), v)
        classes.append(rep)
    return classes


def canonical_form(g: Graph) -> str:
    """Text key equal across isomorphic graphs: the minimum adjacency string.

    Branch-and-bound over vertex orderings; the string concatenates each new
    vertex's adjacency row against the prefix.
    """
    n = g.order
    if n > CANONICAL_MAX_ORDER:
        raise GuardError(f"canonical form limited to order {CANONICAL_MAX_ORDER}, got {n}")
    if n == 0:
        return "0|"
    twins = _twin_classes(g)
    masks = g.adj_masks
    best: list[tuple[int, ...]] = []
    have_best = False

    order: list[int] = []
    rows: list[tuple[int, ...]] = []
    in_order = [False] * n

    def search() -> None:
        nonlocal have_best, best
        depth = len(order)
        if depth == n:
            if not have_best or rows < best:
                best = list(rows)
                have_best = True
            return
        options = []
        seen_classes = set()
        for v in range(n):
            if in_order[v] or twins[v] in seen_classes:
                continue
            seen_classes.add(twins[v])
            row = tuple(1 if (masks[v] >> u) & 1 else 0 for u in order)
            options.append((row, v))
        options.sort()
        for row, v in options:
            if have_best:
                prefix = rows + [row]
                if prefix > best[: len(prefix)]:
                    continue
            order.append(v)
            rows.append(row)
            in_order[v] = True
            search()
            in_order[v] = False
            rows.pop()
            order.pop()

    search()
    bits = "".join("".join(str(b) for b in row) for row in best)
    return f"{n}|{bits}"
