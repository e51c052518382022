"""Canonical vertex orderings, and the keys and isomorphisms read from them.

One iterative individualisation-refinement search (McKay & Piperno,
"Practical graph isomorphism II", 2014) serves every caller.  It refines an
ordered partition until equitable and individualises each vertex of the
first smallest non-singleton cell in turn; the canonical ordering is the
discrete leaf whose relabelled graph is least.  It splits cells of mutual
twins outright, tries one vertex per twin class, and skips images of explored
subtrees under automorphisms found at leaves.  It returns those leaf
automorphisms, with the swap of each vertex and the first of its twin class,
so callers can prune by symmetry too.  More than ``MAX_SEARCH_NODES`` nodes
raise ``GuardError``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

from .graph import Graph, GuardError

CANONICAL_MAX_ORDER = 12
MAX_SEARCH_NODES = 50_000


def _twin_classes(g: Graph) -> list[int]:
    """Class id per vertex: twins (equal open or closed neighborhoods) share one.

    No vertex has both kinds, so a class is the first vertex with an equal open, else closed, mask.
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


def _split(lab: list[int], start: list[int], end: list[int], c: int, key: Callable) -> list[tuple[int, int]]:
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


def _refine(nbrs: Sequence[Sequence[int]], lab: list[int], start: list[int], end: list[int],
            queue: list[int]) -> None:
    """Split the ordered partition in place until it is equitable.

    ``lab`` lists the vertices cell by cell; the cell at s ends at ``end[s]``
    and v's starts at ``start[v]``.  Each splitter splits every cell by
    neighbour count in it, ascending; a split cell not queued queues all its
    fragments but the first largest, whose counts follow from the others'.
    """
    queued = set(queue)
    for s in queue:  # the queue grows while it is read
        queued.discard(s)
        count: dict[int, int] = {}
        for u in lab[s:end[s]]:
            for w in nbrs[u]:
                count[w] = count.get(w, 0) + 1
        for c in sorted({start[w] for w in count}):
            frags = _split(lab, start, end, c, lambda v: count.get(v, 0))
            if c not in queued:
                frags.remove(max(frags, key=lambda f: f[1] - f[0]))
            queue.extend(a for a, _ in frags if a not in queued)
            queued.update(a for a, _ in frags)


def _relabelled(nbrs: Sequence[Sequence[int]], order: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Neighbour positions of each vertex in the order, listed by position."""
    pos = {v: i for i, v in enumerate(order)}
    return tuple(tuple(sorted(pos[w] for w in nbrs[v])) for v in order)


class Labelling(NamedTuple):
    """One canonical search: the canonical vertex order, the graph relabelled by it (equal
    exactly for isomorphic graphs), and automorphisms it found, each on the points it moves."""

    order: list[int]
    relabelled: tuple[tuple[int, ...], ...]
    automorphisms: list[dict[int, int]]

    @property
    def key(self) -> str:
        """``n|bits``: the rows of the relabelled graph below the diagonal."""
        rows = enumerate(map(set, self.relabelled))
        return f"{len(self.order)}|" + "".join("1" if j in row else "0" for i, row in rows for j in range(i))


def canonical_labelling(g: Graph) -> Labelling:
    """The canonical order of g's vertices, g relabelled by it, and the automorphisms the search found."""
    n, nbrs, twins, nodes = g.order, g.neighbors, _twin_classes(g), 0
    best: Optional[tuple] = None  # (relabelled graph, ordering, branch choices) of the least leaf
    gens: list[dict[int, int]] = []  # automorphisms found at leaves, on the points they move
    stack: list[tuple] = []  # nodes with children left to try, one per depth
    node: Optional[tuple] = (list(range(n)), [0] * n, [n] * (n + 1), [], [0])
    while node is not None:
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise GuardError(f"canonical search passed its budget of {MAX_SEARCH_NODES} nodes")
        lab, start, end, path, splitters = node
        while splitters:  # refine, then split each cell of mutual twins: all its orders are equivalent
            _refine(nbrs, lab, start, end, splitters)
            cells = [(end[c] - c, c) for c in set(start) if end[c] - c > 1]
            twin_cells = [c for _, c in cells if len({twins[v] for v in lab[c:end[c]]}) == 1]
            splitters = [i for c in twin_cells for i in range(c, end[c])]
            for c in twin_cells:
                _split(lab, start, end, c, lambda v: v)
        if cells:
            c = min(cells)[1]  # the first smallest cell; its children are one vertex per twin class
            stack.append((lab, start, end, path, list({twins[v]: v for v in lab[c:end[c]]}.values()), []))
        else:
            leaf = (_relabelled(nbrs, lab), lab, path)
            if best and leaf[0] == best[0]:  # an automorphism: skip the rest of the subtree at the fork
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
            # skip w when an automorphism keeping every cell maps a tried child onto it
            fixing = [p for p in gens if all(start[y] == start[x] for x, y in p.items())] if tried else []
            orbit, todo = {w}, [w]
            for x in todo:  # the list grows while it is read
                new = {p.get(x, x) for p in fixing} - orbit
                orbit |= new
                todo.extend(new)
            if orbit.isdisjoint(tried):
                tried.append(w)
                lab, start, end = lab[:], start[:], end[:]
                _split(lab, start, end, start[w], lambda v: v != w)
                node = (lab, start, end, path + [w], [start[w]])
    swaps = [{v: t, t: v} for v, t in enumerate(twins) if t != v]
    return Labelling(best[1], best[0], gens + swaps)


def canonical_form(g: Graph) -> str:
    """Key equal across isomorphic graphs: ``n|bits``, the rows below the diagonal in canonical order."""
    if g.order > CANONICAL_MAX_ORDER:
        raise GuardError(f"canonical form limited to order {CANONICAL_MAX_ORDER}, got {g.order}")
    return canonical_labelling(g).key


def find_isomorphism(g: Graph, h: Graph) -> Optional[dict[int, int]]:
    """Adjacency-preserving bijection from g onto h, or None (definitive).

    It maps the canonical ordering of g onto that of h position by position;
    callers must not rely on which isomorphism that is.
    """
    if g.order != h.order or g.size != h.size:
        return None
    lg, lh = canonical_labelling(g), canonical_labelling(h)
    return dict(zip(lg.order, lh.order)) if lg.relabelled == lh.relabelled else None


def transfer_coloring(mapping: dict[int, int], source: dict[int, int]) -> dict[int, int]:
    """Pull a coloring of the target graph back along the mapping."""
    return {v: source[w] for v, w in mapping.items()}
