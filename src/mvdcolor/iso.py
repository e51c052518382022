"""Canonical vertex orderings, and the keys read from them.

One iterative individualisation-refinement search (McKay & Piperno, "Practical
graph isomorphism II", 2014) serves census deduplication, catalog lookup and
``classify``'s core key.  Two graphs are isomorphic exactly when their
relabelled graphs are equal; their canonical orders, paired position by
position, then map one onto the other.  The search refines an ordered
partition until equitable and individualises each vertex of the first smallest
non-singleton cell in turn; the canonical ordering is the discrete leaf whose
relabelled graph is least.  It splits cells of mutual twins outright, tries
one vertex per twin class, and skips images of explored subtrees under
automorphisms found at leaves.  It returns those leaf automorphisms, with the
swap of each vertex and the first of its twin class, so callers can prune by
symmetry too.  More than ``MAX_SEARCH_NODES`` nodes raise ``GuardError``.

The search walks depth first over one partition, split in place and merged
back along an undo trail.  A splitter's work scales with the vertices it
touches: singleton cells and cells it leaves whole are skipped, and only the
counted vertices move.  A leaf is compared with the least one on the rows of
the vertices it moves and their neighbours, and each node keeps the orbits
of its automorphisms in a union-find forest, so long paths, cycles and trees
of 10^4 vertices take about a second."""

from __future__ import annotations

from itertools import compress
from operator import ne
from typing import NamedTuple, Optional, Sequence

from .graph import Graph, GuardError

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


class _Partition:
    """An ordered partition of range(n), split in place and restored by undoing splits.

    ``lab`` lists the vertices cell by cell and ``pos`` inverts it; the cell at
    position c ends at ``end[c]``, v's cell starts at ``cell[v]``, and
    ``by_size`` holds the starts of the cells of each size above 1.  The order
    of vertices inside a cell means nothing.  ``trail`` records each split as
    (start, old end) for ``undo``; every update is paid by the vertices it moves.
    """

    __slots__ = ("lab", "pos", "cell", "end", "by_size", "trail")

    def __init__(self, n: int) -> None:
        self.lab, self.pos, self.cell, self.end = list(range(n)), list(range(n)), [0] * n, [n] * (n + 1)
        self.by_size: dict[int, set[int]] = {n: {0}} if n > 1 else {}
        self.trail: list[tuple[int, int]] = []

    def _cut(self, c: int, starts: list[int]) -> None:
        """Cut the cell at c into fragments at ``starts`` (c first, ascending), its vertices already placed."""
        lab, cell, end, by_size = self.lab, self.cell, self.end, self.by_size
        e = end[c]
        self.trail.append((c, e))
        self._drop(c, e - c)
        for a, b in zip(starts, starts[1:] + [e]):
            end[a] = b
            if b - a > 1:
                by_size.setdefault(b - a, set()).add(a)
            if a != c:
                for v in lab[a:b]:
                    cell[v] = a

    def _drop(self, c: int, size: int) -> None:
        if size > 1:
            same = self.by_size[size]
            same.discard(c)
            if not same:
                del self.by_size[size]

    def undo(self, mark: int) -> None:
        """Merge back every split after the first ``mark`` ones, latest first."""
        lab, cell, end, by_size, trail = self.lab, self.cell, self.end, self.by_size, self.trail
        while len(trail) > mark:
            c, e = trail.pop()
            for v in lab[end[c]:e]:
                cell[v] = c
            a = c
            while a < e:
                self._drop(a, end[a] - a)
                a = end[a]
            end[c] = e
            by_size.setdefault(e - c, set()).add(c)

    def individualise(self, w: int) -> int:
        """Move w to the front of its cell and cut it off; the position it gets."""
        lab, pos = self.lab, self.pos
        c, i = self.cell[w], pos[w]
        lab[i], lab[c] = lab[c], w
        pos[lab[i]], pos[w] = i, c
        self._cut(c, [c, c + 1])
        return c

    def discrete(self, c: int) -> None:
        """Cut the cell at c into singletons in ascending vertex order."""
        lab, pos, e = self.lab, self.pos, self.end[c]
        lab[c:e] = sorted(lab[c:e])
        for i in range(c, e):
            pos[lab[i]] = i
        self._cut(c, list(range(c, e)))

    def refine(self, nbrs: Sequence[Sequence[int]], queue: list[int], changed: set[int]) -> None:
        """Split cells until the partition is equitable, adding every fragment's start to ``changed``.

        Each splitter splits every cell by neighbour count in it, ascending
        (untouched vertices first); a split cell not queued queues all its
        fragments but the first largest, whose counts follow from the
        others'.  Singleton cells, and cells whose vertices all got one
        count, are skipped; a split moves only the counted vertices.
        """
        lab, pos, cell, end = self.lab, self.pos, self.cell, self.end
        queued = set(queue)
        for s in queue:  # the queue grows while it is read
            queued.discard(s)
            count: dict[int, int] = {}
            for u in lab[s:end[s]]:
                for w in nbrs[u]:
                    count[w] = count.get(w, 0) + 1
            touched: dict[int, list[int]] = {}
            for w in count:
                c = cell[w]
                if end[c] - c > 1:
                    touched.setdefault(c, []).append(w)
            for c in sorted(touched):
                ws, e = touched[c], end[c]
                if len(ws) == e - c and len({count[w] for w in ws}) == 1:
                    continue
                ws.sort(key=count.__getitem__)
                t = e - len(ws)  # counted vertices go to [t, e), in count order
                for i, x in zip([pos[w] for w in ws if pos[w] < t], [x for x in lab[t:e] if x not in count]):
                    lab[i], pos[x] = x, i
                for i, w in enumerate(ws, t):
                    lab[i], pos[w] = w, i
                starts = [c] if t > c else []
                starts += [i for i in range(t, e) if i == t or count[lab[i]] != count[lab[i - 1]]]
                self._cut(c, starts)
                changed.update(starts)
                if c not in queued:
                    sizes = [b - a for a, b in zip(starts, starts[1:] + [e])]
                    del starts[sizes.index(max(sizes))]
                queue.extend(a for a in starts if a not in queued)
                queued.update(starts)


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


def _find(up: dict[int, int], x: int) -> int:
    """The root of x's tree in a union-find forest, halving the path on the way."""
    while x in up:
        if up[x] in up:
            up[x] = up[up[x]]
        x = up[x]
    return x


def _join_orbits(up: dict[int, int], gens: list[dict[int, int]], cell: list[int]) -> None:
    """Join in the forest ``up`` the points each automorphism that keeps every cell maps together."""
    for q in gens:
        if all(cell[y] == cell[x] for x, y in q.items()):
            for x, y in q.items():
                a, b = _find(up, x), _find(up, y)
                if a != b:
                    up[max(a, b)] = min(a, b)


def _leaf_order(nbrs: Sequence[Sequence[int]], lab: list[int], pos: list[int], best: tuple) -> tuple[int, list[int]]:
    """How the discrete partition ``lab`` compares with the least leaf so far (-1, 0 or 1), and
    the positions where their orders differ.  Only the rows of moved vertices and their
    neighbours can differ, so only those are built, in position order."""
    relabelled, order = best[0], best[1]
    moved = list(compress(range(len(lab)), map(ne, lab, order)))
    rows = set(moved).union(*(map(pos.__getitem__, nbrs[lab[i]]) for i in moved))
    for i in sorted(rows):
        row = tuple(sorted(map(pos.__getitem__, nbrs[lab[i]])))
        if row != relabelled[i]:
            return (-1 if row < relabelled[i] else 1), moved
    return 0, moved


def canonical_labelling(g: Graph) -> Labelling:
    """The canonical order of g's vertices, g relabelled by it, and the automorphisms the search found."""
    n, nbrs, twins, nodes = g.order, g.neighbors, _twin_classes(g), 0
    p = _Partition(n)
    best: Optional[tuple] = None  # (relabelled graph, ordering, branch choices) of the least leaf
    gens: list[dict[int, int]] = []  # automorphisms found at leaves, on the points they move
    # one node per depth: [trail mark, path, children left, children tried, orbit forest, gens joined]
    stack: list[list] = []
    path: list[int] = []
    queue: Optional[list[int]] = [0]
    changed = {0}  # the cells a node made or split, which alone can be new cells of twins
    while queue is not None:
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise GuardError(f"canonical search passed its budget of {MAX_SEARCH_NODES} nodes")
        p.refine(nbrs, queue, changed)
        # split each cell of mutual twins: all its orders are equivalent, and as it was
        # equitable, no other cell has a twin on one side only, so nothing else splits
        for c in changed:
            e = p.end[c]
            if e - c > 1 and len({twins[v] for v in p.lab[c:e]}) == 1:
                p.discrete(c)
        if p.by_size:
            size = min(p.by_size)
            c = min(p.by_size[size])  # the first smallest cell; its children are one vertex per twin class
            children = list({twins[v]: v for v in sorted(p.lab[c:c + size])}.values())
            stack.append([len(p.trail), path, children, [], {}, 0])
        elif best is None:
            best = (_relabelled(nbrs, p.lab), p.lab[:], path)
        else:
            cmp, moved = _leaf_order(nbrs, p.lab, p.pos, best)
            if cmp == 0:  # an automorphism: skip the rest of the subtree at the fork
                gens.append({best[1][i]: p.lab[i] for i in moved})
                del stack[1 + next(i for i, (a, b) in enumerate(zip(path, best[2])) if a != b):]
            elif cmp < 0:
                best = (_relabelled(nbrs, p.lab), p.lab[:], path)
        queue = None
        while stack and queue is None:
            top = stack[-1]
            mark, path, children, tried, up, seen = top
            if not children:
                stack.pop()
                continue
            w = children.pop()
            p.undo(mark)
            if tried:  # skip w when automorphisms keeping every cell map a tried child onto it
                _join_orbits(up, gens[seen:], p.cell)
                top[5] = len(gens)
                if _find(up, w) in {_find(up, t) for t in tried}:
                    continue
            tried.append(w)
            c = p.individualise(w)
            path, queue, changed = path + [w], [c], {c, c + 1}
    swaps = [{v: t, t: v} for v, t in enumerate(twins) if t != v]
    return Labelling(best[1], best[0], gens + swaps)

