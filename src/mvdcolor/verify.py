"""The coloring contract made executable: monochromatic cuts and verdicts.

A coloring passes when every nonadjacent pair has a single-colored vertex cut
separating it.  Such an x-y cut exists iff some full color class C minus
{x, y} separates x and y (any monochromatic cut sits inside the class of its
color, and a separating class contains a minimal cut, which is single-colored).

One core, the class view, answers that for every caller.  One walk over each
component of G - C gives every vertex x the mask of vertices that C - {x, y}
leaves joined to x: outside C, its component plus the class vertices next to
that component; inside C, the union of those masks over the components next to
x.  A nonadjacent pair has a cut inside C exactly when bit y of x's mask is
clear, whether neither, one or both of x, y lie in C.  That is O(n + m) per
class.  The pairs still to check are held as rows, one partner mask per
vertex, and a class clears what it cuts from a row with one AND, so no pair is
visited class by class.

Block lemma: a coloring passes on G iff its restriction passes on every block:
a pair in two blocks is separated by a single cut vertex, and every path
between two vertices of one block stays in the block.  ``is_mvd_coloring``
applies it itself, with the pass test once per nontrivial block in the loop
that stitching also runs (``block_failures``); only the certificate, about
n^2/2 pairs, is swept over the whole graph, when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .blocks import Block, BlockDecomposition, decompose
from .graph import Graph, _bits


@dataclass(frozen=True)
class MvdVerdict:
    """Outcome of verifying one coloring.

    ``witness`` is the least nonadjacent pair (by label) with no monochromatic
    cut; ``certificate`` maps every nonadjacent pair to the least color whose
    class separates it and is present exactly when the verdict is ok; it is
    swept from ``graph`` and ``colors`` (in vertex order) when first read.
    """

    ok: bool
    witness: Optional[tuple[int, int]]
    graph: Graph = field(repr=False, compare=False)
    colors: tuple[int, ...] = field(repr=False, compare=False)

    @cached_property
    def certificate(self) -> Optional[Mapping[tuple[int, int], int]]:
        return _certificate(self.graph, self.colors) if self.ok else None


def _require_total(g: Graph, coloring: Mapping[int, int]) -> None:
    missing = [g.labels[v] for v in range(g.order) if v not in coloring]
    if missing:
        raise ValueError(f"coloring misses vertices: {', '.join(sorted(missing))}")
    for v, c in coloring.items():
        if not (0 <= v < g.order):
            raise ValueError(f"coloring mentions unknown vertex index {v}")
        if c < 1:
            raise ValueError(f"colors must be positive, got {c}")


def pair_rows(g: Graph) -> list[tuple[int, int]]:
    """Every nonadjacent pair once, as rows in label order: for each vertex x,
    the mask of its nonadjacent partners that follow it by label; empty rows
    are left out."""
    rows, later = [], g.full_mask()
    for x in sorted(range(g.order), key=g.labels.__getitem__):
        later ^= 1 << x
        if row := later & ~g.adj_masks[x]:
            rows.append((x, row))
    return rows


def class_view(g: Graph, class_mask: int) -> list[int]:
    """Per vertex x, the mask of vertices that the class minus {x, y} leaves
    joined to x: outside the class, its component of g minus the class plus
    the class vertices next to that component; inside it, the union of those
    masks over the components next to x."""
    adj = g.adj_masks
    free = g.full_mask() & ~class_mask
    joined = [0] * g.order
    rest = free
    while rest:
        seen = frontier = rest & -rest
        near = 0
        members = []
        while frontier:
            step = 0
            f = frontier
            while f:
                low = f & -f
                v = low.bit_length() - 1
                members.append(v)
                step |= adj[v]
                f ^= low
            near |= step
            frontier = step & free & ~seen
            seen |= frontier
        rest ^= seen
        touched = near & class_mask
        mask = seen | touched
        for v in members:
            joined[v] = mask
        for v in _bits(touched):
            joined[v] |= mask
    return joined


def _classes(colors: Iterable[int]) -> list[tuple[int, int]]:
    """(color, class mask) pairs in ascending color order, from colors in vertex order."""
    masks: dict[int, int] = {}
    for v, c in enumerate(colors):
        masks[c] = masks.get(c, 0) | (1 << v)
    return sorted(masks.items())


def monochromatic_cut_exists(
    g: Graph, coloring: Mapping[int, int], x: int, y: int
) -> Optional[int]:
    """Least color whose class minus {x, y} separates x from y, else None.

    None is definitive: if no class works, no monochromatic cut exists.
    """
    if x == y:
        raise ValueError("need two distinct vertices")
    for v in (x, y):
        if not 0 <= v < g.order:
            raise ValueError(f"vertex index {v} is outside 0..{g.order - 1}")
    if g.has_edge(x, y):
        raise ValueError(
            f"{g.labels[x]!r} and {g.labels[y]!r} are adjacent; no vertex cut can separate them"
        )
    try:
        decompose(g)
    except ValueError:  # x and y are two vertices, so g is not connected
        raise ValueError("monochromatic cuts are defined on connected graphs") from None
    _require_total(g, coloring)
    for color, class_mask in _classes(coloring[v] for v in range(g.order)):
        if not class_view(g, class_mask)[x] >> y & 1:
            return color
    return None


def _certificate(g: Graph, colors: Sequence[int]) -> dict[tuple[int, int], int]:
    """Each nonadjacent pair's least separating color, in label order, for a
    passing coloring with ``colors`` in vertex order: the classes sweep the
    whole graph in ascending color order, each clearing the pairs it cuts."""
    left = pair_rows(g)
    color_of: dict[int, dict[int, int]] = {x: {} for x, _ in left}  # least cutting color by partner
    for color, class_mask in _classes(colors):
        if not left:
            break
        joined = class_view(g, class_mask)
        still = []
        for x, row in left:
            rest = row & joined[x]
            if rest != row:
                color_of[x].update(dict.fromkeys(_bits(row ^ rest), color))
            if rest:
                still.append((x, rest))
        left = still
    by_label = g.labels.__getitem__
    certificate: dict[tuple[int, int], int] = {}
    for x, found in color_of.items():
        certificate.update(((x, y), found[y]) for y in sorted(found, key=by_label))
    return certificate


def is_mvd_coloring(g: Graph, coloring: Mapping[int, int]) -> MvdVerdict:
    """Check every nonadjacent pair, block by block; complete graphs pass
    vacuously.  By the block lemma the failing pairs of g are those of its
    blocks, so the witness is the least of them, in label order, over the
    blocks that fail.  The certificate is built when first read.  The blocks,
    which also show that g is connected, are those ``decompose`` kept on g."""
    if g.order < 2:
        raise ValueError("verification needs at least 2 vertices")
    try:
        dec = decompose(g)
    except ValueError:  # g has order >= 2, so it is not connected
        raise ValueError("verification needs a connected graph") from None
    _require_total(g, coloring)
    pairs = [(block.vertices[x], block.vertices[y]) for block, (x, y) in block_failures(dec, coloring)]
    witness = min(pairs, key=lambda pair: (g.labels[pair[0]], g.labels[pair[1]]), default=None)
    return MvdVerdict(witness is None, witness, g, tuple(coloring[v] for v in range(g.order)))


def partition_passes(
    g: Graph, class_masks: Sequence[int], rows: Sequence[tuple[int, int]], memo: dict[int, list[int]]
) -> bool:
    """``is_mvd_coloring(...).ok`` for the exact search's hot loop, given one
    bitmask per colour class and the graph's ``pair_rows``; ``memo`` keeps
    class views by class mask across calls on one graph."""
    views = []
    for class_mask in class_masks:
        joined = memo.get(class_mask)
        if joined is None:
            joined = memo[class_mask] = class_view(g, class_mask)
        views.append(joined)
    for x, row in rows:
        for joined in views:
            row &= joined[x]
            if not row:
                break
        else:
            return False
    return True


def _failing_pair(g: Graph, colors: Sequence[int]) -> Optional[tuple[int, int]]:
    """None when the coloring with ``colors`` in vertex order passes, else
    the least nonadjacent pair in label order that no class separates; the
    caller has checked the inputs.  The pass test builds no certificate, and
    a failure reads the witness off the class views it built."""
    masks, rows, memo = [mask for _, mask in _classes(colors)], pair_rows(g), {}
    if partition_passes(g, masks, rows, memo):
        return None
    for x, row in rows:
        for mask in masks:
            row &= memo[mask][x]
        if row:
            return x, min(_bits(row), key=g.labels.__getitem__)
    raise AssertionError("a failing partition has a failing pair")


def block_failures(dec: BlockDecomposition, coloring: Mapping[int, int]) -> Iterator[tuple[Block, tuple[int, int]]]:
    """Each nontrivial block on which the coloring of the decomposed graph
    fails, in decomposition order, with its least failing pair in block
    indices.  A trivial block, a K2, has no nonadjacent pair."""
    for block in dec.blocks:
        if not block.trivial:
            pair = _failing_pair(block.graph, [coloring[v] for v in block.vertices])
            if pair is not None:
                yield block, pair


def color_count(coloring: Mapping[int, int]) -> int:
    return len(set(coloring.values()))
