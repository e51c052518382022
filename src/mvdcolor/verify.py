"""The coloring contract made executable: monochromatic cuts and verdicts.

A coloring passes when every nonadjacent pair has a single-colored vertex cut
separating it.  Such an x-y cut exists iff some full color class C minus
{x, y} separates x and y (any monochromatic cut sits inside the class of its
color, and a separating class contains a minimal cut, which is single-colored).

One core, the class view, answers that for every caller.  A pass over the
bitmask adjacency labels the components of G - C; a vertex in C gets the
components next to it.  A nonadjacent pair has a cut inside C exactly when its
two views share no component, whether neither, one or both of x, y lie in C.
That is O(n + m) per class, then O(1) per pair.

Block lemma: a coloring passes on G iff its restriction passes on every block,
because a pair in two different blocks is separated by a single cut vertex.
Blockwise solving therefore verifies once per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .blocks import Block
from .graph import Graph, _bits, _reach_mask, is_connected


@dataclass(frozen=True)
class MvdVerdict:
    """Outcome of verifying one coloring.

    ``witness`` is the least nonadjacent pair (by label) with no monochromatic
    cut; ``certificate`` maps every nonadjacent pair to the least color whose
    class separates it and is present exactly when the verdict is ok.
    """

    ok: bool
    witness: Optional[tuple[int, int]]
    certificate: Optional[Mapping[tuple[int, int], int]]


def _require_total(g: Graph, coloring: Mapping[int, int]) -> None:
    missing = [g.labels[v] for v in range(g.order) if v not in coloring]
    if missing:
        raise ValueError(f"coloring misses vertices: {', '.join(sorted(missing))}")
    for v, c in coloring.items():
        if not (0 <= v < g.order):
            raise ValueError(f"coloring mentions unknown vertex index {v}")
        if c < 1:
            raise ValueError(f"colors must be positive, got {c}")


def nonadjacent_pairs(g: Graph) -> list[tuple[int, int]]:
    """All nonadjacent pairs, sorted by label so reports are deterministic."""
    by_label = sorted(range(g.order), key=lambda v: g.labels[v])
    return [(x, y) for i, x in enumerate(by_label) for y in by_label[i + 1:] if not g.has_edge(x, y)]


def class_view(g: Graph, class_mask: int) -> list[int]:
    """Component bits per vertex: outside the class, the bit of its component
    of g minus the class; inside it, the bits of the components it touches."""
    free = g.full_mask() & ~class_mask
    view = [0] * g.order
    rest, bit = free, 1
    while rest:
        comp = _reach_mask(g, (rest & -rest).bit_length() - 1, free)
        rest ^= comp
        near = 0
        for v in _bits(comp):
            view[v] = bit
            near |= g.adj_masks[v]
        for v in _bits(near & class_mask):
            view[v] |= bit
        bit <<= 1
    return view


def _classes(colors: Iterable[int]) -> list[tuple[int, int]]:
    """(color, class mask) pairs in ascending color order, from colors in vertex order."""
    masks: dict[int, int] = {}
    for v, c in enumerate(colors):
        masks[c] = masks.get(c, 0) | (1 << v)
    return sorted(masks.items())


def _least_color(
    g: Graph, classes: Sequence[tuple[int, int]], views: list[list[int]], x: int, y: int
) -> Optional[int]:
    """Least separating color; views are built on demand, in color order."""
    for i, (color, class_mask) in enumerate(classes):
        if i == len(views):
            views.append(class_view(g, class_mask))
        view = views[i]
        if not view[x] & view[y]:
            return color
    return None


def monochromatic_cut_exists(
    g: Graph, coloring: Mapping[int, int], x: int, y: int
) -> Optional[int]:
    """Least color whose class minus {x, y} separates x from y, else None.

    None is definitive: if no class works, no monochromatic cut exists.
    """
    if x == y:
        raise ValueError("need two distinct vertices")
    if g.has_edge(x, y):
        raise ValueError(
            f"{g.labels[x]!r} and {g.labels[y]!r} are adjacent; no vertex cut can separate them"
        )
    if not is_connected(g):
        raise ValueError("monochromatic cuts are defined on connected graphs")
    _require_total(g, coloring)
    return _least_color(g, _classes(coloring[v] for v in range(g.order)), [], x, y)


def is_mvd_coloring(g: Graph, coloring: Mapping[int, int]) -> MvdVerdict:
    """Check every nonadjacent pair; complete graphs pass vacuously.

    The witness, when present, is the least failing pair in label order, and
    each certificate color is the least separating one.
    """
    if g.order < 2:
        raise ValueError("verification needs at least 2 vertices")
    if not is_connected(g):
        raise ValueError("verification needs a connected graph")
    _require_total(g, coloring)
    classes = _classes(coloring[v] for v in range(g.order))
    views: list[list[int]] = []
    certificate: dict[tuple[int, int], int] = {}
    for x, y in nonadjacent_pairs(g):
        color = _least_color(g, classes, views, x, y)
        if color is None:
            return MvdVerdict(ok=False, witness=(x, y), certificate=None)
        certificate[(x, y)] = color
    return MvdVerdict(ok=True, witness=None, certificate=certificate)


def failing_block(
    blocks: Iterable[Block], coloring: Mapping[int, int]
) -> Optional[tuple[Block, tuple[int, int]]]:
    """First block on which the restricted coloring fails, with its witness in
    block-local indices; None means, by the block lemma, a pass on the graph."""
    for block in blocks:
        verdict = is_mvd_coloring(block.graph, {i: coloring[v] for i, v in enumerate(block.vertices)})
        if not verdict.ok:
            return block, verdict.witness  # type: ignore[return-value]
    return None


def partition_passes(
    g: Graph, class_masks: Sequence[int], pairs: Sequence[tuple[int, int]], memo: dict[int, list[int]]
) -> bool:
    """``is_mvd_coloring(...).ok`` for the exact search's hot loop, given one
    bitmask per colour class; ``memo`` keeps class views by class mask across
    calls on one graph."""
    views = []
    for class_mask in class_masks:
        view = memo.get(class_mask)
        if view is None:
            view = memo[class_mask] = class_view(g, class_mask)
        views.append(view)
    for x, y in pairs:
        for view in views:
            if not view[x] & view[y]:
                break
        else:
            return False
    return True


def restrict(coloring: Mapping[int, int], vertices: Iterable[int]) -> dict[int, int]:
    """Restriction to a vertex subset; colors keep their identities."""
    return {v: coloring[v] for v in vertices}


def color_count(coloring: Mapping[int, int]) -> int:
    return len(set(coloring.values()))
