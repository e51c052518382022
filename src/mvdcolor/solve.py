"""Computing the disconnection number: exact search, closed forms, blocks.

The exact solver walks the colourings of a class count k as
restricted-growth strings: it colours one vertex at a time, keeps a bitmask
per colour class, and checks each full assignment against those masks.  On
a 2-connected triangle-free graph it ascends from k = 2 to floor(n/2), the
pair bound that every nonadjacent pair certifies (see ``certified_bound``),
and cuts every branch whose classes, grown by the uncoloured vertices,
already fail; the last passing level is the value.  Any other graph keeps
the unpruned descent from the order, where a first success at k proves the
value is k (see ``mvd_exact``).  Closed forms
cover complete graphs, cycles, and theta graphs whose constructive coloring
reaches the pair bound of their hubs; thetas that miss it go to exact search.
Block-composed solving decomposes the graph, solves each block via catalog
lookup, closed form, or exact search, stitches the per-block colorings
across cut vertices in reverse decomposition order, and composes the value
as ``sum of block values - r + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from . import verify
from .blocks import Block, BlockDecomposition, decompose, is_two_connected
from .graph import Graph, GuardError, _bits, cycle_order, is_complete, is_connected
from .graph import theta_threads, triangle_free
from .iso import transfer_coloring
from .verify import _require_total, color_count, pair_rows, partition_passes

if TYPE_CHECKING:
    from .catalog import Catalog

MAX_EXACT_ORDER = 11


@dataclass(frozen=True)
class MvdResult:
    """A value, a certified coloring, and how it was obtained.

    ``method`` is ``exact``, ``closed-form`` or ``block-composed`` on
    top-level results; ``solve_block``'s results carry the trail entry
    instead (``trivial``, ``catalog:<id>``, ``closed-form`` or ``exact``).
    ``block_methods`` carries the per-block trail and ``decomposition`` the
    blocks it refers to when the block pipeline produced the result.
    """

    value: int
    coloring: dict[int, int]
    method: str
    block_methods: tuple[str, ...] = field(default=(), compare=False)
    decomposition: Optional[BlockDecomposition] = field(default=None, compare=False, repr=False)


def _walk(
    g: Graph,
    n: int,
    rows: Sequence[tuple[int, int]],
    memo: dict[int, list[int]],
    masks: list[int],
    v: int,
    used: int,
    check_from: int,
) -> bool:
    """Colour vertices v..n-1 (n is g's order) into the classes of ``masks``,
    classes 1..used open, in restricted-growth order; True, with ``masks``
    holding it, at the first partition into exactly ``len(masks)`` classes
    that passes.

    From vertex ``check_from`` on, a branch is cut when the open classes,
    each grown by every vertex still uncoloured, fail the pass test.  That
    is sound: a class only grows, so its final content lies inside that
    union, and a superset of a separating class still separates (see
    ``mvd_exact``).  So a cut branch holds no passing leaf, and the walk
    returns the same first leaf as an unpruned one.  The grown views share
    the leaf memo.  ``check_from`` = n checks leaves only.

    A module function, not a closure in ``mvd_exact``: a recursive closure is
    a reference cycle, which would hold the view memo until the cycle
    collector runs.
    """
    k = len(masks)
    if v == n:
        return partition_passes(g, masks, rows, memo)
    if v >= check_from:
        left = g.full_mask() >> v << v
        if not partition_passes(g, [mask | left for mask in masks[:used]], rows, memo):
            return False
    bit = 1 << v
    # once the unopened classes need every vertex left, v must open one
    for c in range(used if n - v == k - used else 0, min(used + 1, k)):
        masks[c] |= bit
        if _walk(g, n, rows, memo, masks, v + 1, used + (c == used), check_from):
            return True
        masks[c] ^= bit
    return False


def mvd_exact(g: Graph) -> MvdResult:
    """Maximum class count over all passing partitions, by restricted-growth walks.

    For a class count k, one walk colours the vertices in turn in
    restricted-growth order (classes numbered by first appearance, exactly k
    of them, lexicographic), keeps one bitmask per class, and checks each
    full assignment.  Guarded to order 11 (Bell-number search).

    On a 2-connected triangle-free input of order >= 4 the search ascends:
    k = 2, 3, ... up to floor(n/2), stopping at the first level that fails,
    and the last passing level is the value.  Those walks prune from the
    fourth vertex on (see ``_walk``).  The ceiling is valid: such a graph is
    not complete, and by Menger it joins any nonadjacent pair by two
    internally disjoint paths, whose pair bound (``certified_bound``) is
    1 + (n - 2) // 2 = floor(n/2).  It covers every minimal block of order
    >= 4, all of which are triangle-free.  Every other input keeps the
    unpruned descent from n, where the one partition is all singletons (so a
    complete graph gets n distinct colours), and a first pass at k proves the
    value is k.  Pruning it would be as exact; it waits because
    ``perfbench/run.py`` keeps every op's output, so faster ``solve`` ops
    raise that workload's peak memory (ROADMAP item 1).  Both searches return the first passing leaf of the
    same walk at k = value, so they give the same coloring.

    Coarsening monotonicity: merging two classes C and D of a passing
    partition gives a passing partition.  If C - {x, y} separates a
    nonadjacent pair x, y, then so does its superset (C u D) - {x, y}, which
    still avoids x and y.  So a passing k-partition yields a passing
    (k-1)-partition, and the class counts that pass run 1..mvd(G) without a
    gap: the first failing level ends the ascent, and the descent skips only
    failing levels.  The same superset argument makes the prune sound.
    """
    n = g.order
    if n < 2:
        raise ValueError("mvd is defined for graphs of order >= 2")
    if n > MAX_EXACT_ORDER:
        raise GuardError(f"exact search limited to order {MAX_EXACT_ORDER}, got {n}")
    if not is_connected(g):
        raise ValueError("mvd is defined for connected graphs")
    rows = pair_rows(g)
    memo: dict[int, list[int]] = {}
    if n >= 4 and triangle_free(g) and is_two_connected(g):
        found = [g.full_mask()]  # the single class always passes
        for k in range(2, n // 2 + 1):
            masks = [1] + [0] * (k - 1)  # vertex 0 opens class 1
            if not _walk(g, n, rows, memo, masks, 1, 1, 3):
                break
            found = masks
    else:
        for k in range(n, 0, -1):
            found = [1] + [0] * (k - 1)  # vertex 0 opens class 1
            if _walk(g, n, rows, memo, found, 1, 1, n):
                break
    return MvdResult(len(found), {v: c + 1 for c, mask in enumerate(found) for v in _bits(mask)}, "exact")


def certified_bound(g: Graph, a: int, b: int, paths: Sequence[Sequence[int]]) -> int:
    """The upper bound 1 + (n - k) // 2 on mvd(g) that k internally disjoint
    walks ``paths`` from a to b certify; ValueError when g is not 2-connected
    and triangle-free, when a and b are not a nonadjacent pair, or when the
    walks are not internally disjoint a-b walks of g.

    Let a passing coloring use c classes.

    - a and b are nonadjacent, so some class holds an a-b cut, which meets
      the k walks at k distinct inner vertices;
    - g is triangle-free and has no vertex of degree < 2, so every vertex has
      two nonadjacent neighbours, every cut between them contains it, and so
      every class holds a cut;
    - g has no cut vertex, so every cut, and so every class, has >= 2
      vertices.

    So k + 2(c - 1) <= n.  Checked in O(n + m) plus the walks' length: one
    block search, one AND per edge, and one step per walk vertex.
    """
    n = g.order
    if not (triangle_free(g) and is_two_connected(g)):
        raise ValueError("the pair bound needs a 2-connected triangle-free graph")
    if not (0 <= a < n and 0 <= b < n) or a == b or g.has_edge(a, b):
        raise ValueError(f"ends {a}, {b} are not a nonadjacent pair of g")
    seen = 1 << a | 1 << b
    for path in paths:
        if len(path) < 2 or path[0] != a or path[-1] != b:
            raise ValueError(f"walk {list(path)} does not run from {a} to {b}")
        for u, v in zip(path, path[1:]):
            if not (0 <= v < n and g.has_edge(u, v)):
                raise ValueError(f"walk step {u}-{v} is not an edge of g")
        for v in path[1:-1]:
            if seen >> v & 1:
                raise ValueError(f"vertex {v} is not a private inner vertex of one walk")
            seen |= 1 << v
    return 1 + (n - len(paths)) // 2


def _theta_coloring(threads: Sequence[Sequence[int]]) -> dict[int, int]:
    """A passing coloring of the theta graph with these threads (walks from
    hub a to hub b, each with an inner vertex).

    Both hubs get color 1.  Each thread's inner vertices t_1..t_m get a
    fresh color per mirrored pair t_j, t_(m+1-j) around its centre: one
    vertex of color 2 when m is odd, a pair colored (2, 1) when m is even, or
    (2, 3) when every m is even.  That is 2 + [every m even] +
    sum floor((m - 1)/2) colors.  It passes: the hubs' class separates
    vertices on different threads, class 2 meets every thread, so it
    separates the hubs and any pair split by a centre, a mirrored pair cuts
    off the stretch between its ends, and the class of a second centre,
    with the hubs or on every thread, separates its two neighbours.
    """
    all_even = all(len(t) % 2 == 0 for t in threads)  # m = len(t) - 2
    coloring = {threads[0][0]: 1, threads[0][-1]: 1}
    fresh = 4 if all_even else 3
    for t in threads:
        inner = t[1:-1]
        m = len(inner)
        half = (m - 1) // 2
        for j in range(half):
            coloring[inner[j]] = coloring[inner[m - 1 - j]] = fresh
            fresh += 1
        coloring[inner[half]] = 2
        if m % 2 == 0:
            coloring[inner[half + 1]] = 3 if all_even else 1
    return coloring


def mvd_closed_form(g: Graph) -> Optional[MvdResult]:
    """Known families: complete graphs, cycles, and thetas whose coloring
    meets the pair bound of its hubs; else None.

    A theta graph (see ``graph.theta_threads``) has k >= 3 threads between
    nonadjacent hubs a and b; it is 2-connected and triangle-free, so its
    threads certify the bound 1 + (n - k) // 2 (``certified_bound``).  It
    gets ``_theta_coloring``, which is kept only when its color count equals
    that bound, so the coloring is then optimal.  The count meets the bound
    when at most one thread has an even number of inner vertices, or when
    there are three threads and all do (P(500,500,500) gets 750); it misses
    it on, for example, P(2,2,1), and those thetas go to exact search or the
    guard.
    """
    n = g.order
    if n < 2 or not is_connected(g):
        return None
    if is_complete(g):
        return MvdResult(n, {v: v + 1 for v in range(n)}, "closed-form")
    walk = cycle_order(g)
    if walk is not None and n >= 4:
        half = n // 2
        coloring = {v: (j % half) + 1 for j, v in enumerate(walk)}
        return MvdResult(half, coloring, "closed-form")
    threads = theta_threads(g)
    if threads is not None:
        coloring = _theta_coloring(threads)
        value = color_count(coloring)
        if value == certified_bound(g, threads[0][0], threads[0][-1], threads):
            return MvdResult(value, coloring, "closed-form")
    return None


def mvd_compose(dec: BlockDecomposition, per_block: Sequence[MvdResult]) -> int:
    """Composition identity: sum of per-block values minus r plus 1."""
    if len(per_block) != dec.r:
        raise ValueError(f"expected {dec.r} block results, got {len(per_block)}")
    return sum(res.value for res in per_block) - dec.r + 1


def counting_formula(dec: BlockDecomposition, block_values: Sequence[int]) -> int:
    """Tally blocks by value in 2..5 and evaluate 4*n5 + 3*n4 + 2*n3 + n2 + 1,
    the paper's counting formula, public as such; the solver never calls it."""
    if len(block_values) != dec.r:
        raise ValueError(f"expected {dec.r} block values, got {len(block_values)}")
    counts = {2: 0, 3: 0, 4: 0, 5: 0}
    for value in block_values:
        if value not in counts:
            raise ValueError(f"block value {value} outside 2..5")
        counts[value] += 1
    return 4 * counts[5] + 3 * counts[4] + 2 * counts[3] + counts[2] + 1


def stitch_colorings(dec: BlockDecomposition, per_block: Sequence[Mapping[int, int]]) -> dict[int, int]:
    """Merge per-block colorings into one global coloring, verified per block.

    Blocks are taken in reverse decomposition order, so each block after the
    first meets the colored part exactly at its last vertex, its articulation
    parent (see ``BlockDecomposition``).  Each block keeps its class structure
    up to renaming; the class of that shared cut vertex is renamed to the
    vertex's fixed global color and every other class receives a fresh color,
    allocated consecutively in processing order.  The result uses exactly (sum
    of per-block color counts) - r + 1 colors.  Each block is checked once, on
    the restriction of the stitched coloring, with the exact search's pass
    test; that catches a bad block coloring and a stitching fault alike, and
    only a failure runs the full verifier, to name the least failing pair.  By
    the block lemma (see ``verify``) the whole graph then passes.  A trivial
    block, a K2, has no nonadjacent pair, so only its local coloring's
    totality is checked.
    """
    if len(per_block) != dec.r:
        raise ValueError(f"expected {dec.r} block colorings, got {len(per_block)}")
    global_coloring: dict[int, int] = {}
    next_color = 1
    for block, local in zip(reversed(dec.blocks), reversed(per_block)):
        _require_total(block.graph, local)
        rename: dict[int, int] = {}
        if global_coloring:
            rename[local[len(block.vertices) - 1]] = global_coloring[block.vertices[-1]]
        for c in sorted(set(local.values())):
            if c not in rename:
                rename[c] = next_color
                next_color += 1
        for local_v, parent_v in enumerate(block.vertices):
            global_coloring[parent_v] = rename[local[local_v]]
    for block in dec.blocks:
        if block.trivial:
            continue
        bg = block.graph
        witness = verify._failing_pair(bg, [global_coloring[v] for v in block.vertices])
        if witness is not None:
            x, y = witness
            raise ValueError(
                "block coloring fails verification on block "
                f"{{{', '.join(sorted(bg.labels))}}}: "
                f"no monochromatic cut for {bg.labels[x]!r},{bg.labels[y]!r}"
            )
    return global_coloring


def solve_block(block: Block, catalog: Optional[Catalog]) -> MvdResult:
    """Solve one block: trivial, catalog lookup, closed form, then exact.

    The result's ``method`` is the block's trail entry: ``trivial``,
    ``catalog:<id>`` naming the matched entry, ``closed-form`` or ``exact``.
    """
    bg = block.graph
    if block.trivial:
        return MvdResult(2, {0: 1, 1: 2}, "trivial")
    if catalog is not None:
        hit = catalog.lookup(bg)
        if hit is not None:
            entry, mapping = hit
            return MvdResult(entry.mvd_value, transfer_coloring(mapping, entry.coloring), f"catalog:{entry.id}")
    closed = mvd_closed_form(bg)
    if closed is not None:
        return closed
    if bg.order > MAX_EXACT_ORDER:
        first = ", ".join(sorted(bg.labels)[:3])
        raise GuardError(
            f"block {{{first}, ...}} has order {bg.order}: beyond the exact-solver guard "
            f"({MAX_EXACT_ORDER}) with no catalog or closed-form match"
        )
    return mvd_exact(bg)


def mvd_via_blocks(g: Graph, catalog: Optional[Catalog] = None) -> MvdResult:
    """Decompose, solve per block, stitch, and compose.

    The result's coloring passes verification on every block, hence on g, and
    uses exactly ``value`` colors.  When every block value lies in 2..5, the
    value equals ``counting_formula``'s, by algebra.
    """
    if g.order < 2:
        raise ValueError("mvd is defined for graphs of order >= 2")
    if not is_connected(g):
        raise ValueError("mvd is defined for connected graphs")
    dec = decompose(g)
    solved = [solve_block(block, catalog) for block in dec.blocks]
    value = mvd_compose(dec, solved)
    coloring = stitch_colorings(dec, [res.coloring for res in solved])
    if color_count(coloring) != value:
        raise AssertionError("stitched coloring does not use the composed number of colors")
    trail = tuple(res.method for res in solved)
    return MvdResult(value, coloring, "block-composed", block_methods=trail, decomposition=dec)


# Cycles and complete graphs are single blocks that ``solve_block`` solves in
# closed form, and trees consist of trivial blocks, so the block pipeline
# already covers every whole-graph closed form.
solve_auto = mvd_via_blocks
