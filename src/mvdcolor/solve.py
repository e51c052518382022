"""Computing the disconnection number: exact search, closed forms, blocks.

The exact solver walks the colourings of a class count k as restricted-growth
strings: it colours one vertex at a time, keeps a bitmask per colour class,
and checks each full assignment.  On a 2-connected triangle-free graph it
ascends from k = 2 to floor(n/2), a ceiling every such graph meets (see
``mvd_exact``), and cuts every branch whose classes, grown by the uncoloured
vertices, already fail; the last passing level is the value.  Any other graph
keeps the unpruned descent from the order, where a first success at k proves
the value is k.  A work budget, not an order bound, guards both.
Closed forms cover complete graphs and every theta graph, a cycle being the
theta with two threads; the theta colouring's count is proved optimal (see
``_theta_coloring``).
Block-composed solving, the only path of ``mvdcolor solve``, decomposes the
graph, solves each block by trivial, closed form, catalog lookup or exact
search, stitches the per-block colorings across cut vertices in reverse
decomposition order, and composes the value as ``sum of block values - r + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from . import verify
from .blocks import Block, BlockDecomposition, decompose
from .graph import Graph, GuardError, _bits, is_complete, theta_threads, triangle_free
from .verify import _is_total, _require_total, color_count, pair_rows, partition_passes

if TYPE_CHECKING:
    from .catalog import Catalog

MAX_WALK_STEPS = 12 * 10**6  # per mvd_exact call, n per walk node; W11 takes 10,963,524


@dataclass(frozen=True)
class MvdResult:
    """A value, a certified coloring, and how it was obtained.

    ``method`` is ``exact``, ``closed-form`` or ``block-composed`` on
    top-level results; ``solve_block``'s results carry the trail entry
    instead (``trivial``, ``catalog:<id>``, ``closed-form`` or ``exact``).
    ``block_methods`` carries the per-block trail when the block pipeline
    produced the result, in the order of ``decompose(g).blocks``.  The
    coloring is a dict, except on the one result ``solve_block`` shares among
    all trivial blocks, whose coloring is read-only.
    """

    value: int
    coloring: Mapping[int, int]
    method: str
    block_methods: tuple[str, ...] = field(default=(), compare=False)


def _walk(
    g: Graph, rows: Sequence[tuple[int, int]], memo: dict[int, list[int]], k: int, check_from: int, nodes_left: int
) -> tuple[Optional[list[int]], int]:
    """The first partition of g into exactly k classes, in restricted-growth
    order, that passes, as class bitmasks (None when none does), and the
    rest of the ``nodes_left`` nodes it may enter before ``GuardError``.

    From vertex ``check_from`` on, a branch is cut when the open classes,
    each grown by every vertex still uncoloured, fail the pass test.  That
    is sound: a class only grows, so its final content lies inside that
    union, and a superset of a separating class still separates (see
    ``mvd_exact``).  So a cut branch holds no passing leaf, and the walk
    returns the same first leaf as an unpruned one.  The grown views share
    the leaf memo.  ``check_from`` = n checks leaves only.
    """
    n, full = g.order, g.full_mask()
    masks, v = [1] + [0] * (k - 1), 1  # vertex 0 opens class 1; the walk enters vertex 1 first
    held = [0] + [-1] * n  # each vertex's class, -1 before its first; held[n] stays -1
    opened = [1] * (n + 1)  # the classes open before each vertex
    while v:
        used, c = opened[v], held[v]
        if c < 0:  # enter v's node
            if (nodes_left := nodes_left - 1) < 0:
                raise GuardError(f"block {{{', '.join(sorted(g.labels)[:3])}, ...}} has order {n}: "
                                 f"exact search passed the guard's budget of {MAX_WALK_STEPS} steps")
            if v == n:
                if partition_passes(g, masks, rows, memo):
                    return masks, nodes_left
                c = k  # no class left to try: back up
            elif v >= check_from and not partition_passes(g, [m | full >> v << v for m in masks[:used]], rows, memo):
                c = k
            else:  # once the unopened classes need every vertex left, v must open one
                c = used if n - v == k - used else 0
        else:  # v's branch is walked: try its next class
            masks[c] ^= 1 << v
            c += 1
        if c > used or c == k:
            held[v] = -1
            v -= 1
        else:
            masks[c] |= 1 << v
            held[v] = c
            opened[v + 1] = used + (c == used)
            v += 1
    return None, nodes_left


def mvd_exact(g: Graph) -> MvdResult:
    """Maximum class count over all passing partitions, by restricted-growth walks.

    For a class count k, one walk colours the vertices in turn in
    restricted-growth order (classes numbered by first appearance, exactly k
    of them, lexicographic), keeps one bitmask per class, and checks each
    full assignment.  Each node a walk enters costs n steps, as its pass test
    is O(n); past ``MAX_WALK_STEPS`` per call it raises ``GuardError``.  One
    ``decompose`` call decides connectivity: it refuses a disconnected input,
    and a connected input of order >= 3 is 2-connected iff it is one block.

    On a 2-connected triangle-free input of order >= 4 the search ascends:
    k = 2, 3, ... up to floor(n/2), stopping at the first level that fails,
    and the last passing level is the value.  Those walks prune from the
    fourth vertex on (see ``_walk``).  The ceiling is valid: such a graph is
    not complete, so it has a nonadjacent pair x, y, and by Menger two
    internally disjoint x-y paths.  In a passing partition some class minus
    {x, y} separates x and y, so it holds an inner vertex of each path: two
    vertices.  Every class has at least 2 vertices: a vertex v has two
    neighbours, nonadjacent as the graph is triangle-free, every cut between
    them contains v, so v's class holds a cut, and a cut of a 2-connected
    graph has at least 2 vertices.  So 2k <= n.  It covers every minimal
    block of order >= 4, all of which are triangle-free.  Every other input
    keeps the unpruned descent from n, where the one partition is all
    singletons (so a complete graph gets n distinct colours), and a first
    pass at k proves the value is k.  Pruning it would be as exact; it waits
    because ``perfbench/run.py`` keeps every op's output, so faster
    ``solve`` ops raise that workload's peak memory (ROADMAP item 1).  Both
    searches return the first passing leaf of the same walk at k = value, so
    they give the same coloring.

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
    try:
        dec = decompose(g)
    except ValueError:  # g has order >= 2, so it is not connected
        raise ValueError("mvd is defined for connected graphs") from None
    rows, full, nodes_left = pair_rows(g), g.full_mask(), MAX_WALK_STEPS // n
    memo: dict[int, list[int]] = {}
    if n >= 4 and dec.r == 1 and triangle_free(g):
        found = [full]  # the single class always passes
        for k in range(2, n // 2 + 1):
            masks, nodes_left = _walk(g, rows, memo, k, 3, nodes_left)
            if masks is None:
                break
            found = masks
    else:
        for k in range(n, 0, -1):
            found, nodes_left = _walk(g, rows, memo, k, n, nodes_left)
            if found is not None:  # k = 1 always does
                break
    return MvdResult(len(found), {v: c + 1 for c, mask in enumerate(found) for v in _bits(mask)}, "exact")


def _value_exceeds(g: Graph, k: int) -> bool:
    """Whether mvd(g) > k, for a connected g of order >= 2 and k >= 1: by
    coarsening monotonicity (see ``mvd_exact``), whether some partition into
    k + 1 classes passes.  One walk at k + 1 answers it, pruned from the
    fourth vertex as the ascent is, under ``mvd_exact``'s budget."""
    n = g.order
    if k >= n:
        return False
    masks, _ = _walk(g, pair_rows(g), {}, k + 1, 3, MAX_WALK_STEPS // n)
    return masks is not None


def _theta_coloring(threads: Sequence[Sequence[int]]) -> dict[int, int]:
    """A passing coloring of the theta graph with these k >= 2 threads (walks
    from hub a to hub b, each with an inner vertex); k = 2 is a cycle.

    Both hubs get color 1.  Each thread's inner vertices t_1..t_m get a
    fresh color per mirrored pair t_j, t_(m+1-j) around its centre: one
    vertex of color 2 when m is odd, a pair colored (2, 1) when m is even, or
    (2, 3) when every m is even.  That is 2 + [every m even] +
    sum floor((m - 1)/2) colors.  It passes: the hubs' class separates
    vertices on different threads, class 2 meets every thread, so it
    separates the hubs and any pair split by a centre, a mirrored pair cuts
    off the stretch between its ends, and the class of a second centre,
    with the hubs or on every thread, separates its two neighbours.

    The count F = 2 + [every m even] + sum floor((m - 1)/2) is mvd(theta),
    so the coloring is optimal.  The coloring gives mvd >= F.  For mvd <= F,
    take a passing coloring of the theta with c colors.

    1. Restriction.  If C - {x, y} separates x and y in G, then
       (C n V(H)) - {x, y} separates them in every induced subgraph H that
       holds x and y.  So a passing coloring restricted to a connected
       induced subgraph H still passes, with one color per class that
       meets H, and at most mvd(H) classes meet H.
    2. Every class has >= 2 vertices.  A vertex's neighbours are pairwise
       nonadjacent, as the theta is triangle-free, and every cut between
       two of them contains the vertex.  So its class holds a cut, and a
       cut of the 2-connected theta has >= 2 vertices.
    3. The a-b class meets every thread.  The class that separates the
       nonadjacent hubs a and b has an inner vertex on every thread.

    Base, k = 2.  The theta is the cycle C_n, so (2) gives c <= floor(n/2),
    which is F whatever the split into threads with m_1 + m_2 = n - 2 inner
    vertices.  Both m_i odd: 2 + (m_1 - 1)/2 + (m_2 - 1)/2 = 2 + (n - 4)/2.
    One odd, so n odd: 2 + (m_odd - 1)/2 + (m_even - 2)/2 = 2 + (n - 5)/2.
    Both even: 3 + (m_1 - 2)/2 + (m_2 - 2)/2 = 3 + (n - 6)/2.

    Step, k >= 3.  Remove the inner vertices of one thread j, with m_j even
    if some m is even; what is left is the theta of the other k - 1
    threads, a connected induced subgraph.  By (1) and induction, at most
    F' classes meet it, F' being the count over the other threads.  Every
    other class lies inside thread j, has >= 2 vertices by (2), and misses
    the a-b class's vertex on thread j by (3), so there are at most
    floor((m_j - 1)/2) of them.  The choice of j makes [every other m even]
    = [every m even], so c <= F' + floor((m_j - 1)/2) = F.
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
    """Known families: complete graphs and theta graphs; else None.

    A theta graph (see ``graph.theta_threads``) has k >= 2 threads, each with
    an inner vertex, between nonadjacent hubs; a cycle of order >= 4 is the
    theta with two threads.  It gets ``_theta_coloring``, whose color count
    is its value (proof there): 750 on P(500,500,500), 2 on P(2,2,1).  Only
    connected graphs pass either test, so connectivity is not tested apart.
    """
    n = g.order
    if n < 2:
        return None
    if is_complete(g):
        return MvdResult(n, {v: v + 1 for v in range(n)}, "closed-form")
    threads = theta_threads(g)
    if threads is None:
        return None
    coloring = _theta_coloring(threads)
    return MvdResult(color_count(coloring), coloring, "closed-form")


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
    first meets the colored part at exactly one vertex, a cut vertex (see
    ``BlockDecomposition``).  Each block keeps its class structure up to
    renaming; the class of that shared vertex is renamed to the vertex's
    fixed global color and every other class receives a fresh color,
    allocated consecutively in processing order.  The result uses exactly (sum
    of per-block color counts) - r + 1 colors.  Each nontrivial block is
    checked once, on the restriction of the stitched coloring, by the block
    loop ``is_mvd_coloring`` runs (``verify.block_failures``); that catches a
    bad block coloring and a stitching fault alike, and the first failing
    block is named with its least failing pair.  By the block lemma (see
    ``verify``) the whole graph then passes.  A trivial block, a K2, has no
    nonadjacent pair, so only its local coloring's totality is checked, from
    its vertices: stitching reads a block's graph only to check a nontrivial
    block.
    """
    if len(per_block) != dec.r:
        raise ValueError(f"expected {dec.r} block colorings, got {len(per_block)}")
    global_coloring: dict[int, int] = {}
    next_color = 1
    for block, local in zip(reversed(dec.blocks), reversed(per_block)):
        if not _is_total(len(block.vertices), local):  # block.labels is built only to word the error
            _require_total(block.labels, local)
        rename = {local[i]: global_coloring[v] for i, v in enumerate(block.vertices) if v in global_coloring}
        for c in sorted(set(local.values())):
            if c not in rename:
                rename[c] = next_color
                next_color += 1
        for local_v, parent_v in enumerate(block.vertices):
            global_coloring[parent_v] = rename[local[local_v]]
    for block, (x, y) in verify.block_failures(dec, global_coloring):
        labels = block.labels
        raise ValueError(
            "block coloring fails verification on block "
            f"{{{', '.join(sorted(labels))}}}: "
            f"no monochromatic cut for {labels[x]!r},{labels[y]!r}"
        )
    return global_coloring


_BRIDGE = MvdResult(2, MappingProxyType({0: 1, 1: 2}), "trivial")


def solve_block(block: Block, catalog: Optional[Catalog]) -> MvdResult:
    """Solve one block by its cheapest certified answer: trivial, the O(n)
    closed form, catalog lookup (a canonical search), then exact search.

    The result's ``method`` is the block's trail entry: ``trivial``,
    ``closed-form``, ``catalog:<id>`` naming the matched entry, or ``exact``.
    A trivial block is answered before its graph is read, so none is built,
    and every trivial block shares one result, whose coloring is read-only.
    """
    if block.trivial:
        return _BRIDGE
    bg = block.graph
    closed = mvd_closed_form(bg)
    if closed is not None:
        return closed
    if catalog is not None:
        hit = catalog.lookup(bg)
        if hit is not None:
            entry, mapping = hit  # pull the entry's coloring back onto the block
            return MvdResult(entry.mvd_value, {v: entry.coloring[w] for v, w in mapping.items()}, f"catalog:{entry.id}")
    return mvd_exact(bg)


def mvd_via_blocks(g: Graph, catalog: Optional[Catalog] = None) -> MvdResult:
    """Decompose, solve per block, stitch, and compose.

    The result's coloring passes verification on every block, hence on g, and
    uses exactly ``value`` colors.  When every block value lies in 2..5, the
    value equals ``counting_formula``'s, by algebra.
    """
    if g.order < 2:
        raise ValueError("mvd is defined for graphs of order >= 2")
    try:
        dec = decompose(g)
    except ValueError:  # g has order >= 2, so it is not connected
        raise ValueError("mvd is defined for connected graphs") from None
    solved = [solve_block(block, catalog) for block in dec.blocks]
    value = mvd_compose(dec, solved)
    coloring = stitch_colorings(dec, [res.coloring for res in solved])
    if color_count(coloring) != value:
        raise AssertionError("stitched coloring does not use the composed number of colors")
    trail = tuple(res.method for res in solved)
    return MvdResult(value, coloring, "block-composed", block_methods=trail)


# Thetas, cycles among them, and complete graphs are single blocks that
# ``solve_block`` solves in closed form, and trees consist of trivial blocks,
# so the block pipeline already covers every whole-graph closed form.
solve_auto = mvd_via_blocks
