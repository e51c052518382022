"""Upper bounds and the large-value classification of gated graphs.

A graph is *gated* when every nontrivial block is minimally 2-connected and
triangle-free.  For gated graphs the classification names the structural
family behind each large value regime; the regime itself always comes from
the solver, and structural recognition is a cross-check, never the source of
truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .blocks import BlockDecomposition, decompose, is_minimally_two_connected
from .catalog import Catalog
from .graph import Graph, induced_subgraph, theta_threads, triangle_free
from .iso import canonical_labelling
from .solve import mvd_via_blocks


class GateError(ValueError):
    """A nontrivial block falls outside the gated class."""

    def __init__(self, message: str, block_labels: tuple[str, ...]):
        super().__init__(message)
        self.block_labels = block_labels


@dataclass(frozen=True)
class BoundReport:
    kind: str  # "half-order" | "block-formula"
    applicable: bool
    reason: str
    value: Optional[int]


@dataclass(frozen=True)
class ClassificationResult:
    gate: bool
    order: int
    mvd: int
    regime: str  # "n", "n-2", ..., "n-5", or "other"
    family: str  # tree | unicyclic-C4 | class-A | class-B | class-C | unclassified
    core: Optional[Graph]
    core_key: Optional[str]


def bound_half_order(g: Graph) -> BoundReport:
    """floor(n/2) upper bound; applies to minimally 2-connected graphs, n >= 4."""
    n = g.order
    if n < 4:
        return BoundReport("half-order", False, f"order {n} < 4", None)
    if not is_minimally_two_connected(g):
        return BoundReport("half-order", False, "not minimally 2-connected", None)
    return BoundReport("half-order", True, "minimally 2-connected, order >= 4", n // 2)


def _gate(dec: BlockDecomposition) -> Optional[tuple[str, ...]]:
    """Labels of the first nontrivial block outside the gated class, or None."""
    for block in dec.blocks:
        if block.trivial:
            continue
        if not is_minimally_two_connected(block.graph) or not triangle_free(block.graph):
            return tuple(sorted(block.labels))
    return None


def bound_blocks(g: Graph) -> BoundReport:
    """floor((n + 2t - r + 1)/2) bound from the block counts r and t."""
    try:
        dec = decompose(g)
    except ValueError:  # the search refuses order < 2 and disconnected graphs
        return BoundReport("block-formula", False, "needs a connected graph of order >= 2", None)
    offending = _gate(dec)
    if offending is not None:
        return BoundReport(
            "block-formula",
            False,
            f"nontrivial block {{{', '.join(offending)}}} is not a minimal triangle-free block",
            None,
        )
    value = (g.order + 2 * dec.t - dec.r + 1) // 2
    return BoundReport("block-formula", True, f"r={dec.r}, t={dec.t}", value)


# the largest core whose key is printed: a key has n(n-1)/2 characters
CANONICAL_MAX_ORDER = 12

# n - mvd of the minimal blocks of deficit <= 4, keyed by their sorted thread
# inner-vertex counts: C4; C5, C6, K2,3; C7, C8, P(3,1,1), P(2,1,1), P(1,1,1,1)
_DEFICIT = {
    (1, 1): 2,
    (1, 2): 3, (1, 3): 3, (1, 1, 1): 3,
    (1, 4): 4, (1, 5): 4, (1, 1, 3): 4, (1, 1, 2): 4, (1, 1, 1, 1): 4,
}
# the family of the graphs with a small n - mvd
_FAMILY = {0: "tree", 2: "unicyclic-C4", 3: "class-A", 4: "class-B", 5: "class-C"}


def nontrivial_core(g: Graph) -> Optional[Graph]:
    """Subgraph induced by the union of all nontrivial blocks, None for trees."""
    vertices = sorted({v for b in decompose(g).blocks if not b.trivial for v in b.vertices})
    if not vertices:
        return None
    return induced_subgraph(g, vertices)


def classify(g: Graph, catalog: Optional[Catalog] = None) -> ClassificationResult:
    """Regime (n - mvd when small) and family of a gated graph.

    Refuses ungated inputs.  The family is read off the solver's n - mvd
    (``_FAMILY``).  n - mvd is the sum of the blocks' own n - mvd, as block
    orders and values compose alike, so when every nontrivial block's thread
    key is in ``_DEFICIT`` their deficits are asserted to sum to it: a
    cross-check of the solver, never the source of truth.  The n-1 regime is
    impossible for gated graphs and is asserted never to appear.  Families
    for the n-5 regime have no text-recoverable member list, so that regime
    reports family class-C with the computed core.
    """
    try:
        dec = decompose(g)
    except ValueError:  # the search refuses order < 2 and disconnected graphs
        raise ValueError("classification needs a connected graph of order >= 2") from None
    offending = _gate(dec)
    if offending is not None:
        raise GateError(
            f"nontrivial block {{{', '.join(offending)}}} is not a minimal triangle-free block",
            offending,
        )
    n = g.order
    value = mvd_via_blocks(g, catalog).value
    code = n - value
    if code == 1:
        raise AssertionError("gated graph with value n-1: contradicts the classification theorem")
    regime = "n" if code == 0 else (f"n-{code}" if code <= 5 else "other")
    threads = [theta_threads(b.graph) for b in dec.blocks if not b.trivial]
    deficits = [_DEFICIT.get(tuple(sorted(len(t) - 2 for t in ts))) if ts else None for ts in threads]
    if None not in deficits and sum(deficits) != code:
        raise AssertionError(f"block deficits {deficits} sum to n-{sum(deficits)}, solver says n-{code}")
    family = _FAMILY.get(code, "unclassified")
    core = nontrivial_core(g)
    core_key = canonical_labelling(core).key if core is not None and core.order <= CANONICAL_MAX_ORDER else None
    return ClassificationResult(True, n, value, regime, family, core, core_key)

