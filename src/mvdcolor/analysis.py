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
from .graph import Graph, cycle_order, induced_subgraph, is_connected, theta_threads, triangle_free
from .iso import CANONICAL_MAX_ORDER, canonical_form
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
            return tuple(sorted(block.graph.labels))
    return None


def bound_blocks(g: Graph) -> BoundReport:
    """floor((n + 2t - r + 1)/2) bound from the block counts r and t."""
    if not is_connected(g) or g.order < 2:
        return BoundReport("block-formula", False, "needs a connected graph of order >= 2", None)
    dec = decompose(g)
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


# the n-3 and n-4 family cores by block shape (see _shape)
_C4 = 4
_CLASS_A = {5, 6, (1, 1, 1)}  # C5, C6, K2,3
_CLASS_B = {7, 8, (1, 1, 3), (1, 1, 2), (1, 1, 1, 1)}  # C7, C8, P(3,1,1), P(2,1,1), P(1,1,1,1)


def _shape(g: Graph) -> Optional[int | tuple[int, ...]]:
    """A cycle's order, a theta's sorted thread inner-vertex counts, else None."""
    walk = cycle_order(g)
    if walk is not None:
        return len(walk)
    threads = theta_threads(g)
    return None if threads is None else tuple(sorted(len(t) - 2 for t in threads))


def nontrivial_core(g: Graph, dec: Optional[BlockDecomposition] = None) -> Optional[Graph]:
    """Subgraph induced by the union of all nontrivial blocks, None for trees."""
    if dec is None:
        dec = decompose(g)
    vertices = sorted({v for b in dec.blocks if not b.trivial for v in b.vertices})
    if not vertices:
        return None
    return induced_subgraph(g, vertices)


def _structural_family(dec: BlockDecomposition) -> Optional[str]:
    shapes = [_shape(b.graph) for b in dec.blocks if not b.trivial]
    if not shapes:
        return "tree"
    if len(shapes) == 1:
        shape = shapes[0]
        if shape == _C4:
            return "unicyclic-C4"
        if shape in _CLASS_A:
            return "class-A"
        if shape in _CLASS_B:
            return "class-B"
        return None
    if len(shapes) == 2 and all(shape == _C4 for shape in shapes):
        return "class-B"
    return None


_REGIME_OF_FAMILY = {
    "tree": "n",
    "unicyclic-C4": "n-2",
    "class-A": "n-3",
    "class-B": "n-4",
}


def classify(g: Graph, catalog: Optional[Catalog] = None) -> ClassificationResult:
    """Regime (n - mvd when small) and family of a gated graph.

    Refuses ungated inputs.  The n-1 regime is impossible for gated graphs
    and is asserted never to appear.  Families for the n-5 regime have no
    text-recoverable member list, so that regime reports family class-C with
    the computed core.
    """
    if g.order < 2 or not is_connected(g):
        raise ValueError("classification needs a connected graph of order >= 2")
    dec = decompose(g)
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
    family = _structural_family(dec)
    if family is not None:
        expected = _REGIME_OF_FAMILY[family]
        if regime != expected:
            raise AssertionError(
                f"structural family {family} implies regime {expected}, solver says {regime}"
            )
    elif regime == "n-5":
        family = "class-C"
    else:
        family = "unclassified"
    core = nontrivial_core(g, dec)
    core_key = canonical_form(core) if core is not None and core.order <= CANONICAL_MAX_ORDER else None
    return ClassificationResult(True, n, value, regime, family, core, core_key)

