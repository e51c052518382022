"""Monochromatic vertex-disconnection numbers of undirected graphs.

A vertex cut is monochromatic when all its vertices share one color; a
coloring passes when every nonadjacent pair has a monochromatic cut
separating it.  The library computes the maximum number of colors any passing
coloring can use, produces a certified coloring, and verifies certificates
independently.
"""

from .analysis import (
    BoundReport,
    ClassificationResult,
    GateError,
    bound_blocks,
    bound_half_order,
    classify,
)
from .blocks import Block, BlockDecomposition, decompose, is_minimally_two_connected
from .catalog import (
    Catalog,
    CatalogEntry,
    CatalogError,
    build_catalog,
    load_catalog,
    save_catalog,
    theta_graph,
)
from .graph import (
    Graph,
    GraphFormatError,
    GuardError,
    complete_graph,
    cycle_graph,
    format_matrix,
    induced_subgraph,
    load_graph,
    parse_matrix,
    path_graph,
    to_dot,
    triangle_free,
)
from .solve import (
    MvdResult,
    counting_formula,
    mvd_compose,
    mvd_closed_form,
    mvd_exact,
    mvd_via_blocks,
    stitch_colorings,
)
from .verify import MvdVerdict, is_mvd_coloring, monochromatic_cut_exists

__all__ = [
    "Block",
    "BlockDecomposition",
    "BoundReport",
    "Catalog",
    "CatalogEntry",
    "CatalogError",
    "ClassificationResult",
    "GateError",
    "Graph",
    "GraphFormatError",
    "GuardError",
    "MvdResult",
    "MvdVerdict",
    "bound_blocks",
    "bound_half_order",
    "build_catalog",
    "classify",
    "complete_graph",
    "counting_formula",
    "cycle_graph",
    "decompose",
    "format_matrix",
    "induced_subgraph",
    "is_minimally_two_connected",
    "is_mvd_coloring",
    "load_catalog",
    "load_graph",
    "monochromatic_cut_exists",
    "mvd_closed_form",
    "mvd_compose",
    "mvd_exact",
    "mvd_via_blocks",
    "parse_matrix",
    "path_graph",
    "save_catalog",
    "stitch_colorings",
    "theta_graph",
    "to_dot",
    "triangle_free",
]

__version__ = "0.1.0"
