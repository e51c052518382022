#!/usr/bin/env python3
"""Run the bundled 17-vertex example through the whole pipeline.

Decomposes the graph, matches both blocks against the bundled 9-vertex type
set, stitches a 3-color result, and re-verifies it.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from mvdcolor.blocks import decompose
from mvdcolor.catalog import load_catalog
from mvdcolor.graph import load_graph
from mvdcolor.solve import mvd_via_blocks
from mvdcolor.verify import is_mvd_coloring

DATA = Path(__file__).parent.parent / "data"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graph", default=str(DATA / "example17.txt"))
    parser.add_argument("--catalog", default=str(DATA / "typeset9"))
    args = parser.parse_args()

    g, _ = load_graph(args.graph)
    print(f"input: n={g.order} m={g.size}")

    dec = decompose(g)
    cuts = sorted(g.labels[v] for v in dec.cut_vertices)
    print(f"cut vertices: {', '.join(cuts) if cuts else '(none)'}")
    for i, block in enumerate(dec.blocks, start=1):
        print(f"block {i}: {', '.join(sorted(block.graph.labels))}")

    catalog = load_catalog(args.catalog)
    print(f"type set: {len(catalog)} entries")

    result = mvd_via_blocks(g, catalog)
    print(f"mvd = {result.value}  (methods: {', '.join(result.block_methods)})")
    for i, block in enumerate(dec.blocks, start=1):
        k = len({result.coloring[v] for v in block.vertices})
        print(f"block {i} restriction uses {k} colors")

    verdict = is_mvd_coloring(g, result.coloring)
    print(f"verification: {'PASS' if verdict.ok else 'FAIL'}")
    print("coloring:")
    for v in sorted(range(g.order), key=lambda v: g.labels[v]):
        print(f"  {g.labels[v]}:{result.coloring[v]}")


if __name__ == "__main__":
    main()
