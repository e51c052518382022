"""Independent answer checks, run outside the timed region.

An answer passes when its coloring names every vertex with a positive color,
uses exactly the reported number of colors, matches the value known by
construction (where one is known), and passes the subset oracle of
``tests/oracles.py`` on every block the graph was glued from.  By the block
lemma that covers pairs in different blocks too: a cut vertex separates them
and a single vertex is a monochromatic cut.  Whether a random exact block's
value is optimal stays the test suite's job.
"""

from __future__ import annotations

import os
from typing import Mapping, Optional, Sequence

from workloads import Block, Edges, Item, census_values, labels, load_census, read_catalog_file


class Checker:
    """Memoizes oracle verdicts per template graph and block coloring.

    Colors are renumbered by first appearance along the template's vertex
    order, so repeated blocks are checked once.
    """

    def __init__(self) -> None:
        from mvdcolor.graph import Graph
        from oracles import oracle_is_mvd

        self._graph_cls = Graph
        self._oracle = oracle_is_mvd
        self._verdicts: dict[tuple[int, Edges, tuple[int, ...]], bool] = {}

    def coloring_ok(self, order: int, edges: Edges, local: Sequence[int]) -> bool:
        rename: dict[int, int] = {}
        canon = tuple(rename.setdefault(c, len(rename) + 1) for c in local)
        key = (order, edges, canon)
        verdict = self._verdicts.get(key)
        if verdict is None:
            g = self._graph_cls.from_edges(labels(order), edges)
            verdict = self._verdicts[key] = self._oracle(g, dict(enumerate(canon)))
        return verdict

    def block_ok(self, block: Block, coloring: Sequence[int]) -> bool:
        return self.coloring_ok(block.order, block.edges, [coloring[v] for v in block.vertices])

    def answer(self, item: Item, value: int, by_label: Mapping[str, int]) -> Optional[str]:
        """None when the answer is correct, else the reason it is not."""
        names = labels(item.order)
        if sorted(by_label) != sorted(names):
            return "coloring does not name exactly the graph's vertices"
        coloring = [by_label[name] for name in names]
        if any(not isinstance(c, int) or c < 1 for c in coloring):
            return "colors must be positive integers"
        if len(set(coloring)) != value:
            return f"coloring uses {len(set(coloring))} colors, reported value is {value}"
        if item.value is not None and value != item.value:
            return f"value {value}, expected {item.value}"
        for block in item.blocks:
            if not self.block_ok(block, coloring):
                return f"coloring fails the oracle on block {block.key}"
        return None

    def catalog(self, directory: str, max_order: int) -> Optional[str]:
        """None when a catalog directory holds the census up to ``max_order``, else why not.

        Checks the count and the values per order (1, 1, 2, 3, 6, 12, 28
        blocks for orders 3..9) and every stored coloring.
        """
        names = sorted(f for f in os.listdir(directory) if f.endswith(".txt") and f != "census.txt")
        entries = [read_catalog_file(os.path.join(directory, f)) for f in names]
        expected = census_values([t for t in load_census() if t.order <= max_order])
        got: dict[int, str] = {}
        for e in sorted(entries, key=lambda e: (e.order, e.value)):
            got[e.order] = got.get(e.order, "") + str(e.value)
        if got != expected:
            return f"per-order entry values {got}, expected {expected}"
        for e in entries:
            if not self.coloring_ok(e.order, e.edges, e.coloring):
                return f"{e.name}: stored coloring fails the oracle"
        return None
