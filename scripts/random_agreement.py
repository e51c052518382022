#!/usr/bin/env python3
"""Stress the composition identity: blockwise value vs whole-graph exact search.

Samples, in turn, random connected graphs, random cacti of cycles C3..C7
and bridges, whose cycle blocks the blockwise solver colors in closed form,
and random thetas P(m_1..m_k) with k >= 3 threads, which it also colors in
closed form; every other theta has two or more threads with an even number
of inner vertices, where the value mostly falls below the k-path bound of
the hubs.  Solves each sample both ways and reports any disagreement
(there should be none).  Every fourth sample is instead a random glued
graph of census blocks, solved blockwise with and without the catalog of
the census to order min(max order, 9), whose lookups answer the blocks
that no closed form does.  A sample that passes a search budget (a
``GuardError``) is counted as guarded, neither a disagreement nor a crash.
Exits 1 when a sample disagrees, so a job that runs it fails.
"""

from __future__ import annotations

import argparse
import random
import time

from mvdcolor.catalog import build_catalog, theta_graph
from mvdcolor.graph import Graph, GuardError
from mvdcolor.solve import mvd_exact, mvd_via_blocks
from mvdcolor.verify import is_mvd_coloring

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))
from builders import attach_blocks, random_cactus, random_connected_graph  # noqa: E402


def random_small_cactus(rng: random.Random, max_order: int) -> Graph:
    """A random cactus of one to three blocks, redrawn until its order is at most max_order."""
    while True:
        g = random_cactus(rng, rng.randint(1, 3), even_only=False)
        if g.order <= max_order:
            return g


def random_theta(rng: random.Random, max_order: int, even_threads: bool) -> Graph:
    """A random theta with k >= 3 threads and order at most max_order (>= 5),
    redrawn until two or more threads are even when ``even_threads`` is set
    (possible from order 7 on)."""
    while True:
        k = rng.randint(3, max_order - 2)
        spec = [rng.randint(1, max_order - 1 - k) for _ in range(k)]
        if 2 + sum(spec) <= max_order and (not even_threads or sum(m % 2 == 0 for m in spec) >= 2):
            return theta_graph(spec)


def random_glued(rng: random.Random, census: list[Graph], max_order: int) -> Graph:
    """One to three census blocks glued at cut vertices, redrawn until the
    order is at most max_order."""
    while True:
        g = attach_blocks(rng, census, rng.randint(1, 3))
        if g.order <= max_order:
            return g


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--max-order", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    t0 = time.time()
    catalog = build_catalog(min(args.max_order, 9)) if args.max_order >= 3 else None
    disagreements = guarded = 0
    for trial in range(args.samples):
        glued = trial % 4 == 3 and catalog is not None
        if glued:
            g = random_glued(rng, [entry.graph for entry in catalog.entries], args.max_order)
        elif trial % 3 == 1:
            g = random_small_cactus(rng, args.max_order)
        elif trial % 3 == 2 and args.max_order >= 5:
            g = random_theta(rng, args.max_order, even_threads=trial % 6 == 5 and args.max_order >= 7)
        else:
            g = random_connected_graph(rng, rng.randint(2, args.max_order))
        try:
            if glued:
                a, b, names = mvd_via_blocks(g, catalog), mvd_via_blocks(g), ("catalog", "no-catalog")
            else:
                a, b, names = mvd_via_blocks(g), mvd_exact(g), ("blockwise", "exact")
        except GuardError:
            guarded += 1
            continue
        ok_a = is_mvd_coloring(g, a.coloring).ok
        ok_b = is_mvd_coloring(g, b.coloring).ok
        if a.value != b.value or not ok_a or not ok_b:
            disagreements += 1
            print(f"DISAGREE n={g.order} {names[0]}={a.value} {names[1]}={b.value} edges={g.edges()}")
    print(
        f"{args.samples} samples, {disagreements} disagreements, {guarded} guarded, "
        f"{time.time() - t0:.1f}s"
    )
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
