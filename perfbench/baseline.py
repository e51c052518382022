#!/usr/bin/env python3
"""Rerun, once, the ROADMAP "Recent" reference points that fit under a minute.

    python3 perfbench/baseline.py

Prints each measured time beside the ROADMAP figure and checks each answer.
Single runs, so expect noise of tens of percent.  Left out as too long: the
100-vertex path (83 s) and the order-10 catalog build (122 s).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "data"


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _cli_solve(*extra: str) -> tuple[float, str]:
    argv = [sys.executable, "-m", "mvdcolor", "solve", str(DATA / "example17.txt"), *extra]
    seconds, proc = _timed(lambda: subprocess.run(
        argv, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
    ))
    value = next((ln for ln in proc.stdout.splitlines() if ln.startswith("mvd = ")), "no value")
    return seconds, f"exit {proc.returncode}, {value}"


def main() -> int:
    if not (SRC / "mvdcolor").is_dir():
        print(f"error: no mvdcolor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from mvdcolor.catalog import generate_minimal_blocks_up_to
    from mvdcolor.graph import Graph, default_labels, path_graph
    from mvdcolor.solve import mvd_exact, mvd_via_blocks

    wheel11 = Graph.from_edges(
        default_labels(11), [(0, i) for i in range(1, 11)] + [(i, i % 10 + 1) for i in range(1, 11)]
    )
    rows = []
    seconds, got = _cli_solve("--catalog", str(DATA / "typeset9"))
    rows.append(("solve example17, with data/typeset9 (process)", seconds, 0.125, got, "exit 0, mvd = 3"))
    seconds, got = _cli_solve()
    rows.append(("solve example17, no catalog (process)", seconds, 0.25, got, "exit 0, mvd = 3"))
    seconds, res = _timed(lambda: mvd_via_blocks(path_graph(50)))
    rows.append(("mvd_via_blocks(path_graph(50))", seconds, 2.5, f"mvd = {res.value}", "mvd = 50"))
    seconds, res = _timed(lambda: mvd_exact(wheel11))
    rows.append(("mvd_exact(order-11 wheel)", seconds, 4.5, f"mvd = {res.value}", "mvd = 1"))
    seconds, levels = _timed(lambda: generate_minimal_blocks_up_to(10))
    counts = ", ".join(str(len(levels[n])) for n in sorted(levels))
    rows.append(("census generation to order 10", seconds, 8.2, counts, "1, 1, 2, 3, 6, 12, 28, 68"))

    ok = True
    print(f"{'reference point':48} {'measured':>9} {'ROADMAP':>9}  answer")
    for name, seconds, roadmap, got, expected in rows:
        verdict = "ok" if got == expected else f"WRONG, expected {expected}"
        ok &= got == expected
        print(f"{name:48} {seconds:8.3f}s {roadmap:8.3f}s  {got} ({verdict})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
