"""The reference loop that op times are measured in.

On a shared host the speed of one process changes by up to half from one
moment to the next, and slow spells can last minutes: the same op then takes
up to 1.45 times as long, so op times in seconds move with the host rather
than with the program.  The benchmark therefore times a fixed piece of pure
Python work just before and just after every op and reports the op's time
as a multiple of the mean of those two reference times.  The program is pure
Python too and slows down by the same factor, so the quotient stays put.

The reference work is breadth-first search over a fixed sparse graph with
dict and set operations on small integers, the kind of work the program does.
It is not part of the program, so no change to the program changes it.
"""

from __future__ import annotations

import time

_ORDER = 96
_ADJACENCY = {
    v: frozenset({(v + 1) % _ORDER, (v * 7 + 3) % _ORDER, (v * 13 + 5) % _ORDER} - {v})
    for v in range(_ORDER)
}
_SOURCES = 48


def _reference_work() -> int:
    reached = 0
    for source in range(_SOURCES):
        seen = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for w in _ADJACENCY[u]:
                    if w not in seen:
                        seen[w] = seen[u] + 1
                        nxt.append(w)
            frontier = nxt
        reached += sum(seen.values())
    return reached


_EXPECTED = _reference_work()


def reference_seconds() -> float:
    """Wall time of one run of the reference work (about 2 ms on one vCPU of a Xeon VM)."""
    t0 = time.perf_counter()
    result = _reference_work()
    elapsed = time.perf_counter() - t0
    if result != _EXPECTED:
        raise RuntimeError("reference work gave a different result")
    return elapsed
