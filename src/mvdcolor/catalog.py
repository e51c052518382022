"""The type set: generalized theta graphs, census of minimal blocks, storage.

Minimal blocks (minimally 2-connected graphs) of order 3..12 are generated
by seeding with cycles and closing under ear additions that carry at least
one internal vertex, filtering with ``blocks.is_minimally_two_connected`` at
every order and deduplicating by canonical form.  Every minimal block that
is not a cycle admits an ear decomposition whose ears all keep a degree-2
vertex, so single-ear extensions of smaller minimal blocks reach the whole
class.  Each minimal candidate is labelled once, and a stored block's
automorphisms from that search leave one ear per orbit of vertex pairs to
try; generation returns that labelling beside each block.
``build_catalog`` solves each census block that is a theta (a cycle being
the theta with two threads) in closed form with ``solve.mvd_closed_form``
and every other block with ``mvd_exact``.
Every entry's coloring is certified before it is indexed, whether it comes
through ``Catalog.add`` or from ``build_catalog``: it passes, and it is
optimal (``add`` shows that no coloring has one color more; a built entry is
solved to be made).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .blocks import is_minimally_two_connected
from .graph import Graph, GuardError, cycle_graph, default_labels, format_matrix, parse_matrix
from .iso import Labelling, canonical_labelling
from .solve import _value_exceeds, mvd_closed_form, mvd_exact
from .verify import color_count, is_mvd_coloring

GENERATION_MIN_ORDER = 3
GENERATION_MAX_ORDER = 12
CENSUS_FILE = "census.txt"  # the per-order summary beside the entry files


class CatalogError(ValueError):
    """Corrupt or inconsistent catalog content."""


def theta_graph(spec: Sequence[int]) -> Graph:
    """Two hubs joined by internally disjoint paths with the given internal counts.

    At most one path may have zero internal vertices (that path is a bare
    hub-hub edge; two of them would be a parallel edge), and a single path
    must have at least one.
    """
    ms = tuple(spec)
    if len(ms) < 1:
        raise ValueError("need at least one path")
    if any(m < 0 for m in ms):
        raise ValueError("internal vertex counts must be nonnegative")
    zeros = sum(1 for m in ms if m == 0)
    if len(ms) == 1 and ms[0] == 0:
        raise ValueError("P(0) is a bare edge, not 2-connected")
    if zeros > 1:
        raise ValueError("at most one path may be a bare hub-hub edge")
    n = 2 + sum(ms)
    labels = default_labels(n)
    edges: list[tuple[int, int]] = []
    nxt = 2
    for m in ms:
        prev = 0
        for _ in range(m):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph.from_edges(labels, edges)


def _ear_extensions(g: Graph, internal: int, automorphisms: Sequence[dict[int, int]]) -> Iterable[Graph]:
    """g with one ear of ``internal`` new vertices joining the lex-least
    nonadjacent pair of each orbit of the automorphisms on vertex pairs.

    Other pairs of an orbit give isomorphic graphs.  Adjacent ends never give
    a minimal block: the new graph minus their edge subdivides g, so it stays
    2-connected.
    """
    n = g.order
    labels = default_labels(n + internal)
    base = g.edges()
    seen: set[tuple[int, int]] = set()
    for a, b in itertools.combinations(range(n), 2):
        if (a, b) in seen or g.has_edge(a, b):
            continue
        orbit = [(a, b)]
        for x, y in orbit:  # the list grows while it is read
            images = {tuple(sorted((p.get(x, x), p.get(y, y)))) for p in automorphisms} - seen
            seen |= images
            orbit += images
        path = [a, *range(n, n + internal), b]
        yield Graph.from_edges(labels, base + list(zip(path, path[1:])))


def generate_minimal_blocks_up_to(max_order: int) -> dict[int, list[tuple[Graph, Labelling]]]:
    """Minimal blocks of every order 3..max_order, each beside its canonical
    labelling, each order sorted by canonical form."""
    if not GENERATION_MIN_ORDER <= max_order <= GENERATION_MAX_ORDER:
        raise ValueError(
            f"generation supports orders {GENERATION_MIN_ORDER}..{GENERATION_MAX_ORDER}, got {max_order}"
        )
    orders = range(GENERATION_MIN_ORDER, max_order + 1)
    levels: dict[int, dict[str, tuple[Graph, Labelling]]] = {n: {} for n in orders}
    for n in orders:
        seed = canonical_labelling(cycle_graph(n))
        levels[n][seed.key] = (cycle_graph(n), seed)
        for smaller in range(GENERATION_MIN_ORDER, n):
            for g, labelling in levels[smaller].values():
                for candidate in _ear_extensions(g, n - smaller, labelling.automorphisms):
                    if is_minimally_two_connected(candidate):
                        found = canonical_labelling(candidate)
                        levels[n].setdefault(found.key, (candidate, found))
    return {n: [levels[n][key] for key in sorted(levels[n])] for n in orders}


@dataclass(frozen=True)
class CatalogEntry:
    """A graph with a coloring; ``Catalog.add`` certifies the coloring optimal."""

    id: str
    graph: Graph
    coloring: dict[int, int]

    @property
    def order(self) -> int:
        return self.graph.order

    @property
    def mvd_value(self) -> int:
        """The number of colors the coloring uses, certified as the graph's value."""
        return color_count(self.coloring)


@dataclass
class Catalog:
    """Entries indexed by their canonically relabelled graphs.

    ``add`` is the only public way in: it certifies the entry's coloring
    (``_certify``, by ``is_mvd_coloring``, which refuses a disconnected
    graph), refuses fewer colors than the graph's value, labels the graph
    and indexes it (``_index``), so every coloring passes and is optimal,
    and no two entries are isomorphic.  A passing coloring of k colors
    shows the value is at least k, so it is the value unless a closed form
    says more or one walk at k + 1 finds a passing partition
    (``solve._value_exceeds``); only then is the graph solved, to name its
    value.  ``build_catalog`` solves each entry to make it, so it runs only
    the certify and index steps, indexing with the labelling that census
    generation already computed.
    """

    entries: list[CatalogEntry] = field(default_factory=list)
    _by_canon: dict[tuple, tuple[CatalogEntry, list[int]]] = field(default_factory=dict, repr=False)
    _edge_degree_keys: set[tuple[tuple[int, int], ...]] = field(default_factory=set, repr=False)

    def add(self, entry: CatalogEntry) -> None:
        self._certify(entry)
        g, count = entry.graph, entry.mvd_value
        try:
            closed = mvd_closed_form(g)
            if (closed.value > count) if closed else _value_exceeds(g, count):
                value = (closed or mvd_exact(g)).value
                raise CatalogError(f"entry {entry.id!r} is not optimal: color count {count}, graph's value {value}")
        except GuardError as exc:
            raise CatalogError(f"entry {entry.id!r} cannot be certified optimal: {exc}") from exc
        self._index(entry, canonical_labelling(g))

    @staticmethod
    def _certify(entry: CatalogEntry) -> None:
        """CatalogError unless the entry's id is free to save and its coloring passes."""
        if f"{entry.id}.txt" == CENSUS_FILE:
            raise CatalogError(f"entry id {entry.id!r} would be saved over the census file")
        g = entry.graph
        try:
            witness = is_mvd_coloring(g, entry.coloring).witness
        except ValueError as exc:
            raise CatalogError(f"entry {entry.id!r}: {exc}") from exc
        if witness is not None:
            x, y = witness
            raise CatalogError(
                f"stored coloring fails verification (no monochromatic cut for {g.labels[x]!r},{g.labels[y]!r})"
            )

    def _index(self, entry: CatalogEntry, found: Labelling) -> None:
        """Index a certified entry under ``found``, its graph's canonical labelling."""
        if found.relabelled in self._by_canon:
            raise CatalogError(
                f"entry {entry.id!r} is isomorphic to existing entry {self._by_canon[found.relabelled][0].id!r}"
            )
        self._by_canon[found.relabelled] = (entry, found.order)
        self._edge_degree_keys.add(_edge_degrees(entry.graph))
        self.entries.append(entry)

    def lookup(self, g: Graph) -> Optional[tuple[CatalogEntry, dict[int, int]]]:
        """The entry isomorphic to g and a vertex map onto it, else None; a graph
        whose edges' end degrees no entry shares misses with no canonical search."""
        if _edge_degrees(g) not in self._edge_degree_keys:
            return None
        found = canonical_labelling(g)
        entry, entry_order = self._by_canon.get(found.relabelled, (None, []))
        return None if entry is None else (entry, dict(zip(found.order, entry_order)))

    def entries_of_order(self, n: int) -> list[CatalogEntry]:
        return [e for e in self.entries if e.order == n]

    def __len__(self) -> int:
        return len(self.entries)


def _edge_degrees(g: Graph) -> tuple[tuple[int, int], ...]:
    deg = [len(nb) for nb in g.neighbors]
    return tuple(sorted((min(deg[u], deg[v]), max(deg[u], deg[v])) for u, v in g.edges()))


def build_catalog(max_order: int) -> Catalog:
    """Generate the census up to max_order and solve every entry, in closed
    form where one applies, else with ``mvd_exact``; each entry is
    certified as ``Catalog.add`` does and indexed under the labelling that
    generation found."""
    cat = Catalog()
    generated = generate_minimal_blocks_up_to(max_order)
    for n in range(GENERATION_MIN_ORDER, max_order + 1):
        for i, (g, labelling) in enumerate(generated[n], start=1):
            entry = CatalogEntry(f"graph_{n}Vertex-{i}", g, (mvd_closed_form(g) or mvd_exact(g)).coloring)
            cat._certify(entry)
            cat._index(entry, labelling)
    return cat


def save_catalog(cat: Catalog, directory: str) -> list[str]:
    """One matrix-with-colors file per entry, named after the entry id, then
    the census summary; returns the paths written.  CatalogError, before any
    write, when the directory holds a ``.txt`` file the save would not
    overwrite, since ``load_catalog`` would read it as an entry."""
    os.makedirs(directory, exist_ok=True)
    files = [(f"{e.id}.txt", format_matrix(e.graph, e.coloring)) for e in cat.entries]
    files.append((CENSUS_FILE, census_text(cat)))
    names = {name for name, _ in files}
    stale = sorted(f for f in os.listdir(directory) if f.endswith(".txt") and f not in names)
    if stale:
        raise CatalogError(f"{directory!r} holds {stale[0]!r}, which this catalog would not overwrite")
    written = [os.path.join(directory, name) for name, _ in files]
    for path, (_, text) in zip(written, files):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return written


def load_catalog(directory: str) -> Catalog:
    """Read every entry file but the census and add it; errors name the file.

    Each stored coloring is certified to pass and to use as many colors as
    its graph's value (see ``Catalog``), which is then the entry's value.
    Entries need not be minimal blocks; any graph with an optimal passing
    coloring loads.
    """
    cat = Catalog()
    names = sorted(f for f in os.listdir(directory) if f.endswith(".txt") and f != CENSUS_FILE)
    if not names:
        raise CatalogError(f"no catalog files in {directory!r}")
    for name in names:
        path = os.path.join(directory, name)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            g, coloring = parse_matrix(text)
            if coloring is None:
                raise ValueError("entry carries no coloring")
            cat.add(CatalogEntry(name[: -len(".txt")], g, coloring))
        except ValueError as exc:
            raise CatalogError(f"{name}: {exc}") from exc
    return cat


def census_text(cat: Catalog) -> str:
    """Per-order table: count plus each entry's id and value."""
    orders = sorted({e.order for e in cat.entries})
    out = []
    for n in orders:
        entries = cat.entries_of_order(n)
        out.append(f"order {n}: {len(entries)} graphs")
        for e in entries:
            out.append(f"  {e.id} mvd={e.mvd_value}")
    return "\n".join(out) + "\n"
