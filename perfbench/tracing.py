"""Per-layer tracing from outside the program: wrappers on public functions.

``Tracer.install`` replaces each traced function in every ``mvdcolor``
module that binds it (``is_mvd_coloring`` is imported by ``solve``,
``catalog`` and ``cli``, for example) and patches ``Catalog.lookup`` on the
class.  Spans (name, start, end, parent, op id) stay in memory until the run
writes them out.  A layer's self time is its span durations minus the time
its child spans cover.  Hot inner calls (``separates``, partitions) are
counted, not spanned.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from typing import Any, Callable

# (module, function) pairs recorded as spans; metric prefix is "module.function".
SPANNED = (
    ("graph", "load_graph"),
    ("blocks", "decompose"),
    ("verify", "is_mvd_coloring"),
    ("solve", "mvd_exact"),
    ("solve", "mvd_closed_form"),
    ("solve", "stitch_colorings"),
    ("solve", "mvd_via_blocks"),
    ("catalog", "is_minimally_two_connected"),
    ("catalog", "generate_minimal_blocks_up_to"),
    ("catalog", "build_catalog"),
    ("catalog", "save_catalog"),
    ("catalog", "load_catalog"),
    ("iso", "canonical_form"),
    ("iso", "find_isomorphism"),
    ("cli", "main"),
)

CALLS = (
    "graph.load_graph",
    "blocks.decompose",
    "verify.is_mvd_coloring",
    "solve.mvd_exact",
    "catalog.is_minimally_two_connected",
    "iso.canonical_form",
    "iso.find_isomorphism",
)
SELF = tuple(f"{module}.{function}" for module, function in SPANNED)
COUNTS = (
    "verify.pairs",
    "verify.separates.calls",
    "solve.partitions_tried",
    "solve.blocks.trivial",
    "solve.blocks.closed_form",
    "solve.blocks.catalog",
    "solve.blocks.exact",
)

# Per-layer metric names and units, in report order.
METRICS: dict[str, str] = {}
for _name in SELF:
    if _name in CALLS:
        METRICS[f"{_name}.calls"] = "count"
    METRICS[f"{_name}.self_s"] = "s"
METRICS["catalog.lookup.calls"] = "count"
METRICS["catalog.lookup.hit_ratio"] = "ratio"
for _name in COUNTS:
    METRICS[_name] = "count"
METRICS["trace.untraced_ops_per_s"] = "1/s"
METRICS["trace.traced_ops_per_s"] = "1/s"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _verifier(self, fn: Callable) -> Callable:
        inner = self.span("verify.is_mvd_coloring", fn)
        counts = self.counts

        def wrapper(g, *args, **kwargs):
            counts["verify.pairs"] += g.order * (g.order - 1) // 2 - g.size
            return inner(g, *args, **kwargs)

        return wrapper

    def _via_blocks(self, fn: Callable) -> Callable:
        inner = self.span("solve.mvd_via_blocks", fn)
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            for how in result.block_methods:
                counts["solve.blocks." + how.split(":", 1)[0].replace("-", "_")] += 1
            return result

        return wrapper

    def _lookup(self, fn: Callable) -> Callable:
        inner = self.span("catalog.lookup", fn)
        counts = self.counts

        def wrapper(*args, **kwargs):
            entry = inner(*args, **kwargs)
            counts["catalog.lookup.hits"] += entry is not None
            return entry

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_items(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    # -- installing ------------------------------------------------------------

    def _rebind(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace every mvdcolor module binding of ``module.attr``."""
        try:
            original = getattr(importlib.import_module(f"mvdcolor.{module}"), attr, None)
        except ImportError:
            original = None
        if original is None:
            print(f"trace: mvdcolor.{module}.{attr} not found; its metrics read 0", file=sys.stderr)
            return
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "mvdcolor" or name.startswith("mvdcolor.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def install(self) -> None:
        import mvdcolor.catalog as catalog

        for module, attr in SPANNED:
            name = f"{module}.{attr}"
            if name == "verify.is_mvd_coloring":
                self._rebind(module, attr, self._verifier)
            elif name == "solve.mvd_via_blocks":
                self._rebind(module, attr, self._via_blocks)
            else:
                self._rebind(module, attr, lambda fn, name=name: self.span(name, fn))
        self._rebind("verify", "separates", lambda fn: self._counted("verify.separates.calls", fn))
        self._rebind(
            "solve", "partitions_into_k_classes",
            lambda fn: self._counted_items("solve.partitions_tried", fn),
        )
        original = catalog.Catalog.lookup
        catalog.Catalog.lookup = self._lookup(original)
        self._undo.append((catalog.Catalog, "lookup", original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out: dict[str, float] = {}
        for metric in METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls" and metric != "verify.separates.calls":
                out[metric] = calls[layer]
            elif kind == "self_s":
                out[metric] = self_s[layer]
            elif metric == "catalog.lookup.hit_ratio":
                looked = calls["catalog.lookup"]
                out[metric] = self.counts["catalog.lookup.hits"] / looked if looked else 0.0
            elif metric in COUNTS:
                out[metric] = self.counts[metric]
        return out

    def dump(self, path: str, op_kinds: list[str]) -> None:
        """Write the spans, and the kind of each op by op id."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans,
                       "op_kinds": op_kinds}, fh)
