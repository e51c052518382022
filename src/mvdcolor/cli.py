"""Command-line front end: decompose, solve (blocks only), verify, catalog,
classify, bound, and DOT export as reproducible batch subcommands.

Exit codes: 0 success, 1 verification FAIL, 2 input error (bad input, or a
path that cannot be read or written), 3 guard/limit error.  All reports are
plain text with stable ordering; ``--json`` switches any subcommand to a
machine-readable report.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Iterable, Iterator, Optional

from .analysis import bound_blocks, bound_half_order, classify
from .blocks import decompose
from .catalog import build_catalog, census_text, load_catalog, save_catalog
from .graph import (
    Graph,
    GraphFormatError,
    GuardError,
    format_matrix,
    induced_subgraph,
    load_graph,
    parse_coloring,
    parse_matrix,
    to_dot,
)
from .solve import solve_auto
from .verify import _require_total, is_mvd_coloring

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


def _digest(g: Graph) -> dict:
    return {"order": g.order, "size": g.size}


def _digest_line(g: Graph) -> str:
    return f"graph: n={g.order} m={g.size}"


def renumber_colors(g: Graph, coloring: dict[int, int]) -> dict[int, int]:
    """Renumber colors 1..k in first-appearance order over vertex indices."""
    mapping: dict[int, int] = {}
    for v in range(g.order):
        mapping.setdefault(coloring[v], len(mapping) + 1)
    return {v: mapping[coloring[v]] for v in range(g.order)}


def _load_coloring_file(path: str, g: Graph) -> dict[int, int]:
    """Coloring from label:color lines or from a combined matrix file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    looks_like_matrix = len(lines) >= 2 and all(
        tok.strip() in ("0", "1") for tok in lines[1].split(",")
    )
    if looks_like_matrix:
        other, coloring = parse_matrix(text)
        if coloring is None:
            raise GraphFormatError("matrix file carries no colors")
        if other != g:
            raise GraphFormatError("coloring file describes a different graph")
        return coloring
    return parse_coloring(text, g)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (text lines, json report, exit code)


def _cmd_decompose(args) -> tuple[list[str], dict, int]:
    g, _ = load_graph(args.graph)
    dec = decompose(g)
    cut_labels = sorted(g.labels[v] for v in dec.cut_vertices)
    lines = [_digest_line(g)]
    lines.append("cut vertices: " + (", ".join(cut_labels) if cut_labels else "(none)"))
    report_blocks = []
    for i, block in enumerate(dec.blocks, start=1):
        labels = sorted(block.labels)
        kind = "trivial" if block.trivial else "nontrivial"
        lines.append(f"block {i} ({kind}): {', '.join(labels)}")
        ordered = induced_subgraph(g, sorted(block.vertices, key=lambda v: g.labels[v]))
        lines.extend(format_matrix(ordered).rstrip("\n").split("\n"))
        report_blocks.append({"labels": labels, "kind": kind})
    report = {
        "input": _digest(g),
        "cut_vertices": cut_labels,
        "blocks": report_blocks,
    }
    return lines, report, EXIT_OK


def _cmd_solve(args) -> tuple[Iterable[str], dict, int]:
    g, _ = load_graph(args.graph)
    # the block pipeline verifies each block once while stitching: "self_check" reports that
    result = solve_auto(g, load_catalog(args.catalog) if args.catalog else None)
    coloring = result.coloring if args.preserve_colors else renumber_colors(g, result.coloring)
    report_blocks = [{"labels": sorted(block.labels), "method": how}
                     for block, how in zip(decompose(g).blocks, result.block_methods)]
    if args.emit_dot:
        with open(args.emit_dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(g, coloring))
    report = {
        "input": _digest(g),
        "mvd": result.value,
        "method": result.method,
        "blocks": report_blocks,
        "coloring": {g.labels[v]: coloring[v] for v in range(g.order)},
        "self_check": "PASS",
    }

    def lines() -> Iterator[str]:  # built only if main prints the text report
        yield _digest_line(g)
        yield f"mvd = {result.value}"
        yield f"method: {result.method}"
        for i, b in enumerate(report_blocks, start=1):
            yield f"block {i} {{{', '.join(b['labels'])}}}: {b['method']}"
        yield "coloring:"
        for v in sorted(range(g.order), key=g.labels.__getitem__):
            yield f"{g.labels[v]}:{coloring[v]}"
        if args.emit_dot:
            yield f"wrote {args.emit_dot}"

    return lines(), report, EXIT_OK


def _cmd_verify(args) -> tuple[list[str], dict, int]:
    g, embedded = load_graph(args.graph)
    coloring = _load_coloring_file(args.coloring, g) if args.coloring else embedded
    if coloring is None:
        raise GraphFormatError("no coloring given: pass a coloring file or a colored matrix")
    verdict = is_mvd_coloring(g, coloring)
    lines = [_digest_line(g)]
    if verdict.ok:
        lines.append("PASS")
        pairs = {}
        assert verdict.certificate is not None
        for (x, y), color in verdict.certificate.items():
            lines.append(f"pair {g.labels[x]},{g.labels[y]}: color {color}")
            pairs[f"{g.labels[x]},{g.labels[y]}"] = color
        report = {"input": _digest(g), "verdict": "PASS", "certificates": pairs}
        return lines, report, EXIT_OK
    assert verdict.witness is not None
    x, y = verdict.witness
    lines.append("FAIL")
    lines.append(f"witness: {g.labels[x]},{g.labels[y]}")
    report = {"input": _digest(g), "verdict": "FAIL", "witness": [g.labels[x], g.labels[y]]}
    return lines, report, EXIT_FAIL


def _cmd_catalog_build(args) -> tuple[list[str], dict, int]:
    cat = build_catalog(args.max_order)
    save_catalog(cat, args.out)
    lines = census_text(cat).rstrip("\n").split("\n")
    lines.append(f"wrote {len(cat)} entries to {args.out}")
    report = {
        "max_order": args.max_order,
        "out": args.out,
        "entries": [
            {"id": e.id, "order": e.order, "mvd": e.mvd_value} for e in cat.entries
        ],
    }
    return lines, report, EXIT_OK


def _cmd_classify(args) -> tuple[list[str], dict, int]:
    g, _ = load_graph(args.graph)
    catalog = load_catalog(args.catalog) if args.catalog else None
    result = classify(g, catalog)
    lines = [
        _digest_line(g),
        "gate: PASS",
        f"n = {result.order}",
        f"mvd = {result.mvd}",
        f"regime: {result.regime}",
        f"family: {result.family}",
    ]
    if result.core is not None:
        lines.append(f"core: {', '.join(sorted(result.core.labels))}")
        lines.append(f"core key: {result.core_key if result.core_key else '(beyond canonical guard)'}")
    else:
        lines.append("core: (none)")
    report = {
        "input": _digest(g),
        "gate": "PASS",
        "n": result.order,
        "mvd": result.mvd,
        "regime": result.regime,
        "family": result.family,
        "core": sorted(result.core.labels) if result.core else None,
        "core_key": result.core_key,
    }
    return lines, report, EXIT_OK


def _cmd_bound(args) -> tuple[list[str], dict, int]:
    g, _ = load_graph(args.graph)
    lines = [_digest_line(g)]
    report: dict = {"input": _digest(g)}
    for rep in (bound_half_order(g), bound_blocks(g)):
        if rep.applicable:
            lines.append(f"{rep.kind}: applicable, bound = {rep.value} ({rep.reason})")
        else:
            lines.append(f"{rep.kind}: not applicable ({rep.reason})")
        report[rep.kind] = {
            "applicable": rep.applicable,
            "reason": rep.reason,
            "bound": rep.value,
        }
    return lines, report, EXIT_OK


def _cmd_export_dot(args) -> tuple[list[str], dict, int]:
    g, embedded = load_graph(args.graph)
    coloring = _load_coloring_file(args.coloring, g) if args.coloring else embedded
    if coloring is not None:
        _require_total(g.labels, coloring)
    text = to_dot(g, coloring)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return [f"wrote {args.out}"], {"input": _digest(g), "out": args.out, "colored": coloring is not None}, EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    ``main`` call in the process: parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="mvdcolor",
        description="Monochromatic vertex-disconnection numbers and certified colorings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="print cut vertices and blocks")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("solve", help="compute the disconnection number and a coloring")
    p.add_argument("graph")
    p.add_argument("--catalog", metavar="DIR")
    p.add_argument("--emit-dot", metavar="PATH")
    p.add_argument("--preserve-colors", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a coloring against the cut condition")
    p.add_argument("graph")
    p.add_argument("coloring", nargs="?")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("catalog", help="catalog maintenance")
    csub = p.add_subparsers(dest="catalog_command", required=True)
    pb = csub.add_parser("build", help="generate the census and solve every entry")
    pb.add_argument("--max-order", type=int, required=True)
    pb.add_argument("--out", required=True)
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(func=_cmd_catalog_build)

    p = sub.add_parser("classify", help="value regime and family of a gated graph")
    p.add_argument("graph")
    p.add_argument("--catalog", metavar="DIR")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bound", help="print both upper-bound reports")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("export-dot", help="write a Graphviz file, colored when possible")
    p.add_argument("graph")
    p.add_argument("--coloring", metavar="FILE")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        lines, report, code = args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:  # GraphFormatError, CatalogError, GateError, a bad path too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = {"command": ["mvdcolor"] + list(argv), **report, "exit_code": code}
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
