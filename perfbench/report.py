#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print what the benchmark measures.

    python3 perfbench/report.py [--seed N]

Runs last ``run_seconds`` from BENCHMARK.json.  For each workload: every
end-to-end metric by name with its unit, the attempted and failed op counts,
the tracing overhead (traced against untraced ops per second over the same
ops), each layer's share of traced time per op kind, and whether two traced
runs on the seed gave identical counts.  Ends with the predictions the trace can confirm
or refute.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = HERE.parent / "BENCHMARK.json"
TRACES = HERE.parent / ".perfbench_work" / "traces"
WORKLOADS = ("solve", "catalog-build")

# Counts that must repeat exactly between two traced runs on one seed.
DETERMINISTIC = ("verify.pairs", "verify.separates.calls", "solve.partitions_tried", "catalog.lookup.hit_ratio")


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counts(result: dict) -> dict[str, float]:
    return {
        name: m["value"] for name, m in result["metrics"].items()
        if name.endswith(".calls") or name.startswith("solve.blocks.") or name in DETERMINISTIC
    }


def _times(workload: str, seed: int) -> dict[str, tuple[dict[str, float], dict[str, float], Counter]]:
    """Per op kind: self and inclusive shares of traced time per span name, and span counts."""
    with open(TRACES / f"{workload}-seed{seed}.json", encoding="utf-8") as fh:
        dump = json.load(fh)
    spans, op_kinds = dump["spans"], dump["op_kinds"]
    own: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    inclusive: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    counts: dict[str, Counter] = defaultdict(Counter)
    total: dict[str, float] = defaultdict(float)
    for name, start, end, parent, op in spans:
        if op < 0:
            continue  # catalog load before the first op
        kind = op_kinds[op]
        counts[kind][name] += 1
        own[kind][name] += end - start
        if parent < 0:
            total[kind] += end - start
        else:
            own[kind][spans[parent][0]] -= end - start
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[kind][name] += end - start
    return {
        kind: ({k: v / total[kind] for k, v in own[kind].items()},
               {k: v / total[kind] for k, v in inclusive[kind].items()}, counts[kind])
        for kind in total
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(BENCHMARK, encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    shares: dict[str, tuple[dict[str, float], dict[str, float], Counter]] = {}
    for workload in WORKLOADS:
        plain = _run(workload, args.seed, seconds, 0)
        traced = _run(workload, args.seed, seconds, 1)
        again = _run(workload, args.seed, seconds, 1)
        print(f"== {workload} (seed {args.seed}, {seconds} s)")
        print(f"  ops attempted {plain['attempted']}, failed {plain['failed']}, correct {plain['correct']}")
        for name, m in plain["metrics"].items():
            print(f"  {name:12} {m['value']:12.6g} {m['unit']}")
        tm = traced["metrics"]
        untraced_rate = tm["trace.untraced_ops_per_s"]["value"]
        traced_rate = tm["trace.traced_ops_per_s"]["value"]
        print(f"  tracing overhead: {traced_rate:.4g} traced vs {untraced_rate:.4g} untraced ops/s "
              f"({untraced_rate / traced_rate - 1:+.1%} time)")
        same = _counts(traced) == _counts(again)
        print(f"  two traced runs give identical counts: {'yes' if same else 'NO'}")
        for kind, kind_shares in _times(workload, args.seed).items():
            shares[kind] = kind_shares
            print(f"  self-time share of traced time on {kind} ops:")
            for name, share in sorted(kind_shares[0].items(), key=lambda kv: -kv[1]):
                if share >= 0.005:
                    print(f"    {name:40} {share:6.1%}")

    print("== predictions")
    verify = shares["sparse"][0].get("verify.is_mvd_coloring", 0)
    idle = shares["sparse"][2]
    exact = shares["exact"][0].get("solve.mvd_exact", 0)
    glued = shares["glued"][2]
    build = shares["build"][1]
    gen, build_exact = build.get("catalog.generate_minimal_blocks_up_to", 0), build.get("solve.mvd_exact", 0)
    checks = [
        ("verify dominates sparse ops", verify > 0.5, f"verify self share {verify:.1%}"),
        ("exact search and iso idle on sparse ops",
         idle["solve.mvd_exact"] == idle["iso.find_isomorphism"] == 0,
         f"mvd_exact calls {idle['solve.mvd_exact']}, find_isomorphism calls {idle['iso.find_isomorphism']}"),
        ("exact search dominates exact ops", exact > 0.5, f"mvd_exact self share {exact:.1%}"),
        ("lookup and iso run on glued ops", glued["catalog.lookup"] > 0 and glued["iso.find_isomorphism"] > 0,
         f"lookup calls {glued['catalog.lookup']}, find_isomorphism calls {glued['iso.find_isomorphism']}"),
        ("generation and exact search split catalog-build", gen > 0.25 and build_exact > 0.25,
         f"generation {gen:.1%}, exact search {build_exact:.1%} of traced time (inclusive)"),
    ]
    for claim, held, detail in checks:
        print(f"  {'holds' if held else 'FAILS'}: {claim} ({detail})")
    return 0

if __name__ == "__main__":
    sys.exit(main())
