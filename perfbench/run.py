#!/usr/bin/env python3
"""Benchmark of certified mvd solving: one workload, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src`` and the answer oracle from its ``tests``.  Inputs are
generated from the seed and written as matrix files before timing starts.
Ops run serially in one process.  After an untimed warm-up of about a
second, the timed loop ends at the first cycle of the workload's input
pattern that completes after ``--seconds``, so every run holds whole
cycles.  A fixed reference loop is timed before and after every op, and op
times are reported as multiples of it (see reference.py): the host's speed
drifts, and the quotient does not.  Every answer is checked outside the
timed region.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 9
# The solve workload's catalog holds the whole census; one catalog-build op
# builds to order 8, about half a second at the parent commit's speed.  An
# order-9 build takes 3-4 s, so a run would hold only a dozen, and the
# host's speed changes many times within each: the two reference times
# around one such op say little about the speed during it.
CATALOG_ORDER = 9
BUILD_ORDER = 8
CHILD_TIMEOUT_S = 120
WARMUP_S = 1.0

sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from check import Checker  # noqa: E402
from reference import reference_seconds  # noqa: E402
from tracing import METRICS as LAYER_METRICS  # noqa: E402
from tracing import Tracer  # noqa: E402

END_TO_END = {"ops_per_kref": "1/kref", "op_ref.p50": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# Workloads: one cycle of the input pattern, how many cycles the input pool
# holds, and how many cycles a traced run covers.  A pool lasts about one
# run at the parent commit's speed; faster code goes round it again.

# Op kinds, by the layer that does most of their work.  Glued graphs are
# solved in a batch session holding the loaded catalog, the others with the
# command line and no catalog.
SPARSE, EXACT, GLUED, BUILD = "sparse", "exact", "glued", "build"


def _solve_cycle(rng: random.Random, census) -> list[tuple[str, wl.Item]]:
    """Trees, paths and cacti (verifier); single blocks of order 8-10 (exact
    search); census blocks glued at cut vertices (catalog lookup and iso).

    Each third takes about a third of a cycle at the parent commit's speed.
    """
    sparse = [
        wl.tree(rng, 48), wl.path(rng, 30), wl.cactus(rng, 34), wl.tree(rng, 64),
        wl.cactus(rng, 40), wl.path(rng, 36), wl.tree(rng, 32), wl.cactus(rng, 30),
    ]
    exact = [
        wl.random_block(rng, 8, 0.3, "sparse"),
        wl.random_block(rng, 9, 0.45, "mid"),
        wl.random_block(rng, 10, 0.3, "sparse"),
        wl.wheel(rng, 8),
        wl.wheel(rng, 9),
        wl.theta(rng, (2, 2, 2), chord=True),
        wl.theta(rng, (3, 2, 2), chord=True),
        wl.wheel(rng, 10),
        wl.random_block(rng, 8, 0.6, "dense"),
        wl.random_block(rng, 9, 0.3, "sparse"),
    ]
    minimal = [t for t in census if t.order >= 5]
    # 40 blocks per cycle, 8 of them non-minimal: one block in five misses the catalog.
    glued = [
        wl.glued(rng, minimal, blocks=k, non_minimal=0 if k == 2 else 1, bridges=2)
        for k in (2, 3, 4, 5, 6) * 2
    ]
    return [(SPARSE, i) for i in sparse] + [(EXACT, i) for i in exact] + [(GLUED, i) for i in glued]


@dataclass(frozen=True)
class Workload:
    cycle: Optional[Callable[[random.Random, list], list[tuple[str, wl.Item]]]]
    pool_cycles: int
    trace_cycles: int


WORKLOADS = {
    "solve": Workload(_solve_cycle, pool_cycles=8, trace_cycles=1),
    "catalog-build": Workload(None, pool_cycles=1, trace_cycles=1),
}


# ---------------------------------------------------------------------------
# Ops


class OpFailure(Exception):
    """An op ended without an answer: nonzero exit or a failed self-check."""


def _quiet_main(argv: list[str]) -> str:
    import mvdcolor.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailure(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _solve_cli(path: str) -> Callable[[], Any]:
    return lambda: _quiet_main(["solve", path, "--json"])


def _solve_in_session(path: str, catalog) -> Callable[[], Any]:
    import mvdcolor.graph as graph
    import mvdcolor.solve as solve
    import mvdcolor.verify as verify

    def op():
        g, _ = graph.load_graph(path)
        result = solve.solve_auto(g, catalog)
        if not verify.is_mvd_coloring(g, result.coloring).ok:
            raise OpFailure("solver returned a coloring that fails verification")
        return result.value, {g.labels[v]: c for v, c in result.coloring.items()}

    return op


def _build_catalog(out_root: Path, numbers: Iterator[int]) -> Callable[[], Any]:
    def op():
        out = str(out_root / f"op{next(numbers)}")
        _quiet_main(["catalog", "build", "--max-order", str(BUILD_ORDER), "--out", out])
        return out

    return op


@dataclass
class Record:
    slot: int
    seconds: float
    output: Any
    error: Optional[str]
    # The op's time in reference-loop times (see reference.py); None when
    # the loop ran without the reference.
    refs: Optional[float] = None


def run_ops(ops: list[Callable[[], Any]], cycle_len: int, seconds: float = 0.0,
            count: Optional[int] = None, tracer: Optional[Tracer] = None,
            reference: bool = False) -> tuple[list[Record], float]:
    """Closed loop over the pool: ``count`` ops, or whole cycles until ``seconds``.

    With ``reference``, the reference loop is timed before the first op and
    after every op, and each record's ``refs`` is its time over the mean of
    the two reference times around it.  A failing op is recorded and the
    loop goes on.
    """
    records: list[Record] = []
    start = time.perf_counter()
    deadline = start + seconds
    give_up = start + 2 * seconds + 30
    ref_before = reference_seconds() if reference else 0.0
    i = 0
    while True:
        slot = i % len(ops)
        op = ops[slot]
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            output, error = op(), None
        except (Exception, SystemExit) as exc:  # the run goes on; the failure is counted
            output, error = None, f"{type(exc).__name__}: {exc}"
        record = Record(slot, time.perf_counter() - t0, output, error)
        if reference:
            ref_after = reference_seconds()
            record.refs = record.seconds / ((ref_before + ref_after) / 2)
            ref_before = ref_after
        records.append(record)
        i += 1
        now = time.perf_counter()
        if count is not None:
            if i == count:
                break
        elif (i % cycle_len == 0 and now >= deadline) or now >= give_up:
            break
    return records, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Checks


def _read_tree(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


def check_records(records: list[Record], items: list[wl.Item], kinds: list[str],
                  checker: Checker) -> list[str]:
    """Reasons for every failed op; each distinct answer is checked once."""
    failures = []
    checked: dict[int, Any] = {}
    for rec in records:
        if rec.error is not None:
            failures.append(rec.error)
            continue
        kind = kinds[rec.slot]
        answer = _read_tree(rec.output) if kind == BUILD else rec.output
        if checked.get(rec.slot) == answer:
            continue
        if kind == BUILD:
            reason = _check_catalog_dir(rec.output, checker)
            what = "catalog build"
        else:
            if kind == GLUED:
                value, by_label = answer
            else:
                report = json.loads(answer)
                value, by_label = report["mvd"], report["coloring"]
            reason = checker.answer(items[rec.slot], value, by_label)
            what = items[rec.slot].family
        if reason is None:
            checked[rec.slot] = answer
        else:
            failures.append(f"{what}: {reason}")
    return failures


def _check_catalog_dir(directory: str, checker: Checker) -> Optional[str]:
    import mvdcolor.catalog as catalog

    reason = checker.catalog(directory, BUILD_ORDER)
    if reason is not None:
        return reason
    try:
        reloaded = catalog.load_catalog(directory)
    except ValueError as exc:
        return f"output does not reload: {exc}"
    if len(reloaded) != sum(t.order <= BUILD_ORDER for t in wl.load_census()):
        return f"reloaded {len(reloaded)} entries"
    return None


# ---------------------------------------------------------------------------
# Set-up


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


SETUP_CHILD = """\
import sys
import mvdcolor.cli
import mvdcolor.catalog
if len(sys.argv) > 1:
    mvdcolor.catalog.load_catalog(sys.argv[1])
print("ready", flush=True)
"""


def measure_setup(catalog_dir: Optional[str]) -> float:
    """Median time from process start to ready for the first op.

    Ready means ``mvdcolor`` imported and, with a catalog, the catalog
    loaded.  One unmeasured start comes first, so bytecode compilation is
    not counted.  ``-S`` skips site-packages, which the program does not
    use and whose start-up hooks vary from machine to machine.
    """
    argv = [sys.executable, "-S", "-c", SETUP_CHILD] + ([catalog_dir] if catalog_dir else [])
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=_child_env(), cwd=str(ROOT)) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {err.strip()}")
        if i:
            samples.append(elapsed)
    return statistics.median(samples)


def prepare_catalog(directory: Path, checker: Checker) -> str:
    """Build and save the order-9 catalog with the program's own command line."""
    argv = [sys.executable, "-m", "mvdcolor", "catalog", "build", "--max-order", str(CATALOG_ORDER),
            "--out", str(directory)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=_child_env(), cwd=str(ROOT),
                          timeout=10 * CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"catalog build failed: {proc.stderr.strip()}")
    reason = checker.catalog(str(directory), CATALOG_ORDER)
    if reason is not None:
        raise RuntimeError(f"prepared catalog is wrong: {reason}")
    return str(directory)


def _import_program() -> None:
    import mvdcolor

    if Path(mvdcolor.__file__).resolve().parent != (SRC / "mvdcolor").resolve():
        raise RuntimeError(f"imported mvdcolor from {mvdcolor.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------


def _terminate(*_) -> None:
    """SIGTERM ends the run like an interrupt: the op loop does not catch it."""
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _terminate)

    if not (SRC / "mvdcolor" / "__init__.py").is_file() or not (TESTS / "oracles.py").is_file():
        print(f"error: {ROOT} holds no mvdcolor sources or no tests/oracles.py", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 143
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when empty; traces stay


def run(args: argparse.Namespace, work: Path) -> int:
    _import_program()
    spec = WORKLOADS[args.workload]
    checker = Checker()
    rng = random.Random(f"{args.workload}/{args.seed}")
    census = wl.load_census()

    pool: list[tuple[str, wl.Item]] = []
    if spec.cycle is not None:
        for _ in range(spec.pool_cycles):
            pool += spec.cycle(rng, census)
    kinds = [kind for kind, _ in pool] or [BUILD]
    items = [item for _, item in pool]
    cycle_len = len(pool) // spec.pool_cycles if pool else 1
    paths = wl.write_items(items, str(work / "inputs"))
    catalog_dir = prepare_catalog(work / "catalog", checker) if GLUED in kinds else None
    setup_s = None if args.trace else measure_setup(catalog_dir)

    import mvdcolor.catalog as catalog

    build_numbers = itertools.count()

    def make_ops(loaded_catalog) -> list[Callable[[], Any]]:
        if not pool:
            return [_build_catalog(work / "builds", build_numbers)]
        return [
            _solve_in_session(p, loaded_catalog) if kind == GLUED else _solve_cli(p)
            for kind, p in zip(kinds, paths)
        ]

    loaded = catalog.load_catalog(catalog_dir) if catalog_dir else None
    # Untimed warm-up: the first ops of a process pay for lazy imports and
    # cold allocator pools.  Their answers are checked like the rest.
    records, _ = run_ops(make_ops(loaded), 1, seconds=WARMUP_S)
    if not args.trace:
        timed, _ = run_ops(make_ops(loaded), cycle_len, seconds=args.seconds, reference=True)
        records += timed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        refs = [r.refs for r in timed]
        values = {
            "ops_per_kref": 1000 * len(refs) / sum(refs),
            "op_ref.p50": statistics.median(refs),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        reference_ms = 1000 * statistics.median(r.seconds / r.refs for r in timed)
        print(f"median reference time {reference_ms:.4f} ms", file=sys.stderr)
    else:
        count = spec.trace_cycles * cycle_len
        untraced, untraced_wall = run_ops(make_ops(loaded), cycle_len, count=count)
        tracer = Tracer()
        tracer.install()
        try:
            if catalog_dir:
                loaded = tracer.span("op", catalog.load_catalog)(catalog_dir)
            traced, traced_wall = run_ops(
                [tracer.span("op", op) for op in make_ops(loaded)], cycle_len, count=count, tracer=tracer
            )
        finally:
            tracer.uninstall()
        records += untraced + traced
        values = tracer.metrics()
        values["trace.untraced_ops_per_s"] = len(untraced) / untraced_wall
        values["trace.traced_ops_per_s"] = len(traced) / traced_wall
        units = LAYER_METRICS
        dump = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        dump.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(str(dump), [kinds[r.slot] for r in traced])
        print(f"spans written to {dump}", file=sys.stderr)

    failures = check_records(records, items, kinds, checker)
    for reason in failures[:10]:
        print(f"failed op: {reason}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
