"""The benchmark's tracer wraps library functions by module and name.

A renamed or moved function would not fail the benchmark: its metrics would
silently read 0.  This test keeps every traced name present, apart from the
names in ``REMOVED``, which the library dropped on purpose while the tracer
still spans them.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"
# ``mvdcolor.iso`` keeps only ``canonical_labelling``; these spans read 0 and the tracer says so
# on stderr.  The tracer should span ``iso.canonical_labelling`` instead, and this set then empties.
REMOVED = ["mvdcolor.iso.canonical_form", "mvdcolor.iso.find_isomorphism"]


def test_every_traced_function_exists():
    if not TRACING.exists():
        pytest.skip("perfbench/ is absent")
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # stdlib only
    missing = [
        f"mvdcolor.{module}.{function}"
        for module, function in tracing.SPANNED
        if not hasattr(importlib.import_module(f"mvdcolor.{module}"), function)
    ]
    assert tracing.SPANNED and missing == REMOVED
