"""The bundled scripts run end to end against the current library API."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import mvdcolor.solve as solve
from mvdcolor.solve import MvdResult, mvd_exact

ROOT = Path(__file__).parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, cwd=ROOT,
    )


def test_worked_example_script():
    proc = run_script("worked_example.py")
    assert proc.returncode == 0, proc.stderr
    assert "mvd = 3" in proc.stdout
    assert "verification: PASS" in proc.stdout


def test_random_agreement_script():
    proc = run_script("random_agreement.py", "--samples", "20", "--max-order", "7")
    assert proc.returncode == 0, proc.stderr
    assert "20 samples, 0 disagreements" in proc.stdout


def _load_random_agreement():
    spec = importlib.util.spec_from_file_location("random_agreement", ROOT / "scripts" / "random_agreement.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_random_agreement_script_fails_on_a_disagreement(monkeypatch, capsys):
    script = _load_random_agreement()

    def off_by_one(g):
        res = mvd_exact(g)
        return MvdResult(res.value + 1, res.coloring, res.method)

    monkeypatch.setattr(script, "mvd_exact", off_by_one)
    assert script.main(["--samples", "3", "--max-order", "5"]) == 1
    assert "3 samples, 3 disagreements" in capsys.readouterr().out


def test_random_agreement_script_counts_guarded_samples(monkeypatch, capsys):
    # every exact search passes a budget of 1 step; the catalog to order 6 is all closed forms,
    # so only the glued fourth sample, answered by closed forms and lookups, is compared
    script = _load_random_agreement()
    monkeypatch.setattr(solve, "MAX_WALK_STEPS", 1)
    assert script.main(["--samples", "4", "--max-order", "6"]) == 0
    assert "4 samples, 0 disagreements, 3 guarded" in capsys.readouterr().out
