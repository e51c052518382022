"""The bundled scripts run end to end against the current library API."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=ROOT,
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
