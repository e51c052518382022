from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# child processes (``python -m mvdcolor``, the scripts) import the package from the source tree
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")])
)

DATA_DIR = Path(__file__).parent.parent / "data"


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run long-running checks (order-10 census, order-7 brute force)",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running check, enable with --runslow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR
