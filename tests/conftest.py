import os
import pathlib

import pytest

from dupkit import simulate

# Child processes that run `python -m dupkit.cli` import the package from
# src, as this process does through pytest's pythonpath (pyproject.toml).
_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path)


@pytest.fixture(autouse=True)
def _stop_split_workers():
    """Stop the sampling workers after each test.

    A worker runs the code its process had when it was forked, so one kept
    into the next test would still run this test's monkeypatched modules.
    """
    yield
    simulate._stop_workers()
