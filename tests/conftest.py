"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def src_env():
    """The environment of a subprocess that imports specmeans from `src`,
    whatever PYTHONPATH the tests were started with."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{path}" if path else str(SRC)}
