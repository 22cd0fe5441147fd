"""Source hygiene: every module compiles cleanly with warnings as errors."""

import warnings
from pathlib import Path

import pytest

import specmeans

MODULES = sorted(Path(specmeans.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")
