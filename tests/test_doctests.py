"""Run every module's doctest examples (pytest only collects tests/).

The modules are read off the package directory, so a new module's
examples run without being listed here."""

import doctest
import importlib
import pathlib

import pytest

import bingcheck

MODULES = [
    importlib.import_module(
        "bingcheck" if path.stem == "__init__" else f"bingcheck.{path.stem}")
    for path in sorted(pathlib.Path(bingcheck.__file__).parent.glob("*.py"))
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failed, _attempted = doctest.testmod(module)
    assert failed == 0
