"""Golden-file tests: catalog battery reports are frozen byte-for-byte.

Regenerate a file only for a deliberate, reviewed format or math change:

    PYTHONPATH=src python3 -m bingcheck.cli invariants 3_1 > tests/golden/3_1.report
"""

import pathlib

import pytest

from bingcheck.catalog import builtin_catalog, format_report
from bingcheck.witt import obstruction_battery

GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden_path(name: str) -> pathlib.Path:
    return GOLDEN / (name.replace("(", "_").replace(")", "") + ".report")


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_catalog_battery_matches_golden(entry):
    expected = golden_path(entry.name).read_text(encoding="utf-8")
    assert format_report(obstruction_battery(entry.seifert)) == expected


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_golden_files_machine_readable(entry):
    lines = golden_path(entry.name).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "name = %s" % entry.name
    assert ("verdict = NOT_ALG_SLICE" in lines) != ("verdict = NO_OBSTRUCTION_FOUND" in lines)
