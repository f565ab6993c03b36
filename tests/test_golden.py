"""Golden-file tests: catalog battery reports are frozen byte-for-byte.

Regenerate a file only for a deliberate, reviewed format or math change:

    PYTHONPATH=src python3 -m bingcheck.cli invariants 3_1 > tests/golden/3_1.report
    PYTHONPATH=src python3 -m bingcheck.cli bing --range 3 3_1 > tests/golden/bing/3_1.report
    PYTHONPATH=src python3 -m bingcheck.cli bing --range 2 \
        --file tests/golden/bing/3_1_plus_mirror.matrix > tests/golden/bing/3_1_plus_mirror.report
"""

import pathlib

import pytest

from bingcheck.catalog import builtin_catalog, format_report
from bingcheck.cli import main
from bingcheck.witt import obstruction_battery

GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden_path(name: str, folder: pathlib.Path = GOLDEN) -> pathlib.Path:
    return folder / (name.replace("(", "_").replace(")", "") + ".report")


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_catalog_battery_matches_golden(entry):
    expected = golden_path(entry.name).read_text(encoding="utf-8")
    assert format_report(obstruction_battery(entry.seifert)) == expected


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_golden_files_machine_readable(entry):
    lines = golden_path(entry.name).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "name = %s" % entry.name
    assert ("verdict = NOT_ALG_SLICE" in lines) != ("verdict = NO_OBSTRUCTION_FOUND" in lines)


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_catalog_bing_report_matches_golden(entry, capsys):
    expected = golden_path(entry.name, GOLDEN / "bing").read_text(encoding="utf-8")
    assert run_cli(["bing", "--range", "3", entry.name], capsys) == (0, expected, "")


def test_mirror_sum_bing_report_matches_golden(capsys):
    matrix = GOLDEN / "bing" / "3_1_plus_mirror.matrix"
    expected = (GOLDEN / "bing" / "3_1_plus_mirror.report").read_text(encoding="utf-8")
    assert run_cli(["bing", "--range", "2", "--file", str(matrix)], capsys) == (0, expected, "")
