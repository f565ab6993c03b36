"""Golden-file tests: catalog battery reports are frozen byte-for-byte.

Regenerate a file only for a deliberate, reviewed format or math change:

    PYTHONPATH=src python3 -m bingcheck.cli invariants 3_1 > tests/golden/3_1.report
    PYTHONPATH=src python3 -m bingcheck.cli bing --range 3 3_1 > tests/golden/bing/3_1.report
    PYTHONPATH=src python3 -m bingcheck.cli bing --range 2 \
        --file tests/golden/bing/3_1_plus_mirror.matrix > tests/golden/bing/3_1_plus_mirror.report
    PYTHONPATH=src python3 tests/test_golden.py     # every file of tests/golden/cli/

A file of tests/golden/cli/ is one command's transcript over every catalog
entry: per entry the command line, its exit code, its stdout and, when
there is any, its stderr.
"""

import contextlib
import io
import pathlib

import pytest

from bingcheck.catalog import builtin_catalog, format_report
from bingcheck.cli import main
from bingcheck.witt import obstruction_battery

GOLDEN = pathlib.Path(__file__).parent / "golden"
CLI_COMMANDS = [
    ["cable", "-n", "2"],
    ["cable", "-n", "3"],
    ["jpq", "-p", "1", "-q", "2"],
    ["cover", "-p", "2"],
    ["cover", "-p", "3"],
    ["cover", "-p", "4"],
    ["foxorder", "-p", "2"],
    ["foxorder", "-p", "3"],
    ["foxorder", "-p", "5"],
    ["foxorder", "-p", "64"],
    ["foxmilnor"],
]


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


def cli_golden_path(command) -> pathlib.Path:
    return GOLDEN / "cli" / ("_".join(command) + ".txt")


def cli_transcript(command) -> str:
    """`command` run on every catalog entry, as one text."""
    parts = []
    for entry in builtin_catalog():
        argv = command + [entry.name]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        parts.append("$ bingcheck %s\nexit %d\n%s" % (" ".join(argv), code, out.getvalue()))
        if err.getvalue():
            parts.append("stderr:\n" + err.getvalue())
    return "".join(parts)


@pytest.mark.parametrize("command", CLI_COMMANDS, ids="_".join)
def test_cli_transcript_matches_golden(command):
    expected = cli_golden_path(command).read_text(encoding="utf-8")
    assert cli_transcript(command) == expected


if __name__ == "__main__":
    for command in CLI_COMMANDS:
        path = cli_golden_path(command)
        path.parent.mkdir(exist_ok=True)
        path.write_text(cli_transcript(command), encoding="utf-8")
