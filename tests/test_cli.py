"""End-to-end tests of the command-line interface.

Most cases drive ``main(argv)`` in-process and capture stdout/stderr; a
couple of subprocess cases confirm the module and console-script entry
points. Both subprocesses run the ``bingcheck`` package this process
imported, through an explicit ``PYTHONPATH``. The console script is
generated from ``[project.scripts]`` in ``pyproject.toml`` into a
temporary directory, so it needs no install and never runs a stale
``bingcheck`` from PATH. Exit codes: 0 computed, 1 usage, 2 input,
3 internal.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bingcheck
from bingcheck import cli
from bingcheck.catalog import parse_seifert
from bingcheck.cover import branched_cover_homology_order
from bingcheck.seifert import alexander
from bingcheck.cli import main
from bingcheck.errors import InternalInvariantError
from bingcheck.matrices import ExactMatrix

SUBCOMMANDS = [
    "invariants", "alexander", "sigfn", "arf", "foxmilnor",
    "cable", "cover", "foxorder", "jpq", "bing", "catalog", "batch",
]

TREFOIL_FILE = "2\n-1 1\n0 -1\n"

REPO_ROOT = Path(__file__).resolve().parents[1]
# The directory holding the ``bingcheck`` package under test.
PACKAGE_PARENT = str(Path(bingcheck.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_no_affirmative_slice(text):
    """Verdict wording: "slice" may appear only negated."""
    for m in re.finditer(r"slice", text, re.IGNORECASE):
        context = text[max(0, m.start() - 15):m.start()]
        assert "not " in context or "NOT_ALG_" in context, text


class TestKnotCommands:
    def test_invariants_trefoil(self, capsys):
        code, out, err = run(capsys, "invariants", "3_1")
        assert code == 0 and err == ""
        assert "verdict = NOT_ALG_SLICE\n" in out
        assert "certificate = fox_milnor\n" in out
        assert_no_affirmative_slice(out)

    def test_invariants_stevedore_clean(self, capsys):
        code, out, _ = run(capsys, "invariants", "6_1")
        assert code == 0
        assert "verdict = NO_OBSTRUCTION_FOUND\n" in out
        assert "certificate" not in out
        assert_no_affirmative_slice(out)

    def test_alexander(self, capsys):
        assert run(capsys, "alexander", "twist(3)") \
            == (0, "alexander = 3t^2 - 7t + 3\n", "")

    def test_sigfn_golden(self, capsys):
        code, out, _ = run(capsys, "sigfn", "trefoil")
        assert code == 0
        assert out == ("arcs:\nu_lo,u_hi,signature\n-2,1,-2\n1,2,0\n"
                       "jumps:\nu_lo,u_hi,nullity\n1,1,1\n")

    def test_arf(self, capsys):
        assert run(capsys, "arf", "3_1") == (0, "arf = 1\n", "")
        assert run(capsys, "arf", "6_1") == (0, "arf = 0\n", "")

    def test_foxmilnor(self, capsys):
        assert run(capsys, "foxmilnor", "6_1") \
            == (0, "fox_milnor = pass\nfox_milnor_witness = 2t - 1\n", "")
        code, out, _ = run(capsys, "foxmilnor", "4_1")
        assert code == 0 and out == "fox_milnor = fail\n"

    def test_cable(self, capsys):
        code, out, _ = run(capsys, "cable", "-n", "2", "3_1")
        assert code == 0
        assert out.startswith("name = 3_1 cable 2\n")
        # order of the substituted pairing: (t^2 - 1)^2 (t^4 - t^2 + 1)
        assert "alexander = t^8 - 3t^6 + 4t^4 - 3t^2 + 1\n" in out

    def test_cable_rejects_zero(self, capsys):
        code, _, err = run(capsys, "cable", "-n", "0", "3_1")
        assert code == 1 and err.startswith("error:")

    def test_cover(self, capsys):
        code, out, _ = run(capsys, "cover", "-p", "3", "3_1")
        assert code == 0
        assert out.startswith("# name: 3_1 cover 3\n2\n0 1/2\n-1/2 0\n\n")
        assert "ring = Q\n" in out
        assert "arf = not-applicable\n" in out

    def test_foxorder(self, capsys):
        assert run(capsys, "foxorder", "-p", "3", "3_1") \
            == (0, "order = 4\n", "")
        assert run(capsys, "foxorder", "-p", "6", "3_1") \
            == (0, "order = INFINITE\n", "")

    def test_jpq(self, capsys):
        code, out, _ = run(capsys, "jpq", "-p", "1", "-q", "2", "6_1")
        assert code == 0
        assert out.startswith("name = J(1,2) of 6_1\n")
        assert "verdict = NO_OBSTRUCTION_FOUND\n" in out

    def test_jpq_rejects_bad_parameters(self, capsys):
        code, _, err = run(capsys, "jpq", "-p", "0", "-q", "1", "3_1")
        assert code == 1 and err.startswith("error:")

    def test_bing_figure_eight(self, capsys):
        code, out, err = run(capsys, "bing", "4_1")
        assert code == 0 and err == ""
        assert "verdict = NOT_ALG_SLICE\n" in out
        assert "conclusion = B(K) is not slice\n" in out
        assert "arf_certificate = true\n" in out
        assert_no_affirmative_slice(out)

    def test_bing_range(self, capsys):
        code, out, _ = run(capsys, "bing", "--range", "1", "6_1")
        assert code == 0
        assert "check_range = 1\n" in out
        assert out.count("crosscheck_") == 1


class TestSizeBounds:
    @pytest.mark.parametrize("argv, bound", [
        (["cable", "-n", "100000", "3_1"], "bound 64"),
        (["cable", "-n", "65", "3_1"], "bound 64"),
        (["jpq", "-p", "3", "-q", "99999", "3_1"], "bound 64"),
        (["jpq", "-p", "32", "-q", "33", "3_1"], "bound 64"),
        (["bing", "--range", "99999", "3_1"], "bound 8"),
        (["bing", "--range", "9", "3_1"], "bound 8"),
        (["foxorder", "-p", "4097", "4_1"], "bound 4096"),
        (["cover", "-p", "4097", "4_1"], "bound 4096"),
        (["foxorder", "-p", "10" * 40, "4_1"], "bound 4096"),
    ], ids=["cable-huge", "cable-next", "jpq-huge", "jpq-next", "bing-huge", "bing-next",
            "foxorder-next", "cover-next", "foxorder-huge"])
    def test_above_the_bound_exits_2_at_once(self, capsys, monkeypatch, argv, bound):
        # the bound is checked before any work: nothing is even loaded
        monkeypatch.setattr(cli, "_load_seifert", None)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and bound in err

    def test_the_bounds_themselves_are_accepted(self, capsys):
        assert (cli.MAX_POWER, cli.MAX_RANGE) == (64, 8)
        code, out, _ = run(capsys, "jpq", "-p", "1", "-q", "63", "6_1")
        assert code == 0 and out.startswith("name = J(1,63) of 6_1\n")


    def test_the_degree_bound_is_accepted(self, capsys):
        assert cli.MAX_DEGREE == 4096
        code, out, _ = run(capsys, "foxorder", "-p", "4096", "3_1")
        assert (code, out) == (0, "order = 3\n")


def decimal_value(digits):
    """int(digits) past Python's int <-> str digit limit, 1000 digits at a time."""
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


class TestLongIntegers:
    """Entries and results past Python's 4300-digit int <-> str limit are
    read and printed exactly, and the limit is restored after the run."""

    def test_long_entry_parses_and_prints(self, capsys, tmp_path):
        f = tmp_path / "long.mat"
        f.write_text("2\n1%s 1\n0 1\n" % ("0" * 5000))
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "invariants", "--file", str(f))
        assert (code, err) == (0, "")
        # A + A^T = [[2 10^5000, 1], [1, 2]]
        assert "determinant = 3%s\n" % ("9" * 5000) in out
        assert sys.get_int_max_str_digits() == limit

    def test_long_order_prints_exactly(self, capsys, tmp_path):
        f = tmp_path / "twist.mat"
        f.write_text("2\n-1 1\n0 1000000\n")
        code, out, err = run(capsys, "foxorder", "-p", "1000", "--file", str(f))
        assert (code, err) == (0, "")
        digits = out.removeprefix("order = ").removesuffix("\n")
        assert len(digits) > 4300
        expected = branched_cover_homology_order(alexander(parse_seifert(f.read_text())), 1000)
        assert decimal_value(digits) == expected


class TestCatalogAndBatch:
    def test_catalog_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert len(out.splitlines()) == 15
        assert "3_1  (2x2)  trefoil; signature -2, Arf 1\n" in out

    def test_catalog_show(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "trefoil")
        assert code == 0
        assert out == ("# name: 3_1\n2\n-1 1\n0 -1\n"
                       "# notes: trefoil; signature -2, Arf 1\n")

    def test_catalog_show_unknown(self, capsys):
        code, _, err = run(capsys, "catalog", "show", "no_such_knot")
        assert code == 2
        assert err == "error: unknown catalog entry: no_such_knot\n"

    def test_catalog_show_without_name(self, capsys):
        code, _, err = run(capsys, "catalog", "show")
        assert code == 1 and err.startswith("error:")

    def test_batch_order_and_name_fallback(self, capsys, tmp_path):
        a = tmp_path / "a.mat"
        b = tmp_path / "b.mat"
        a.write_text(TREFOIL_FILE)
        b.write_text("# name: custom\n2\n1 1\n0 -2\n")
        code, out, _ = run(capsys, "batch", str(a), str(b))
        assert code == 0
        assert out.index("name = a.mat\n") < out.index("name = custom\n")

    def test_batch_names_an_unnamed_file_in_place(self, capsys, tmp_path, monkeypatch):
        # the basename is set on the parsed matrix, which is not rebuilt, so
        # det(A - A^T) is taken once
        a = parse_seifert(TREFOIL_FILE).matrix
        skew = a - a.transpose()
        dets = []
        original = ExactMatrix.det

        def counting(m):
            dets.append(m)
            return original(m)

        monkeypatch.setattr(ExactMatrix, "det", counting)
        path = tmp_path / "unnamed.mat"
        path.write_text(TREFOIL_FILE)
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 0 and out.startswith("name = unnamed.mat\n")
        assert [m for m in dets if m == skew] == [skew]

    def test_batch_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "batch", str(tmp_path / "absent.mat"))
        assert code == 2 and err.startswith("error:")


class TestFilesAndErrors:
    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "k.mat"
        path.write_text(TREFOIL_FILE)
        code, out, _ = run(capsys, "alexander", "--file", str(path))
        assert code == 0 and out == "alexander = t^2 - t + 1\n"

    def test_unnamed_file_takes_basename(self, capsys, tmp_path):
        path = tmp_path / "unnamed.mat"
        path.write_text(TREFOIL_FILE)
        code, out, _ = run(capsys, "invariants", "--file", str(path))
        assert code == 0 and out.startswith("name = unnamed.mat\n")

    def test_file_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2\n-1 x\n0 -1\n")
        code, _, err = run(capsys, "alexander", "--file", str(path))
        assert code == 2
        assert err.startswith("error:") and "line 2" in err

    @pytest.mark.parametrize("size", ["--2", "\u00b2"], ids=["double-minus", "superscript-two"])
    def test_malformed_size_line(self, capsys, tmp_path, size):
        # a size is -?[0-9]+; both of these pass str.isdigit() once one
        # leading "-" is stripped, and int() rejects them
        path = tmp_path / "bad.mat"
        path.write_text(size + "\n-1 1\n0 -1\n", encoding="utf-8")
        code, _, err = run(capsys, "invariants", "--file", str(path))
        assert code == 2
        assert err.startswith("error: malformed size line") and "(line 1)" in err

    @pytest.mark.parametrize("token", ["1.5", "1e3", "1_0", "\u0663", "1/00"],
                             ids=["decimal", "exponent", "underscore",
                                  "arabic-indic-three", "zero-denominator"])
    def test_malformed_entry(self, capsys, tmp_path, token):
        # an entry is an ASCII integer or a/b; Fraction() alone takes the
        # first four, and reads the Arabic-Indic digit as 3
        path = tmp_path / "bad.mat"
        path.write_text("2\n%s 1\n0 -1\n" % token, encoding="utf-8")
        code, _, err = run(capsys, "alexander", "--file", str(path))
        assert code == 2
        assert err.startswith("error: malformed number") and "line 2, col 1" in err

    @pytest.mark.parametrize("argv", [("arf", "--file"), ("batch",)], ids=["arf", "batch"])
    def test_file_not_utf8_is_an_input_error(self, capsys, tmp_path, argv):
        # UnicodeDecodeError is a ValueError, which maps to 1 (usage error)
        path = tmp_path / "latin.mat"
        path.write_bytes(b"\xff\xfe2\n")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: %s is not UTF-8 text" % path) and "0xff" in err

    def test_rational_input_rejected_where_integrality_needed(
            self, capsys, tmp_path):
        path = tmp_path / "r.mat"
        path.write_text("2\n1/2 1\n0 -1/2\n")
        code, _, err = run(capsys, "arf", "--file", str(path))
        assert code == 2 and err.startswith("error:")

    def test_unknown_knot_name(self, capsys):
        code, _, err = run(capsys, "alexander", "nope")
        assert code == 2
        assert err == "error: unknown catalog entry: nope\n"

    def test_missing_knot_argument(self, capsys):
        code, _, err = run(capsys, "alexander")
        assert code == 1
        assert "a catalog knot name or --file is required" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1 and "error:" in err

    def test_no_arguments(self, capsys):
        code, _, err = run(capsys)
        assert code == 1 and "error:" in err

    def test_internal_error_maps_to_3(self, capsys, monkeypatch):
        import bingcheck.cli as cli_module

        def boom(s, check_range):
            raise InternalInvariantError("cross-check failed")

        monkeypatch.setattr(cli_module, "bing_double_verdict", boom)
        code, _, err = run(capsys, "bing", "4_1")
        assert code == 3
        assert err == "error: cross-check failed\n"

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_exits_zero(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and out


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, capsys):
        first = run(capsys, "invariants", "4_1")
        second = run(capsys, "invariants", "4_1")
        assert first == second

    def test_no_color_env_is_honored(self, capsys, monkeypatch):
        plain = run(capsys, "sigfn", "3_1")
        monkeypatch.setenv("BINGCHECK_NO_COLOR", "1")
        assert run(capsys, "sigfn", "3_1") == plain


class TestEntryPoints:
    def test_python_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bingcheck.cli", "foxorder", "-p", "3", "3_1"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=PACKAGE_PARENT),
        )
        assert proc.returncode == 0
        assert proc.stdout == "order = 4\n"

    def test_console_script(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        setuptools = pytest.importorskip("setuptools")
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            pyproject = tomllib.load(fh)
        module, _, attr = pyproject["project"]["scripts"]["bingcheck"].partition(":")

        # An install ships the package the script imports.
        find = pyproject["tool"]["setuptools"]["packages"]["find"]
        shipped = {pkg for where in find["where"]
                   for pkg in setuptools.find_packages(where=str(REPO_ROOT / where))}
        assert module.split(".")[0] in shipped

        # The wrapper an installer generates for ``bingcheck = module:attr``.
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "bingcheck"
        script.write_text("#!%s\nimport sys\nfrom %s import %s\nsys.exit(%s())\n"
                          % (sys.executable, module, attr, attr))
        script.chmod(0o755)
        env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT,
                   PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", os.defpath)]))
        proc = subprocess.run(
            ["bingcheck", "arf", "3_1"], capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == "arf = 1\n"
