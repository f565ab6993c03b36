"""Tests for the built-in catalog, matrix parsing, and report text."""

from fractions import Fraction

import pytest

from bingcheck.errors import AdmissibilityError, ParseError, UnknownEntryError
from bingcheck.laurent import parse_poly
from bingcheck.catalog import (
    builtin_catalog,
    catalog_lookup,
    format_report,
    parse_seifert,
    print_seifert,
)
from bingcheck.seifert import alexander
from bingcheck.witt import bing_double_verdict, obstruction_battery


class TestBuiltinCatalog:
    def test_required_entries(self):
        got = {e.name: e.seifert.entries for e in builtin_catalog()}
        assert got["unknot"] == ()
        assert got["3_1"] == ((-1, 1), (0, -1))
        assert got["4_1"] == ((1, 1), (0, -1))
        assert got["6_1"] == ((1, 1), (0, -2))
        for n in range(-5, 6):
            assert got["twist(%d)" % n] == ((-1, 1), (0, n))

    def test_names_unique(self):
        names = [e.name for e in builtin_catalog()]
        assert len(names) == len(set(names))

    def test_all_entries_integral_unimodular(self):
        for e in builtin_catalog():
            a = e.seifert.matrix
            assert abs((a - a.transpose()).det()) == 1

    def test_lookup(self):
        assert catalog_lookup("unknot").seifert.size == 0
        assert alexander(catalog_lookup("4_1").seifert) \
            == parse_poly("t^2 - 3t + 1")

    def test_aliases(self):
        assert catalog_lookup("trefoil").name == "3_1"
        assert catalog_lookup("figure8").name == "4_1"
        assert catalog_lookup("figure-eight").name == "4_1"
        assert catalog_lookup("stevedore").name == "6_1"

    def test_unknown_entry(self):
        with pytest.raises(UnknownEntryError, match="unknown catalog entry"):
            catalog_lookup("no_such_knot")


class TestParseSeifert:
    def test_trefoil(self):
        s = parse_seifert("2\n-1 1\n0 -1\n")
        assert s.entries == ((-1, 1), (0, -1))
        assert s.integral

    def test_header_name(self):
        s = parse_seifert("# name: my knot\n2\n-1 1\n0 -1\n")
        assert s.name == "my knot"

    def test_comments_and_blanks_skipped(self):
        s = parse_seifert("# a comment\n\n2\n# another\n-1 1\n\n0 -1\n")
        assert s.entries == ((-1, 1), (0, -1))

    def test_explicit_two_dimensional_size(self):
        assert parse_seifert("2 2\n-1 1\n0 -1\n").size == 2

    def test_empty_matrix(self):
        assert parse_seifert("0\n").size == 0

    def test_rational_entries(self):
        s = parse_seifert("2\n1/2 1\n0 -1/2\n")
        assert not s.integral
        assert s.entries[0][0] == parse_poly("1/2").coeff(0)

    def test_symmetric_rejected_with_location(self):
        with pytest.raises(AdmissibilityError, match="line 1"):
            parse_seifert("2\n1 0\n0 1\n")

    def test_malformed_number_located(self):
        with pytest.raises(ParseError, match=r"line 2, col 4"):
            parse_seifert("2\n-1 x\n0 -1\n")

    def test_number_past_the_digit_limit_located(self):
        # Python refuses int <-> str conversion past 4300 digits by default
        with pytest.raises(ParseError, match=r"cannot convert.*\(line 3, col 3\)"):
            parse_seifert("2\n-1 1\n0 " + "9" * 5001 + "\n")

    def test_ragged_row(self):
        with pytest.raises(ParseError, match="expected 2 entries.*line 3"):
            parse_seifert("2\n-1 1\n0\n")

    def test_missing_rows(self):
        with pytest.raises(ParseError, match="expected 2 matrix rows"):
            parse_seifert("2\n-1 1\n")

    def test_trailing_content(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_seifert("2\n-1 1\n0 -1\n5 5\n")

    def test_bad_size_line(self):
        with pytest.raises(ParseError, match="size"):
            parse_seifert("two\n")

    def test_non_square_rejected(self):
        with pytest.raises(AdmissibilityError, match="square"):
            parse_seifert("2 3\n1 2 3\n4 5 6\n")

    def test_empty_text(self):
        with pytest.raises(ParseError):
            parse_seifert("   \n# only a comment\n")

    def test_parse_print_identity_on_catalog(self):
        for e in builtin_catalog():
            back = parse_seifert(print_seifert(e.seifert))
            assert back == e.seifert
            assert back.name == e.name


def report_fields(text):
    """The `key = value` lines of a report as a dict of strings, and its arc
    and jump CSV rows as (Fraction, Fraction, int) tuples."""
    fields, blocks, block = {}, {"arcs": [], "jumps": []}, None
    for line in text.splitlines():
        if line in ("arcs:", "jumps:"):
            block = line[:-1]
        elif block is None:
            key, value = line.split(" = ", 1)
            fields[key] = value
        elif not line.startswith("u_lo,"):
            lo, hi, n = line.split(",")
            blocks[block].append((Fraction(lo), Fraction(hi), int(n)))
    return fields, blocks["arcs"], blocks["jumps"]


class TestReportIO:
    def test_unknot_verdict_line(self):
        text = format_report(obstruction_battery(catalog_lookup("unknot").seifert))
        assert "verdict = NO_OBSTRUCTION_FOUND\n" in text

    def test_trefoil_pinned_lines(self):
        text = format_report(obstruction_battery(catalog_lookup("3_1").seifert))
        assert "arf = 1\n" in text
        assert "determinant = 3\n" in text
        assert "certificate = fox_milnor\n" in text

    def test_byte_stability(self):
        s = catalog_lookup("3_1").seifert
        assert format_report(obstruction_battery(s)) \
            == format_report(obstruction_battery(s))

    def test_report_text_utf8_lf(self):
        text = format_report(obstruction_battery(catalog_lookup("4_1").seifert))
        data = text.encode("utf-8")
        assert b"\r" not in data
        assert data.decode("utf-8").endswith("\n")

    def test_battery_round_trip(self):
        report = obstruction_battery(catalog_lookup("3_1").seifert)
        fields, arcs, jumps = report_fields(format_report(report))
        assert fields["name"] == "3_1"
        assert fields["ring"] == "Z"
        assert parse_poly(fields["alexander"]) == report.alexander
        assert fields["fox_milnor"] == "fail"
        assert fields["signature_zero"] == "false"
        assert fields["arf"] == str(report.arf)
        assert fields["determinant"] == str(report.determinant)
        assert fields["determinant_square"] == "false"
        assert fields["cyclotomic_factors"] == ", ".join(str(d) for d in report.cyclotomic)
        assert fields["verdict"] == report.verdict
        assert fields["certificate"] == report.certificate
        assert arcs == report.signature.arc_rows()
        assert jumps == report.signature.jump_rows()

    def test_not_applicable_round_trip(self):
        from bingcheck.cover import covering_seifert_matrix
        s = covering_seifert_matrix(catalog_lookup("3_1").seifert, 3)
        fields, _, _ = report_fields(format_report(obstruction_battery(s)))
        assert fields["arf"] == "not-applicable"
        assert fields["determinant"] == "not-applicable"
        assert fields["ring"] == "Q"
        assert fields["fox_milnor"] == "pass"

    def test_bing_round_trip(self):
        report = bing_double_verdict(catalog_lookup("4_1").seifert, 2)
        fields, _, _ = report_fields(format_report(report))
        assert fields["check_range"] == "2"
        assert fields["battery_verdict"] == "NOT_ALG_SLICE"
        assert fields["verdict"] == "NOT_ALG_SLICE"
        assert fields["conclusion"] == "B(K) is not slice"
        assert fields["arf_certificate"] == "true"
        assert fields["crosscheck_p1_q1"] == "additivity pass, telescoping verified"
