"""Built-in knot catalog, Seifert-matrix file ingestion, and report text.

Matrix text format: an optional header line ``# name: <string>``, a size
line ``n`` (or ``n m``), then n whitespace-separated rows with integer or
``a/b`` entries in ASCII digits, b nonzero.  Lines starting with ``#`` and
blank lines are skipped.
Parse errors carry the 1-based line (and column where it applies); the
admissibility error for a singular pairing names the line the matrix
starts on.

The report text is line-oriented ``key = value`` pairs followed by two CSV
blocks (``u_lo,u_hi,signature`` arcs and ``u_lo,u_hi,nullity`` jumps), with
LF line endings, byte-identical across runs on equal inputs.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .errors import AdmissibilityError, ParseError, UnknownEntryError
from .seifert import SeifertMatrix
from .witt import BingReport, ObstructionReport

__all__ = [
    "CatalogEntry",
    "builtin_catalog",
    "catalog_lookup",
    "format_report",
    "parse_seifert",
    "print_seifert",
]


class CatalogEntry(namedtuple("CatalogEntry", "name seifert notes")):
    """A built-in knot: its `name` and `notes` (strs) and its
    SeifertMatrix `seifert`."""

    __slots__ = ()


def _entry(name, rows, notes):
    return CatalogEntry(name, SeifertMatrix(rows, name=name), notes)


def builtin_catalog():
    """The built-in catalog: small genus-one knots and the twist family
    twist(n) with Seifert matrix [[-1, 1], [0, n]] (twist(-1) is the
    trefoil's matrix, twist(1) shares the figure-eight polynomial)."""
    entries = [
        _entry("unknot", [], "slice"),
        _entry("3_1", [[-1, 1], [0, -1]], "trefoil; signature -2, Arf 1"),
        _entry("4_1", [[1, 1], [0, -1]], "figure-eight; amphichiral, Arf 1"),
        _entry("6_1", [[1, 1], [0, -2]], "stevedore; slice"),
    ]
    for n in range(-5, 6):
        entries.append(
            _entry("twist(%d)" % n, [[-1, 1], [0, n]], "twist family")
        )
    return tuple(entries)


_ALIASES = {
    "trefoil": "3_1",
    "figure8": "4_1",
    "figure-eight": "4_1",
    "stevedore": "6_1",
    "0_1": "unknot",
}


def catalog_lookup(name: str) -> CatalogEntry:
    """Entry by name or alias; raises UnknownEntryError otherwise."""
    canonical = _ALIASES.get(name, name)
    for entry in builtin_catalog():
        if entry.name == canonical:
            return entry
    raise UnknownEntryError("unknown catalog entry: %s" % name)


# -- matrix text format -------------------------------------------------------

def print_seifert(s: SeifertMatrix) -> str:
    """Matrix text for a Seifert matrix; parse_seifert inverts this."""
    lines = []
    if s.name:
        lines.append("# name: %s" % s.name)
    lines.append(str(s.size))
    for row in s.entries:
        lines.append(" ".join(str(e) for e in row))
    return "\n".join(lines) + "\n"


def _significant_lines(text: str):
    """(line_number, content) for non-blank non-comment lines, plus the name
    from the first `# name:` header if any."""
    name = ""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            m = re.match(r"#\s*name\s*:\s*(.*)$", stripped)
            if m and not name:
                name = m.group(1).strip()
            continue
        out.append((i, raw))
    return name, out


def parse_seifert(text: str) -> SeifertMatrix:
    """Parse the matrix text format into an admissible SeifertMatrix.

    >>> parse_seifert("2\\n-1 1\\n0 -1\\n").entries
    ((Fraction(-1, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(-1, 1)))
    """
    name, lines = _significant_lines(text)
    if not lines:
        raise ParseError("empty matrix text")
    size_lineno, size_line = lines[0]
    dims = size_line.split()
    if len(dims) not in (1, 2) or not all(re.fullmatch(r"-?[0-9]+", d) for d in dims):
        raise ParseError("malformed size line %r" % size_line.strip(),
                         line=size_lineno)
    n = int(dims[0])
    m = int(dims[1]) if len(dims) == 2 else n
    if n < 0 or m < 0:
        raise ParseError("negative matrix size", line=size_lineno)
    if n != m:
        raise AdmissibilityError(
            "Seifert matrices are square, got %dx%d (line %d)"
            % (n, m, size_lineno)
        )
    if len(lines) - 1 < n:
        raise ParseError(
            "expected %d matrix rows, found %d" % (n, len(lines) - 1),
            line=lines[-1][0],
        )
    if len(lines) - 1 > n:
        raise ParseError("unexpected trailing content", line=lines[n + 1][0])
    rows = []
    for lineno, raw in lines[1:n + 1]:
        tokens = list(re.finditer(r"\S+", raw))
        if len(tokens) != m:
            raise ParseError(
                "expected %d entries in row, found %d" % (m, len(tokens)),
                line=lineno,
            )
        row = []
        for tok in tokens:
            # an ASCII integer or a/b with b != 0; Fraction alone would also
            # take decimals, exponents, underscores and non-ASCII digits
            if not re.fullmatch(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", tok.group()):
                raise ParseError(
                    "malformed number %r" % tok.group(),
                    line=lineno, col=tok.start() + 1,
                )
            try:
                row.append(Fraction(tok.group()))
            except ValueError as exc:  # above Python's int <-> str digit limit
                raise ParseError("cannot convert number: %s" % exc,
                                 line=lineno, col=tok.start() + 1) from None
        rows.append(row)
    try:
        return SeifertMatrix(rows, name=name)
    except AdmissibilityError as exc:
        raise AdmissibilityError(
            "%s (matrix starting at line %d)" % (exc, size_lineno)
        ) from None


# -- report serialization -----------------------------------------------------

def _flag(value) -> str:
    if value is None:
        return "not-applicable"
    return "true" if value else "false"


def _na(value) -> str:
    return "not-applicable" if value is None else str(value)


def _csv_blocks(signature) -> list:
    lines = ["arcs:", "u_lo,u_hi,signature"]
    for u_lo, u_hi, sig in signature.arc_rows():
        lines.append("%s,%s,%s" % (u_lo, u_hi, sig))
    lines.append("jumps:")
    lines.append("u_lo,u_hi,nullity")
    for u_lo, u_hi, nullity in signature.jump_rows():
        lines.append("%s,%s,%s" % (u_lo, u_hi, nullity))
    return lines


def _battery_lines(r: ObstructionReport, verdict_prefix: str = "") -> list:
    lines = [
        "ring = %s" % r.ring,
        "alexander = %s" % r.alexander,
        "fox_milnor = %s" % ("pass" if r.fox_milnor.passes else "fail"),
    ]
    if r.fox_milnor.passes:
        lines.append("fox_milnor_witness = %s" % r.fox_milnor.witness)
    lines.append("signature_zero = %s" % _flag(r.signature.is_zero))
    lines.append("arf = %s" % _na(r.arf))
    lines.append("determinant = %s" % _na(r.determinant))
    lines.append("determinant_square = %s" % _flag(r.determinant_is_square))
    lines.append(
        "cyclotomic_factors = %s"
        % (", ".join(str(d) for d in r.cyclotomic) if r.cyclotomic else "(none)")
    )
    lines.append("%sverdict = %s" % (verdict_prefix, r.verdict))
    if r.certificate is not None:
        lines.append("%scertificate = %s" % (verdict_prefix, r.certificate))
    return lines


def format_report(report) -> str:
    """Deterministic text form of an ObstructionReport or BingReport."""
    if isinstance(report, ObstructionReport):
        lines = ["name = %s" % report.name]
        lines += _battery_lines(report)
        lines += _csv_blocks(report.signature)
        return "\n".join(lines) + "\n"
    if isinstance(report, BingReport):
        b = report.battery
        lines = ["name = %s" % b.name, "check_range = %d" % report.check_range]
        lines += _battery_lines(b, verdict_prefix="battery_")
        lines.append("verdict = %s" % report.verdict)
        if report.certificate is not None:
            lines.append("certificate = %s" % report.certificate)
        if report.conclusion is not None:
            lines.append("conclusion = %s" % report.conclusion)
        lines.append("arf_certificate = %s" % _flag(report.arf_certificate))
        if report.arf_certificate:
            lines.append("arf_conclusion = Arf is 1, so B(K) is not slice")
        for c in report.crosschecks:
            lines.append(
                "crosscheck_p%d_q%d = additivity %s, telescoping %s"
                % (c.p, c.q, c.additivity, c.telescoping)
            )
        lines += _csv_blocks(b.signature)
        return "\n".join(lines) + "\n"
    raise TypeError("unsupported report type %r" % type(report).__name__)
