"""Command-line front end.

Exit codes: 0 = computed (whatever the verdict), 1 = usage error, 2 =
input/parse/admissibility error or a size parameter above its bound, 3 =
internal invariant violation.  All errors go to stderr with an ``error:``
prefix.  Output is deterministic plain text (the BINGCHECK_NO_COLOR
convention is honored trivially: no styling is ever emitted), so identical
invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import BingcheckError, InternalInvariantError, ParseError, SizeBoundError
from .factor import factor_rational
from .seifert import SeifertMatrix, alexander, arf, fox_milnor, signature_function
from .cover import branched_cover_homology_order, covering_seifert_matrix
from .witt import (
    bing_double_verdict,
    from_seifert,
    jpq_presentation,
    obstruction_battery,
    phi,
    presentation_battery,
)
from .catalog import (
    _csv_blocks,
    builtin_catalog,
    catalog_lookup,
    format_report,
    parse_seifert,
    print_seifert,
)

__all__ = ["main"]

# Bounds on the size parameters, checked before any work.  Timed on one
# core of a 2-vCPU Xeon (Python 3.11): at the largest power t -> t^64,
# `cable -n 64` takes up to 0.2 s on a genus-1 catalog knot and 0.9 s on a
# genus-2 form (factoring Delta(t^64), of degree 256, is most of it), and
# the time grows about 4x for each doubling of n.
# `bing --range R` runs R(R + 1)/2 J(p, q) batteries with powers up to 2R:
# at R = 8, 1-3 s on genus-1 catalog knots and 10 s on a genus-2 form;
# R = 16 takes 33 s on 3_1.  At the largest covering degree p = 4096,
# `foxorder -p` takes at most 3 ms on a catalog knot (twist(5)) and
# 0.01-0.16 s on four random genus-2 forms (at p = 8000, 10 ms and
# 0.04-0.54 s); `cover -p` takes 0.4-0.6 s on genus-1 catalog knots and
# 2.7 s on a genus-2 form.
MAX_POWER = 64
MAX_RANGE = 8
MAX_DEGREE = 4096


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("error: %s" % message, file=sys.stderr)
        raise SystemExit(1)


def _add_knot_arguments(sp):
    sp.add_argument("knot", nargs="?", metavar="KNOT",
                    help="catalog name (try `bingcheck catalog list`)")
    sp.add_argument("--file", metavar="PATH",
                    help="read the Seifert matrix from a file instead")


def _read_seifert_file(path) -> SeifertMatrix:
    """Parse a matrix file; an unnamed matrix takes the file's basename."""
    try:
        with open(path, encoding="utf-8") as fh:
            s = parse_seifert(fh.read())
    except UnicodeDecodeError as exc:  # a ValueError, which would exit 1
        raise ParseError("%s is not UTF-8 text: byte 0x%02x at offset %d"
                         % (path, exc.object[exc.start], exc.start)) from None
    if not s.name:
        s.name = os.path.basename(path)
    return s


def _load_seifert(args) -> SeifertMatrix:
    if args.file:
        return _read_seifert_file(args.file)
    if args.knot:
        return catalog_lookup(args.knot).seifert
    raise ValueError("a catalog knot name or --file is required")


def _emit(text: str) -> None:
    sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bingcheck",
        description="Exact slice obstructions for knots and their Bing doubles.",
        epilog="The tool only ever reports obstructions ('not slice') or "
               "'no obstruction found'; it never claims a knot is slice.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser(
        "invariants",
        help="full obstruction battery",
        description="Run every implemented necessary condition for algebraic "
                    "sliceness: Fox-Milnor factorization of the Alexander "
                    "polynomial, vanishing of the signature step function, "
                    "the Arf invariant, and squareness of the determinant. "
                    "The first failing test is the verdict's certificate.",
    )
    _add_knot_arguments(sp)

    sp = sub.add_parser(
        "alexander",
        help="Alexander polynomial",
        description="Alexander polynomial det(A - t A^T), normalized to "
                    "lowest exponent 0 with a positive constant term.",
    )
    _add_knot_arguments(sp)

    sp = sub.add_parser(
        "sigfn",
        help="signature step function",
        description="Exact step function of the signature of "
                    "(1-t)A + (1-1/t)A^T on the unit circle, reported as arcs "
                    "in u = 2cos(2 pi theta) with the jump locations and "
                    "their nullities. A nonzero arc obstructs algebraic "
                    "sliceness.",
    )
    _add_knot_arguments(sp)

    sp = sub.add_parser(
        "arf",
        help="Arf invariant",
        description="Arf invariant of an integral Seifert matrix: 0 exactly "
                    "when Delta(-1) is congruent to +-1 mod 8. Arf 1 "
                    "obstructs sliceness, and a knot with Arf 1 has a "
                    "non-slice Bing double.",
    )
    _add_knot_arguments(sp)

    sp = sub.add_parser(
        "foxmilnor",
        help="Fox-Milnor factorization test",
        description="An algebraically slice knot's Alexander polynomial "
                    "factors as f(t) f(1/t) up to units; this checks the "
                    "factorization over Q and prints a witness f when it "
                    "exists.",
    )
    _add_knot_arguments(sp)

    sp = sub.add_parser(
        "cable",
        help="battery for the n-cable presentation",
        description="Substitute t -> t^n in the knot's Hermitian presentation "
                    "(the n-cable's pairing) and run the presentation "
                    "battery; the cable's signature at angle theta equals "
                    "the companion's at n theta.",
    )
    sp.add_argument("-n", type=int, required=True, metavar="N",
                    help="cabling parameter, 1 <= n <= %d" % MAX_POWER)
    _add_knot_arguments(sp)

    sp = sub.add_parser(
        "cover",
        help="covering Seifert matrix and its battery",
        description="Rational Seifert matrix of the knot's preimage in the "
                    "p-fold cyclic branched cover, built from "
                    "G = (A - A^T)^(-1) A, followed by its obstruction "
                    "battery (rational coefficients, so Arf and determinant "
                    "do not apply).",
    )
    sp.add_argument("-p", type=int, required=True, metavar="P",
                    help="covering degree, 2 <= p <= %d" % MAX_DEGREE)
    _add_knot_arguments(sp)

    sp = sub.add_parser(
        "foxorder",
        help="branched-cover homology order",
        description="Order of the first homology of the p-fold cyclic "
                    "branched cover: the absolute product of Delta over the "
                    "nontrivial p-th roots of unity. INFINITE when Delta "
                    "vanishes at one of them.",
    )
    sp.add_argument("-p", type=int, required=True, metavar="P",
                    help="covering degree, 2 <= p <= %d" % MAX_DEGREE)
    _add_knot_arguments(sp)

    sp = sub.add_parser(
        "jpq",
        help="battery for the J(p,q) presentation",
        description="The J(p,q) construction on companion K has Witt class "
                    "phi_p + phi_(p+q) + phi_q of K's class; this builds that "
                    "presentation by block sum and runs the battery on it. "
                    "If K's Bing double is slice, every such battery must "
                    "come back clean.",
    )
    sp.add_argument("-p", type=int, required=True, metavar="P",
                    help="p >= 1, with p + q <= %d" % MAX_POWER)
    sp.add_argument("-q", type=int, required=True, metavar="Q", help="q >= 1")
    _add_knot_arguments(sp)

    sp = sub.add_parser(
        "bing",
        help="Bing-double verdict",
        description="A knot whose Bing double is slice is algebraically "
                    "slice; any failing battery test therefore certifies "
                    "that B(K) is not slice (Arf 1 gives an independent "
                    "certificate). Also verifies the machinery: J(p,q) "
                    "signature additivity and, where the J(p,q) battery "
                    "finds no obstruction, the telescoping identity between "
                    "phi_(q-1) and phi_(q+1). A failed check exits 3.",
    )
    sp.add_argument("--range", type=int, default=3, dest="check_range",
                    metavar="R",
                    help="cross-check bound for p, q (default 3, at most %d)" % MAX_RANGE)
    _add_knot_arguments(sp)

    sp = sub.add_parser(
        "catalog",
        help="list or show built-in knots",
        description="Built-in catalog of small knots and the twist family.",
    )
    sp.add_argument("action", choices=["list", "show"], metavar="list|show")
    sp.add_argument("name", nargs="?", metavar="NAME")

    sp = sub.add_parser(
        "batch",
        help="battery for each matrix file",
        description="Parse each file as a Seifert matrix and print one "
                    "obstruction report per input, in input order.",
    )
    sp.add_argument("files", nargs="+", metavar="FILE")

    return parser


def _run_catalog(args) -> None:
    if args.action == "list":
        lines = []
        for e in builtin_catalog():
            lines.append("%s  (%dx%d)  %s"
                         % (e.name, e.seifert.size, e.seifert.size, e.notes))
        _emit("\n".join(lines) + "\n")
        return
    if not args.name:
        raise ValueError("catalog show needs an entry name")
    entry = catalog_lookup(args.name)
    _emit(print_seifert(entry.seifert))
    _emit("# notes: %s\n" % entry.notes)


def _check_bounds(args) -> None:
    """Refuse a size parameter above its bound, before any work."""
    cmd = args.command
    if cmd == "cable" and args.n > MAX_POWER:
        raise SizeBoundError("cable -n %d is above the bound %d on the power n of t -> t^n"
                             % (args.n, MAX_POWER))
    if cmd == "jpq" and args.p + args.q > MAX_POWER:
        raise SizeBoundError("jpq -p %d -q %d is above the bound %d on p + q, the largest "
                             "power of t -> t^k" % (args.p, args.q, MAX_POWER))
    if cmd == "bing" and args.check_range > MAX_RANGE:
        raise SizeBoundError("bing --range %d is above the bound %d on the range"
                             % (args.check_range, MAX_RANGE))
    if cmd in ("cover", "foxorder") and args.p > MAX_DEGREE:
        raise SizeBoundError("%s -p %d is above the bound %d on the covering degree p"
                             % (cmd, args.p, MAX_DEGREE))


def _dispatch(args) -> None:
    cmd = args.command
    _check_bounds(args)
    if cmd == "catalog":
        _run_catalog(args)
        return
    if cmd == "batch":
        reports = []
        for path in args.files:
            s = _read_seifert_file(path)
            reports.append(format_report(obstruction_battery(s)))
        _emit("\n".join(reports))
        return

    s = _load_seifert(args)
    if cmd == "invariants":
        _emit(format_report(obstruction_battery(s)))
    elif cmd == "alexander":
        _emit("alexander = %s\n" % alexander(s))
    elif cmd == "sigfn":
        _emit("\n".join(_csv_blocks(signature_function(s))) + "\n")
    elif cmd == "arf":
        _emit("arf = %d\n" % arf(s))
    elif cmd == "foxmilnor":
        delta = alexander(s)
        result = fox_milnor(delta, factor_rational(delta)[1])
        _emit("fox_milnor = %s\n" % ("pass" if result.passes else "fail"))
        if result.passes:
            _emit("fox_milnor_witness = %s\n" % result.witness)
    elif cmd == "cable":
        if args.n < 1:
            raise ValueError("cable needs n >= 1")
        pres = phi(from_seifert(s), args.n)
        name = "%s cable %d" % (s.name or "(unnamed)", args.n)
        _emit(format_report(presentation_battery(pres, name=name)))
    elif cmd == "cover":
        cover = covering_seifert_matrix(s, args.p)
        cover.name = "%s cover %d" % (s.name or "(unnamed)", args.p)
        _emit(print_seifert(cover))
        _emit("\n")
        _emit(format_report(obstruction_battery(cover)))
    elif cmd == "foxorder":
        _emit("order = %s\n" % branched_cover_homology_order(alexander(s), args.p))
    elif cmd == "jpq":
        pres = jpq_presentation(s, args.p, args.q)
        name = "J(%d,%d) of %s" % (args.p, args.q, s.name or "(unnamed)")
        _emit(format_report(presentation_battery(pres, name=name)))
    elif cmd == "bing":
        _emit(format_report(bing_double_verdict(s, args.check_range)))
    else:  # pragma: no cover - argparse restricts the choices
        raise InternalInvariantError("unhandled subcommand %r" % cmd)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # exact entries and results can pass Python's int <-> str digit limit
    # (4300 digits since 3.10.7 and 3.11): lift it for the run, then restore it
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _dispatch(args)
    except InternalInvariantError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (BingcheckError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
