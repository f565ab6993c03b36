"""The headline pipeline: obstructing sliceness of a Bing double.

If the Bing double B(K) is slice then K is algebraically slice, and in
particular Arf(K) = 0.  Contrapositively, any failure of the necessary
conditions for algebraic sliceness — Fox-Milnor, vanishing signature
function, Arf, square determinant — certifies that B(K) is not slice.

The verdict is the battery's, and it comes with machinery cross-checks
that add no certificate: the J(p,q) presentations (block sums of the
t -> t^k substitutions for k = p, p+q, q) must have additive signatures,
and whenever a J(p,q) battery finds no obstruction the telescoping
identity between phi_(q-1) and phi_(q+1) must hold at the level of
signature step functions.  A failure of either is an internal error.
"""

from bingcheck import (
    bing_double_verdict,
    catalog_lookup,
    format_report,
    jpq_presentation,
    presentation_battery,
)

figure_eight = catalog_lookup("4_1").seifert
stevedore = catalog_lookup("6_1").seifert

print("== J(p,q) batteries for the figure-eight companion ==")
for p, q in ((1, 1), (1, 2), (2, 1)):
    report = presentation_battery(jpq_presentation(figure_eight, p, q),
                                  name="J(%d,%d) of 4_1" % (p, q))
    print("  J(%d,%d): %s%s" % (p, q, report.verdict,
                                "  [certificate: %s]" % report.certificate
                                if report.certificate else ""))
print()

print("== full Bing-double verdict for the figure-eight knot ==")
print(format_report(bing_double_verdict(figure_eight, check_range=2)), end="")
print()

print("== control: the stevedore knot (slice, so nothing may fire) ==")
report = bing_double_verdict(stevedore, check_range=3)
print("verdict:", report.verdict)
print("all %d cross-checks:" % len(report.crosschecks),
      ", ".join(sorted({c.additivity for c in report.crosschecks})),
      "/", ", ".join(sorted({c.telescoping for c in report.crosschecks})))
print()
print("The tool never claims a knot or its double IS slice; a clean run")
print("only means no obstruction was found.")
