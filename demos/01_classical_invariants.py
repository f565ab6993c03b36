"""Classical abelian invariants from a Seifert matrix.

A Seifert matrix A (integer entries, det(A - A^T) = +-1) determines the
Alexander polynomial Delta(t) = det(A - t A^T) up to units, the knot
determinant |Delta(-1)|, the Arf invariant, and the Fox-Milnor test: an
algebraically slice knot has Delta(t) = f(t) f(1/t) up to units.  All of
it is computed exactly — no floats anywhere.
"""

from bingcheck import (
    alexander,
    arf,
    builtin_catalog,
    catalog_lookup,
    connected_sum,
    determinant_invariant,
    factor_rational,
    fox_milnor,
    mirror,
)


def describe(name):
    s = catalog_lookup(name).seifert
    delta = alexander(s)
    fm = fox_milnor(delta, factor_rational(delta)[1])
    print("%-12s Delta = %-18s det = %-3d Arf = %d  Fox-Milnor %s"
          % (name, delta, determinant_invariant(s), arf(s),
             "pass (f = %s)" % fm.witness if fm.passes else "fail"))


print("== the three standard small knots ==")
for name in ("3_1", "4_1", "6_1"):
    describe(name)

print()
print("== the twist-knot sweep ==")
for n in range(-5, 6):
    describe("twist(%d)" % n)

print()
print("== mirrors and connected sums ==")
trefoil = catalog_lookup("3_1").seifert
square_knot = connected_sum(trefoil, mirror(trefoil))
delta = alexander(square_knot)
print("K # -K (square knot): Delta =", delta)
print("  Fox-Milnor:", "pass" if fox_milnor(delta, factor_rational(delta)[1]).passes
      else "fail")
print("  Arf:", arf(square_knot), " (additive mod 2: 1 + 1 = 0)")

print()
print("== every catalog entry passes the slice sanity checks ==")
for entry in builtin_catalog():
    delta = alexander(entry.seifert)
    assert delta(1) in (1, -1), entry.name
print("Delta(1) = +-1 for all %d entries" % len(builtin_catalog()))
