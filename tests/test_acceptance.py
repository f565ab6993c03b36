"""Acceptance suite: the nine headline guarantees, one test per criterion.

Every comparison is exact (integer / rational arithmetic); there are no
tolerances anywhere.  Each test prints a single ``ACCEPTANCE n: PASS`` line
on success (visible with ``pytest -s``; ``pytest -v`` shows the same
per-criterion status via the test names).
"""

import random
from fractions import Fraction

from bingcheck.laurent import LaurentPoly, normalize_unit, parse_poly
from bingcheck.intpoly import IntPoly, squarefree_part, sturm_isolate
from bingcheck.factor import factor_rational
from bingcheck.matrices import ExactMatrix
from bingcheck.fields import evaluated_hermitian_signature, root_of_unity
from bingcheck.seifert import (
    SeifertMatrix,
    alexander,
    arf,
    connected_sum,
    determinant_invariant,
    fox_milnor,
    mirror,
    signature_at,
    signature_function,
)
from bingcheck.cover import branched_cover_homology_order, covering_seifert_matrix
from bingcheck.witt import (
    NO_OBSTRUCTION_FOUND,
    cyclotomic_factors,
    from_seifert,
    jpq_presentation,
    obstruction_battery,
    phi,
    presentation_battery,
)
from bingcheck.catalog import builtin_catalog, catalog_lookup, print_seifert
from bingcheck.cli import main

CATALOG = builtin_catalog()
TREFOIL = catalog_lookup("3_1").seifert
FIGURE_EIGHT = catalog_lookup("4_1").seifert
STEVEDORE = catalog_lookup("6_1").seifert

# twenty fixed rational angles in (0, 1), denominators coprime to none in
# particular; multiples that land on the circle's basepoint are handled by
# the (0, size) convention below
ANGLES_20 = tuple(
    Fraction(a, q)
    for a, q in [
        (1, 5), (2, 5), (1, 7), (2, 7), (3, 7), (1, 8), (3, 8),
        (1, 9), (2, 9), (4, 9), (1, 11), (2, 11), (3, 11), (4, 11),
        (5, 11), (1, 12), (5, 12), (1, 13), (2, 13), (3, 13),
    ]
)


def fox_milnor_of(delta):
    return fox_milnor(delta, factor_rational(delta)[1])


def _ok(n, label):
    print("ACCEPTANCE %d: PASS — %s" % (n, label))


def _sig_with_basepoint(matrix, theta):
    """(signature, nullity) at e^{2 pi i theta}; at theta = 0 the evaluated
    form is identically zero, contributing (0, size)."""
    theta = theta % 1
    if theta == 0:
        return (0, matrix.rows)
    return evaluated_hermitian_signature(matrix, root_of_unity(theta))


def test_criterion_1_catalog_golden_values():
    assert alexander(TREFOIL) == parse_poly("t^2 - t + 1")
    assert signature_at(TREFOIL, Fraction(1, 2))[0] == -2
    assert arf(TREFOIL) == 1
    assert determinant_invariant(TREFOIL) == 3

    assert alexander(FIGURE_EIGHT) == parse_poly("t^2 - 3t + 1")
    assert signature_function(FIGURE_EIGHT).is_zero
    assert arf(FIGURE_EIGHT) == 1
    assert determinant_invariant(FIGURE_EIGHT) == 5
    assert not fox_milnor_of(alexander(FIGURE_EIGHT)).passes

    assert alexander(STEVEDORE) == parse_poly("2t^2 - 5t + 2")
    fm = fox_milnor_of(alexander(STEVEDORE))
    assert fm.passes and str(fm.witness) == "2t - 1"
    assert arf(STEVEDORE) == 0
    assert determinant_invariant(STEVEDORE) == 9
    _ok(1, "catalog golden values, exact")


def test_criterion_2_fox_formula(capsys):
    assert main(["foxorder", "-p", "2", "3_1"]) == 0
    assert capsys.readouterr().out == "order = 3\n"
    assert main(["foxorder", "-p", "3", "3_1"]) == 0
    assert capsys.readouterr().out == "order = 4\n"
    # Delta(t^p) has trivial branched-cover homology: the cover of the
    # (p,1)-cable's companion data is a homology sphere condition
    for entry in CATALOG:
        delta = alexander(entry.seifert)
        for p in (2, 3, 5):
            assert branched_cover_homology_order(delta.substitute_power(p), p) == 1
    with capsys.disabled():
        _ok(2, "Fox's formula: orders 3 and 4; Delta(t^p) covers trivial")


def test_criterion_3_covering_formula():
    cover = covering_seifert_matrix(TREFOIL, 3)
    assert cover.entries == (
        (Fraction(0), Fraction(1, 2)),
        (Fraction(-1, 2), Fraction(0)),
    )
    assert not cover.integral
    report = obstruction_battery(cover)
    assert report.verdict == NO_OBSTRUCTION_FOUND
    assert report.fox_milnor
    assert report.signature.is_zero
    _ok(3, "covering Seifert matrix exact; rational battery clean")


def test_criterion_4_jpq_consistency():
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            report = presentation_battery(jpq_presentation(STEVEDORE, p, q))
            assert report.verdict == NO_OBSTRUCTION_FOUND, (p, q)

    for s in (TREFOIL, FIGURE_EIGHT):
        b = s.seifert_form()
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                j = jpq_presentation(s, p, q).matrix
                for theta in ANGLES_20:
                    lhs = evaluated_hermitian_signature(j, root_of_unity(theta))
                    parts = [_sig_with_basepoint(b, k * theta)
                             for k in (p, p + q, q)]
                    rhs = (sum(x[0] for x in parts), sum(x[1] for x in parts))
                    assert lhs == rhs, (s.name, p, q, theta)
    _ok(4, "J(p,q): stevedore clean for p,q <= 3; signature additivity "
           "at 20 angles per (p,q)")


def _random_admissible(rng, size):
    """Random integral Seifert matrix with A - A^T a fixed unimodular
    skew form (so admissibility is by construction)."""
    skew = {(0, 1): 1}
    if size == 4:
        skew = {(0, 1): 1, (2, 3): 1}
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = rng.randint(-4, 4)
        for j in range(i + 1, size):
            rows[i][j] = rng.randint(-4, 4)
            rows[j][i] = rows[i][j] - skew.get((i, j), 0)
    return SeifertMatrix(tuple(tuple(r) for r in rows), integral=True)


def _is_prime_power(d):
    if d < 2:
        return False
    p = min(f for f in range(2, d + 1) if d % f == 0)
    while d % p == 0:
        d //= p
    return d == 1


def test_criterion_5_alexander_invariants():
    rng = random.Random(20260814)
    pool = [e.seifert for e in CATALOG]
    pool += [_random_admissible(rng, 2) for _ in range(100)]
    pool += [_random_admissible(rng, 4) for _ in range(100)]
    for s in pool:
        delta = alexander(s)
        assert delta(Fraction(1)) in (1, -1)          # so t - 1 cannot divide
        assert delta(Fraction(1)) != 0
        assert normalize_unit(delta.substitute_power(-1)) == delta
        cyclotomic = cyclotomic_factors(factor_rational(delta)[1])
        assert not any(_is_prime_power(d) for d in cyclotomic)
    _ok(5, "Delta(1) = +-1, self-reciprocal, no prime-power cyclotomic "
           "factor on catalog + 200 random matrices")


def test_criterion_6_phi_laws():
    check_angles = (Fraction(1, 7), Fraction(2, 7), Fraction(1, 8),
                    Fraction(1, 9), Fraction(4, 11))
    for entry in CATALOG:
        pres = from_seifert(entry.seifert)
        assert phi(phi(pres, 3), 5) == phi(pres, 15)
        assert phi(phi(pres, 5), 3) == phi(pres, 15)
        for n in (3, 5):
            image = phi(pres, n)
            assert image.order() \
                == normalize_unit(pres.order().substitute_power(n))
            assert image.order() == normalize_unit(image.matrix.det())
            for theta in check_angles:
                assert _sig_with_basepoint(image.matrix, theta) \
                    == _sig_with_basepoint(pres.matrix, n * theta)
    _ok(6, "phi composition, order substitution, signature "
           "reparametrization (n = 3, 5) on the full catalog")


def test_criterion_7_additivity_and_mirror():
    for entry in CATALOG:
        s = entry.seifert
        report = obstruction_battery(connected_sum(s, mirror(s)))
        assert report.verdict == NO_OBSTRUCTION_FOUND, entry.name

        sig = signature_function(s)
        sig_m = signature_function(mirror(s))
        assert sig_m.arc_rows() \
            == [(lo, hi, -v) for lo, hi, v in sig.arc_rows()]
        assert sig_m.jump_rows() == sig.jump_rows()

    arfs = [(e.seifert, arf(e.seifert)) for e in CATALOG]
    for s1, a1 in arfs:
        for s2, a2 in arfs:
            assert arf(connected_sum(s1, s2)) == (a1 + a2) % 2
    _ok(7, "battery(K # -K) clean; signatures negate under mirror; "
           "Arf additive mod 2")


def _random_intpoly(rng, degree):
    coeffs = [rng.randint(-5, 5) for _ in range(degree)]
    coeffs.append(rng.randint(1, 5))
    return IntPoly(coeffs)


def _cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += sign * rows[0][j] * _cofactor_det(minor)
        sign = -sign
    return total


def _brute_root_count(g, step_denominator=1000):
    """Count real roots of squarefree g by an exact integer sign scan at
    resolution 1/step_denominator over (-M, M), M a Cauchy root bound."""
    bound = 1 + max(abs(c) for c in g.coeffs) / abs(g.lc)
    lo = -int(bound * step_denominator) - 1
    hi = int(bound * step_denominator) + 1
    d = g.degree
    scaled = [c * step_denominator ** (d - i) for i, c in enumerate(g.coeffs)]
    count = 0
    prev = 0
    for k in range(lo, hi + 1):
        v = scaled[d]
        for i in range(d - 1, -1, -1):
            v = v * k + scaled[i]
        if v == 0:
            count += 1
        elif prev != 0 and (v > 0) != (prev > 0):
            count += 1
        prev = v
    return count


def test_criterion_8_computer_algebra_core():
    rng = random.Random(8128)

    for _ in range(500):
        f = _random_intpoly(rng, rng.randint(1, 4)).to_laurent()
        for _ in range(rng.randint(0, 2)):
            f = f * _random_intpoly(rng, rng.randint(1, 4)).to_laurent()
        f = f * LaurentPoly({rng.randint(-2, 2): rng.choice((1, -1))})
        unit, factors = factor_rational(f)
        expanded = unit
        for g, mult in factors:
            expanded = expanded * g.to_laurent() ** mult
        assert expanded == f

    for size in (1, 2, 3, 4):
        for _ in range(50):
            rows = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(size)]
                for _ in range(size)
            ]
            assert ExactMatrix(rows).det() == _cofactor_det(rows)

    for degree in (3, 4):
        for _ in range(50):
            coeffs = [rng.randint(-9, 9) for _ in range(degree)]
            coeffs.append(rng.randint(5, 9))
            g = squarefree_part(IntPoly(coeffs))
            bound = 1 + max(abs(c) for c in g.coeffs) / abs(g.lc)
            isolated = sturm_isolate(g, -bound - 1, bound + 1)
            assert len(isolated) == _brute_root_count(g), g
    _ok(8, "500 factorization round-trips; Bareiss = cofactor (size <= 4); "
           "Sturm counts = brute sign scans (100 cubics/quartics)")


def test_criterion_9_batch_determinism(capsys, tmp_path):
    paths = []
    for entry in CATALOG:
        path = tmp_path / (entry.name.replace("(", "_").replace(")", "") + ".mat")
        path.write_text(print_seifert(entry.seifert), encoding="utf-8")
        paths.append(str(path))

    assert main(["batch"] + paths) == 0
    first = capsys.readouterr().out
    assert main(["batch"] + paths) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.count("name = ") == len(CATALOG)
    with capsys.disabled():
        _ok(9, "two consecutive batch runs over the catalog are "
               "byte-identical")
