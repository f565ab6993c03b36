"""Branched-cover calculus: homology orders and covering Seifert matrices.

The homology-order oracles are independent of the package's resultant:
|H_1| of the p-fold branched cover equals |prod_{i=1..p-1} Delta(zeta_p^i)|,
computed directly in the cyclotomic field Q(zeta_p), and the absolute
resultant of Delta with (t^p - 1)/(t - 1), from sympy's subresultant PRS.
"""

import tracemalloc
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from sympy import ZZ
from sympy.polys.euclidtools import dup_resultant

from bingcheck import cover, matrices
from bingcheck.catalog import builtin_catalog
from bingcheck.cover import (
    INFINITE,
    branched_cover_homology_order,
    covering_seifert_matrix,
)
from bingcheck.errors import AdmissibilityError, FormulaHypothesisError
from bingcheck.factor import factor_rational
from bingcheck.fields import cyclotomic_field
from bingcheck.intpoly import IntPoly
from bingcheck.laurent import LaurentPoly, parse_poly
from bingcheck.matrices import ExactMatrix
from bingcheck.seifert import SeifertMatrix, alexander, fox_milnor, signature_function
from strategies import integral_or_rational_forms

TREFOIL = SeifertMatrix([[-1, 1], [0, -1]])
FIGURE_EIGHT = SeifertMatrix([[1, 1], [0, -1]])
STEVEDORE = SeifertMatrix([[1, 1], [0, -2]])
UNKNOT = SeifertMatrix([])


def fox_milnor_of(delta):
    return fox_milnor(delta, factor_rational(delta)[1])


def order_by_field_product(delta, p):
    """Independent oracle: |prod Delta(zeta^i)| in Q(zeta_p)."""
    field = cyclotomic_field(p)
    prod = field.element([1])
    for i in range(1, p):
        prod = field.mul(prod, field.images([delta], field.element([0] * i + [1]))[0])
    numerators, den = prod
    assert not any(numerators[1:]), "product must be rational"
    return Fraction(abs(numerators[0]), den)


def sympy_resultant(f, g) -> int:
    """|Res(f, g)| for dense ascending int lists, from sympy's subresultant
    PRS.  Only the absolute value is read: sympy's sign can differ from that
    of det Syl(f, g) when a leading coefficient is negative."""
    return abs(int(dup_resultant(list(reversed(f)), list(reversed(g)), ZZ)))


def order_by_sympy_resultant(delta, p):
    """The order from sympy's resultant of psi = (t^p - 1)/(t - 1) and
    Delta's primitive part, scaled by the content to the p - 1."""
    content, primitive, _ = delta.split_content()
    r = sympy_resultant([1] * p, primitive)
    if r == 0:
        return INFINITE
    order = r * content ** (p - 1)
    return order.numerator if order.denominator == 1 else order


@st.composite
def non_monic_polys(draw):
    """Integer polynomials of degree 1 to 6 with |leading coefficient| >= 2,
    some with a root at 1, some scaled to a rational content."""
    lc = draw(st.sampled_from([c for c in range(-9, 10) if abs(c) >= 2]))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6)) + [lc]
    if draw(st.booleans()):
        coeffs[0] -= sum(coeffs)  # Delta(1) = 0
    assume(coeffs[0] != 0)
    scale = draw(st.sampled_from([1, 3, Fraction(1, 2), Fraction(2, 3)]))
    return LaurentPoly.from_coeffs([scale * c for c in coeffs], 0)


class TestOrderFromTheRemainder:
    """The order comes from psi mod Delta, t^p mod (t - 1) Delta found by
    repeated squaring; sympy's subresultant PRS of psi against Delta is
    the oracle."""

    @pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
    def test_catalog_matches_the_subresultant(self, entry):
        delta = alexander(entry.seifert)
        for p in range(2, 65):
            assert branched_cover_homology_order(delta, p) == order_by_sympy_resultant(delta, p), p

    @given(non_monic_polys())
    @settings(max_examples=25, deadline=None)
    def test_non_monic_matches_the_subresultant(self, delta):
        primitive = IntPoly(delta.split_content()[1])
        for p in range(2, 65):
            assert branched_cover_homology_order(delta, p) == order_by_sympy_resultant(delta, p), p
            assert abs(cover._psi_resultant(primitive, p)) == \
                sympy_resultant([1] * p, primitive.coeffs)

    def test_root_at_one_and_roots_of_unity(self):
        # (t - 1)(2t - 1): Delta(1) = 0 yet psi(1) = p; (2t - 1)(t^2 + t + 1)
        # vanishes at the cube roots of unity
        assert branched_cover_homology_order(parse_poly("2t^2 - 3t + 1"), 4) == \
            order_by_sympy_resultant(parse_poly("2t^2 - 3t + 1"), 4) == 4 * 15
        cubic = parse_poly("2t^3 + t^2 + t - 1")
        assert branched_cover_homology_order(cubic, 6) is INFINITE
        assert branched_cover_homology_order(cubic, 5) == order_by_sympy_resultant(cubic, 5)

    def test_one_det_per_order(self, monkeypatch):
        # Res(f, psi mod f), a Sylvester determinant, is the only one
        dets = []
        det = matrices.bareiss_det
        monkeypatch.setattr(matrices, "bareiss_det", lambda rows: dets.append(rows) or det(rows))
        for text in ("t^2 - t + 1", "5t^2 - 11t + 5", "2t^3 + t^2 + t - 1",
                     "3t^4 + 4t^3 - 13t^2 + 4t + 3"):
            for p in (2, 5, 64):
                dets.clear()
                assert branched_cover_homology_order(parse_poly(text), p) is not INFINITE
                assert len(dets) == 1, (text, p)

    def test_non_monic_at_the_degree_bound_is_fast(self):
        # twist(5), Delta = 5t^2 - 11t + 5 = 5(t - a)(t - 1/a): the
        # remainder sequence of psi itself took 2.5 s at p = 4096, the
        # remainder of psi mod Delta takes milliseconds
        p = 4096
        delta = alexander(next(e for e in builtin_catalog() if e.name == "twist(5)").seifert)
        assert delta == parse_poly("5t^2 - 11t + 5")
        start = perf_counter()
        order = branched_cover_homology_order(delta, p)
        assert perf_counter() - start < 0.25
        # prod over zeta != 1 of Delta(zeta) = 5^(p-1) psi(a) psi(1/a), which
        # is 5^p |2 - L_p| with L_k = a^k + a^-k; m_k = 5^k L_k satisfies
        # m_(k+1) = 11 m_k - 25 m_(k-1), m_0 = 2, m_1 = 11
        m0, m1 = 2, 11
        for _ in range(p - 1):
            m0, m1 = m1, 11 * m1 - 25 * m0
        assert order == abs(2 * 5 ** p - m1)


class TestHomologyOrder:
    def test_frozen_orders(self):
        assert branched_cover_homology_order(alexander(TREFOIL), 2) == 3
        assert branched_cover_homology_order(alexander(TREFOIL), 3) == 4
        assert branched_cover_homology_order(alexander(TREFOIL), 5) == 1
        assert branched_cover_homology_order(alexander(FIGURE_EIGHT), 2) == 5
        assert branched_cover_homology_order(alexander(STEVEDORE), 2) == 9
        assert branched_cover_homology_order(alexander(UNKNOT), 7) == 1

    def test_matches_field_product(self):
        for s in (TREFOIL, FIGURE_EIGHT, STEVEDORE, UNKNOT):
            d = alexander(s)
            for p in (2, 3, 5):
                got = branched_cover_homology_order(d, p)
                assert got == order_by_field_product(d, p)

    def test_substituted_polynomial_gives_trivial_homology(self):
        for s in (TREFOIL, FIGURE_EIGHT, STEVEDORE):
            d = alexander(s)
            for p in (2, 3, 5):
                assert branched_cover_homology_order(d.substitute_power(p), p) == 1

    def test_infinite_when_root_of_unity_divides(self):
        assert branched_cover_homology_order(parse_poly("t^2 + t + 1"), 3) is INFINITE
        assert branched_cover_homology_order(alexander(TREFOIL), 6) is INFINITE

    def test_rational_content(self):
        # (t+1)^2/4 at p = 3: |(zeta+1)^2 (zeta^2+1)^2| / 16 = 1/16
        assert branched_cover_homology_order(
            parse_poly("1/4t^2 + 1/2t + 1/4"), 3
        ) == Fraction(1, 16)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            branched_cover_homology_order(LaurentPoly.zero(), 2)
        with pytest.raises(ValueError):
            branched_cover_homology_order(alexander(TREFOIL), 1)

    def test_sentinel_prints_and_is_singleton(self):
        r = branched_cover_homology_order(parse_poly("t^2 + t + 1"), 3)
        assert repr(r) == str(r) == "INFINITE"
        assert r is INFINITE


def fraction_inverse(rows):
    """The inverse of a square Fraction matrix by Gauss-Jordan elimination,
    None when it is singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in r] + [Fraction(i == j) for j in range(n)]
           for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def matmul(a, b):
    return [[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in zip(*b)] for r in a]


def minus(a, b):
    return [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]


def covering_by_fractions(s, p):
    """Oracle: the covering formula term by term on Fraction matrices,
    A - A^T (Gamma^(p-1) - (Gamma-I)^(p-1)) (Gamma^p - (Gamma-I)^p)^-1 Gamma
    for Gamma = (A - A^T)^-1 A; None when Gamma^p - (Gamma-I)^p is singular."""
    a = [list(r) for r in s.entries]
    at = [list(r) for r in zip(*a)]
    eye = [[Fraction(i == j) for j in range(s.size)] for i in range(s.size)]
    gamma = matmul(fraction_inverse(minus(a, at)), a)

    def last_powers(m):
        before = eye
        for _ in range(p - 1):
            before = matmul(before, m)
        return before, matmul(before, m)

    (g1, g), (h1, h) = last_powers(gamma), last_powers(minus(gamma, eye))
    inverse = fraction_inverse(minus(g, h))
    if inverse is None:
        return None
    return minus(a, matmul(matmul(matmul(at, minus(g1, h1)), inverse), gamma))


class TestCoveringSeifertMatrix:
    @given(integral_or_rational_forms(), st.integers(2, 8))
    # Delta of the trefoil is Phi_6, so Gamma^6 - (Gamma - I)^6 is singular
    @example(TREFOIL, 6)
    @example(SeifertMatrix([[Fraction(1, 2), 1], [0, Fraction(1, 2)]]), 2)
    @settings(max_examples=40, deadline=None)
    def test_matches_the_fraction_formula(self, s, p):
        want = covering_by_fractions(s, p)
        if want is None:
            with pytest.raises(FormulaHypothesisError, match="is singular"):
                covering_seifert_matrix(s, p)
        elif ExactMatrix(minus(want, [list(r) for r in zip(*want)])).det() == 0:
            with pytest.raises(FormulaHypothesisError, match="fails det"):
                covering_seifert_matrix(s, p)
        else:
            assert covering_seifert_matrix(s, p).entries == tuple(map(tuple, want))

    def test_trefoil_triple_cover_golden(self):
        c = covering_seifert_matrix(TREFOIL, 3)
        assert c.entries == (
            (Fraction(0), Fraction(1, 2)),
            (Fraction(-1, 2), Fraction(0)),
        )
        assert not c.integral

    def test_trefoil_triple_cover_battery_is_trivial(self):
        c = covering_seifert_matrix(TREFOIL, 3)
        assert alexander(c) == parse_poly("1/4t^2 + 1/2t + 1/4")
        assert fox_milnor_of(alexander(c)).passes
        assert signature_function(c).is_zero

    def test_figure_eight_double_cover_hand_value(self):
        # Gamma = [[0,1],[1,1]], 2 Gamma - I = [[-1,2],[2,1]],
        # Atilde = A - A^T (2 Gamma - I)^{-1} Gamma, expanded by hand
        c = covering_seifert_matrix(FIGURE_EIGHT, 2)
        assert c.entries == (
            (Fraction(3, 5), Fraction(4, 5)),
            (Fraction(-1, 5), Fraction(-3, 5)),
        )

    def test_unknot(self):
        assert covering_seifert_matrix(UNKNOT, 5).size == 0

    def test_keeps_only_the_powers_it_reads(self):
        # only Gamma^(p-1), Gamma^p and the two powers of Gamma - I are held:
        # keeping all 2(p + 1) powers peaked at 1.1 MB here
        tracemalloc.start()
        try:
            covering_seifert_matrix(FIGURE_EIGHT, 800)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 250_000

    def test_output_always_admissible(self):
        for s in (TREFOIL, FIGURE_EIGHT, STEVEDORE):
            for p in (2, 3, 5):
                c = covering_seifert_matrix(s, p)
                m = c.matrix
                assert (m - m.transpose()).det() != 0

    def test_rational_flag_forced(self):
        for p in (2, 3):
            assert not covering_seifert_matrix(TREFOIL, p).integral

    def test_singular_hypothesis_raises(self):
        # Gamma has double eigenvalue 1/2, so Gamma^2 - (Gamma-I)^2 = 2 Gamma - I
        # is singular
        bad = SeifertMatrix([[Fraction(1, 2), 1], [0, Fraction(1, 2)]])
        with pytest.raises(FormulaHypothesisError,
                           match=r"Gamma\^p - \(Gamma - I\)\^p is singular"):
            covering_seifert_matrix(bad, 2)

    def test_inadmissible_result_message(self, monkeypatch):
        def reject(*args, **kwargs):
            raise AdmissibilityError("det(A - A^T) must be nonzero")

        monkeypatch.setattr(cover, "SeifertMatrix", reject)
        with pytest.raises(FormulaHypothesisError,
                           match=r"covering matrix fails det\(A - A\^T\) != 0"):
            covering_seifert_matrix(TREFOIL, 2)

    def test_one_det_per_cover(self, monkeypatch):
        # the inverse detects a singular Gamma^p - (Gamma - I)^p, and the
        # SeifertMatrix constructor's det(Atilde - Atilde^T) is the only det
        dets = []
        det = ExactMatrix.det
        monkeypatch.setattr(ExactMatrix, "det", lambda m: dets.append(m) or det(m))
        for p in (2, 3, 5):
            dets.clear()
            covering_seifert_matrix(STEVEDORE, p)
            assert len(dets) == 1, p

    def test_p_below_two_rejected(self):
        with pytest.raises(ValueError):
            covering_seifert_matrix(TREFOIL, 1)
