"""Classical invariants from Seifert matrices.

Golden values are standard: trefoil [[-1,1],[0,-1]] with Delta = t^2 - t + 1,
signature -2, Arf 1, determinant 3; figure-eight [[1,1],[0,-1]] with
Delta = t^2 - 3t + 1, zero signature function, Arf 1, determinant 5;
[[1,1],[0,-2]] (stevedore) with Delta = 2t^2 - 5t + 2 = (2t-1)(t-2), which
passes Fox-Milnor with witness 2t - 1.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import bingcheck.seifert as seifert_module
from bingcheck.errors import AdmissibilityError
from bingcheck.factor import factor_rational
from bingcheck.fields import cayley_point, evaluated_hermitian_signature, rank_over_factor
from bingcheck.intpoly import IntPoly
from bingcheck.laurent import LaurentPoly, normalize_unit, parse_poly
from bingcheck.matrices import ExactMatrix
from bingcheck.seifert import (
    SeifertMatrix,
    alexander,
    arf,
    cayley_signature,
    connected_sum,
    determinant_invariant,
    fox_milnor,
    mirror,
    signature_at,
    signature_function,
)
from strategies import admissible_forms, integral_or_rational_forms, substituted

TREFOIL = SeifertMatrix([[-1, 1], [0, -1]], name="3_1")
FIGURE_EIGHT = SeifertMatrix([[1, 1], [0, -1]], name="4_1")
STEVEDORE = SeifertMatrix([[1, 1], [0, -2]], name="6_1")
UNKNOT = SeifertMatrix([], name="unknot")


def fox_milnor_of(delta):
    return fox_milnor(delta, factor_rational(delta)[1])


def random_admissible_2x2(draw_entries):
    """[[a, b], [c, d]] with b - c = +-1 is always admissible."""
    a, b, d, eps = draw_entries
    return SeifertMatrix([[a, b], [b - eps, d]])


admissible_2x2 = st.tuples(
    st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
    st.sampled_from([1, -1]),
).map(random_admissible_2x2)


class TestAdmissibility:
    def test_integral_flag(self):
        assert TREFOIL.integral
        assert not SeifertMatrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]).integral

    def test_unknot_is_admissible(self):
        assert UNKNOT.size == 0 and UNKNOT.integral

    def test_degenerate_pairing_rejected(self):
        with pytest.raises(AdmissibilityError):
            SeifertMatrix([[1]])
        with pytest.raises(AdmissibilityError):
            SeifertMatrix([[1, 1], [1, 1]])

    def test_integral_needs_unimodular_pairing(self):
        with pytest.raises(AdmissibilityError):
            SeifertMatrix([[0, 2], [0, 0]])
        # the same pairing is fine for a rational matrix
        assert SeifertMatrix([[0, 2], [Fraction(1, 2), 0]]) is not None

    def test_non_square_rejected(self):
        with pytest.raises(AdmissibilityError):
            SeifertMatrix([[1, 2, 3], [4, 5, 6]])


class TestSeifertForm:
    @staticmethod
    def by_matrix_products(s):
        """L ((1 - t) A + (1 - t^-1) A^T), L the lcm of A's denominators,
        through Laurent products entry by entry."""
        scale = 1
        for row in s.entries:
            for e in row:
                scale = scale * e.denominator // gcd(scale, e.denominator)
        u, v = parse_poly("1 - t") * scale, parse_poly("1 - t^-1") * scale
        a = s.matrix
        return ExactMatrix([[u * a[i, j] + v * a[j, i] for j in range(s.size)]
                            for i in range(s.size)])

    @given(admissible_2x2, admissible_2x2)
    @settings(max_examples=40, deadline=None)
    def test_matches_matrix_products(self, s1, s2):
        rational = SeifertMatrix([[0, Fraction(1, 2)], [Fraction(-1, 2), Fraction(1, 3)]])
        for s in (UNKNOT, s1, connected_sum(s1, s2), connected_sum(s1, rational)):
            b = s.seifert_form()
            assert all(isinstance(e, LaurentPoly) for row in b.entries for e in row)
            assert b.entries == self.by_matrix_products(s).entries
            # a positive multiple of B with integer coefficients
            assert all(c.denominator == 1 for row in b.entries for e in row
                       for _, c in e.items())


class TestAlexander:
    def test_goldens(self):
        assert alexander(TREFOIL) == parse_poly("t^2 - t + 1")
        assert alexander(FIGURE_EIGHT) == parse_poly("t^2 - 3t + 1")
        assert alexander(STEVEDORE) == parse_poly("2t^2 - 5t + 2")
        assert alexander(UNKNOT) == parse_poly("1")

    @given(st.one_of(admissible_2x2, admissible_forms(4)))
    @settings(max_examples=60, deadline=None)
    def test_integral_evaluates_to_unit_at_one(self, s):
        d = alexander(s)(Fraction(1))
        assert d in (1, -1)

    @given(admissible_2x2)
    @settings(max_examples=60, deadline=None)
    def test_self_reciprocal(self, s):
        d = alexander(s)
        assert normalize_unit(d.substitute_power(-1)) == normalize_unit(d)


class TestSignatureAt:
    def test_goldens_at_minus_one(self):
        assert signature_at(TREFOIL, Fraction(1, 2)) == (-2, 0)
        assert signature_at(FIGURE_EIGHT, Fraction(1, 2)) == (0, 0)
        assert signature_at(STEVEDORE, Fraction(1, 2)) == (0, 0)

    def test_trefoil_alexander_root_has_nullity(self):
        sig, nul = signature_at(TREFOIL, Fraction(1, 6))
        assert nul == 1

    def test_conjugate_angles_agree(self):
        for theta in (Fraction(1, 5), Fraction(1, 7), Fraction(3, 8)):
            assert signature_at(TREFOIL, theta) == signature_at(TREFOIL, 1 - theta)

    def test_angle_domain(self):
        for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 4)):
            with pytest.raises(ValueError):
                signature_at(TREFOIL, bad)

    def test_float_angle_rejected(self):
        # Fraction(0.1) has denominator 2^55, the order of the field it
        # would need
        with pytest.raises(TypeError):
            signature_at(TREFOIL, 0.1)
        assert signature_at(TREFOIL, "1/2") == (-2, 0)

    @given(admissible_2x2, st.fractions(min_value=Fraction(1, 12), max_value=Fraction(11, 12), max_denominator=12))
    @settings(max_examples=40, deadline=None)
    def test_additive_under_connected_sum(self, s, theta):
        lhs = signature_at(connected_sum(s, TREFOIL), theta)
        a, b = signature_at(s, theta), signature_at(TREFOIL, theta)
        assert lhs == (a[0] + b[0], a[1] + b[1])


def gaussian_power(d, n, k):
    """(x, y) with x + iy = (d + i n)^k."""
    x, y = 1, 0
    for _ in range(k):
        x, y = x * d - y * n, x * n + y * d
    return x, y


@st.composite
def half_symmetric_forms(draw):
    """Rational A = S/2 + J of genus 1 to 3: S a symmetric integer matrix
    with entries in -2..2, in some draws with row and column n - 1 copied
    from row and column 0 (so S is singular), and J the standard
    symplectic form.  A + A^T = S, so B(-1) = 2S, and A - A^T = 2J: the
    form is rational even when S is even."""
    n = 2 * draw(st.integers(1, 3))
    S = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            S[i][j] = S[j][i] = draw(st.integers(-2, 2))
    if draw(st.booleans()):
        for j in range(n - 1):
            S[n - 1][j] = S[j][n - 1] = S[0][j]
        S[n - 1][n - 1] = S[0][0]
    return SeifertMatrix([[Fraction(S[i][j], 2) + (j == i + 1 and i % 2 == 0)
                           - (i == j + 1 and j % 2 == 0) for j in range(n)] for i in range(n)],
                         integral=False)


class TestCayleySignature:
    """cayley_signature reads the form at omega^k = (x + iy)/(x - iy),
    omega = (1 + i s)/(1 - i s), s = n/d and (d + i n)^k = x + iy, off the
    Seifert matrix in integers; the oracle substitutes t -> t^k into the
    form and evaluates it at omega in Q(i)."""

    @given(integral_or_rational_forms(max_genus=4), st.integers(-20, 20), st.integers(1, 20),
           st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_substituted_form_in_q_i(self, s, n, d, k):
        want = evaluated_hermitian_signature(
            substituted(s.seifert_form(), k), cayley_point(Fraction(n, d)))
        assert cayley_signature(s, *gaussian_power(d, n, k)) == want

    def test_omega_squared_is_minus_one(self):
        # s = 1: omega = i, and (1 + i)^2 = 2i gives x = 0
        assert gaussian_power(1, 1, 2) == (0, 2)
        for knot in (TREFOIL, FIGURE_EIGHT, STEVEDORE):
            assert cayley_signature(knot, 0, 2) == signature_at(knot, Fraction(1, 2))
        assert cayley_signature(TREFOIL, 0, 2) == (-2, 0)

    def test_omega_to_the_fourth_is_one(self):
        # (1 + i)^4 = -4: omega^4 = 1, where B vanishes, nullity 2g
        assert gaussian_power(1, 1, 4) == (-4, 0)
        genus_two = connected_sum(TREFOIL, FIGURE_EIGHT)
        assert cayley_signature(TREFOIL, -4, 0) == (0, 2)
        assert cayley_signature(genus_two, -4, 0) == (0, 4)
        assert cayley_signature(UNKNOT, 3, 4) == (0, 0)

    @given(half_symmetric_forms())
    @settings(max_examples=40, deadline=None)
    def test_nullity_at_minus_one_is_the_rank_over_t_plus_one(self, s):
        # the base reads B's nullity at -1 off A + A^T in integers; the
        # Laurent rank over Q[t]/(t + 1) it replaced is the oracle
        want = s.size - rank_over_factor(s.seifert_form(), IntPoly([1, 1]))
        assert cayley_signature(s, 0, 1)[1] == want

    def test_needs_a_point(self):
        with pytest.raises(ValueError):
            cayley_signature(TREFOIL, 0, 0)

    def test_reads_the_forms_built_with_the_matrix(self, monkeypatch):
        # A + A^T and A - A^T are built once, with the Seifert matrix
        rational = SeifertMatrix([[Fraction(-1, 2), Fraction(1, 2)], [0, Fraction(-1, 2)]])
        want = [cayley_signature(rational, x, 1) for x in range(-3, 4)]
        monkeypatch.setattr(ExactMatrix, "integer_rows", lambda m: pytest.fail("rows rebuilt"))
        assert [cayley_signature(rational, x, 1) for x in range(-3, 4)] == want
        assert want == [cayley_signature(TREFOIL, x, 1) for x in range(-3, 4)]


class TestSignatureFunction:
    def test_trefoil(self):
        f = signature_function(TREFOIL)
        assert f.arc_rows() == [
            (Fraction(-2), Fraction(1), -2),
            (Fraction(1), Fraction(2), 0),
        ]
        assert f.jump_rows() == [(Fraction(1), Fraction(1), 1)]

    def test_figure_eight_vanishes(self):
        f = signature_function(FIGURE_EIGHT)
        assert f.is_zero and f.jumps == ()

    def test_unknot(self):
        f = signature_function(UNKNOT)
        assert f.arc_rows() == [(Fraction(-2), Fraction(2), 0)]

    def test_arc_near_one_is_zero(self):
        for s in (TREFOIL, FIGURE_EIGHT, STEVEDORE):
            assert signature_function(s).arcs[-1].signature == 0


class TestArfAndDeterminant:
    def test_goldens(self):
        assert arf(UNKNOT) == 0
        assert arf(TREFOIL) == 1
        assert arf(FIGURE_EIGHT) == 1
        assert arf(STEVEDORE) == 0
        assert determinant_invariant(UNKNOT) == 1
        assert determinant_invariant(TREFOIL) == 3
        assert determinant_invariant(FIGURE_EIGHT) == 5
        assert determinant_invariant(STEVEDORE) == 9

    def test_rational_rejected(self):
        s = SeifertMatrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
        with pytest.raises(AdmissibilityError):
            arf(s)
        with pytest.raises(AdmissibilityError):
            determinant_invariant(s)

    @given(admissible_2x2)
    @settings(max_examples=40, deadline=None)
    def test_arf_additive_mod_two(self, s):
        assert arf(connected_sum(s, TREFOIL)) == (arf(s) + arf(TREFOIL)) % 2

    @given(admissible_forms(4))
    @settings(max_examples=40, deadline=None)
    def test_arf_of_the_quadratic_form_on_a_symplectic_basis(self, s):
        # A - A^T is the standard symplectic form, so e_2i and e_2i+1 pair
        # to 1, and Arf(q) = sum q(e_2i) q(e_2i+1) mod 2 for q(x) = x^T A x
        A, g = s.entries, s.size // 2
        assert arf(s) == sum(A[2 * i][2 * i] * A[2 * i + 1][2 * i + 1] for i in range(g)) % 2

    @given(admissible_2x2)
    @settings(max_examples=40, deadline=None)
    def test_determinant_odd(self, s):
        assert determinant_invariant(s) % 2 == 1

    @given(admissible_2x2, admissible_2x2)
    @settings(max_examples=40, deadline=None)
    def test_read_from_alexander_at_minus_one(self, s1, s2):
        # both read det(A + A^T), which is Delta(-1) up to sign
        for s in (s1, connected_sum(s1, s2)):
            d = alexander(s)(Fraction(-1))
            assert determinant_invariant(s) == abs(d)
            assert arf(s) == (0 if d % 8 in (1, 7) else 1)


class TestFoxMilnor:
    def test_goldens(self):
        r = fox_milnor_of(parse_poly("2t^2 - 5t + 2"))
        assert r.passes and r.witness == parse_poly("2t - 1")
        assert not fox_milnor_of(parse_poly("t^2 - 3t + 1")).passes
        r = fox_milnor_of(parse_poly("1"))
        assert r.passes and r.witness == parse_poly("1")
        assert not fox_milnor_of(alexander(TREFOIL)).passes

    def test_witness_identity(self):
        for delta in ("2t^2 - 5t + 2", "t^4 - 2t^3 + 3t^2 - 2t + 1",
                      "4t^2 - 17t + 4"):
            r = fox_milnor_of(parse_poly(delta))
            assert r.passes
            prod = r.witness * r.witness.substitute_power(-1)
            assert normalize_unit(prod) == normalize_unit(parse_poly(delta))

    def test_rational_content_square(self):
        # (t+1)^2 / 4: passes with witness (t+1)/2, the identity exact
        delta = parse_poly("1/4t^2 + 1/2t + 1/4")
        r = fox_milnor_of(delta)
        assert r.passes and r.witness == parse_poly("1/2t + 1/2")
        prod = r.witness * r.witness.substitute_power(-1)
        assert normalize_unit(prod) == normalize_unit(delta)

    def test_odd_self_reciprocal_power_fails(self):
        assert not fox_milnor_of(parse_poly("t^2 - t + 1") ** 3).passes
        assert fox_milnor_of(parse_poly("t^2 - t + 1") ** 2).passes

    def test_mismatched_partner_multiplicity_fails(self):
        delta = parse_poly("2t - 1") ** 2 * parse_poly("t - 2")
        assert not fox_milnor_of(delta).passes

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            fox_milnor(LaurentPoly.zero(), [])

    def test_decided_without_laurent_products(self, monkeypatch):
        # pass or fail comes from the multiplicities; only reading the
        # witness multiplies Laurent polynomials
        deltas = [parse_poly(d) for d in ("2t^2 - 5t + 2", "t^2 - 3t + 1")]
        lists = [factor_rational(d)[1] for d in deltas]
        products = []
        original = LaurentPoly.__mul__

        def counting(a, b):
            products.append(b)
            return original(a, b)

        monkeypatch.setattr(LaurentPoly, "__mul__", counting)
        built = []
        witness_of = seifert_module._fox_milnor_witness
        monkeypatch.setattr(seifert_module, "_fox_milnor_witness",
                            lambda d, fs: built.append(d) or witness_of(d, fs))
        passing, failing = (fox_milnor(d, fs) for d, fs in zip(deltas, lists))
        assert passing.passes and not failing.passes and not products
        # a failing result never builds its witness, however often it is
        # read; a passing one builds it on the first read only
        assert failing.witness is None and failing.witness is None
        assert not products and not built
        assert passing.witness == parse_poly("2t - 1") and products
        assert passing.witness is passing.witness and built == [deltas[0]]
        assert passing == fox_milnor(deltas[0], lists[0]) != failing

    @given(admissible_forms(2))
    @settings(max_examples=30, deadline=None)
    def test_equal_evidence_is_equal(self, s):
        # equal (passes, delta, factors) as a list or a tuple: equal results
        # and hashes, whether or not one has built its witness
        delta = alexander(s)
        fs = factor_rational(delta)[1]
        a, b = fox_milnor(delta, list(fs)), fox_milnor(delta, tuple(fs))
        assert (a.witness is None) == (not a.passes)
        assert a == b and hash(a) == hash(b)
        assert a != fox_milnor_of(delta * parse_poly("t^2 - t + 1"))

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=3),
           st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_constructed_factorizations_pass(self, coeffs, shift):
        f = LaurentPoly({i + shift: Fraction(c) for i, c in enumerate(coeffs)})
        if f.is_zero:
            return
        delta = f * f.substitute_power(-1)
        r = fox_milnor_of(delta)
        assert r.passes
        prod = r.witness * r.witness.substitute_power(-1)
        assert normalize_unit(prod) == normalize_unit(delta)


class TestSumAndMirror:
    def test_unknot_is_neutral(self):
        assert connected_sum(TREFOIL, UNKNOT) == TREFOIL

    def test_alexander_multiplicative(self):
        s = connected_sum(TREFOIL, FIGURE_EIGHT)
        assert alexander(s) == normalize_unit(
            alexander(TREFOIL) * alexander(FIGURE_EIGHT)
        )

    def test_mirror_negates_signature(self):
        for theta in (Fraction(1, 2), Fraction(1, 5), Fraction(2, 7)):
            sig, nul = signature_at(TREFOIL, theta)
            msig, mnul = signature_at(mirror(TREFOIL), theta)
            assert (msig, mnul) == (-sig, nul)

    def test_mirror_involution(self):
        assert mirror(mirror(STEVEDORE)) == STEVEDORE

    def test_knot_plus_mirror_is_algebraically_invisible(self):
        s = connected_sum(TREFOIL, mirror(TREFOIL))
        assert fox_milnor_of(alexander(s)).passes
        assert signature_function(s).is_zero
        assert arf(s) == 0

    def test_integrality_propagates(self):
        cov = SeifertMatrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
        assert not connected_sum(TREFOIL, cov).integral
        assert connected_sum(TREFOIL, FIGURE_EIGHT).integral
