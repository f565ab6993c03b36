"""Cyclotomic fields, certified cosine enclosures, Hermitian signatures."""

import math
from fractions import Fraction

import pytest

from bingcheck.fields import (
    PolyQuotientField,
    cos_enclosure,
    cyclotomic_field,
    evaluated_hermitian_signature,
    rank_over_factor,
)
from bingcheck.intpoly import IntPoly
from bingcheck.laurent import parse_poly
from bingcheck.matrices import ExactMatrix


class TestCosEnclosure:
    def test_exact_angles(self):
        cases = {
            Fraction(0): Fraction(1),
            Fraction(1, 2): Fraction(-1),
            Fraction(1, 4): Fraction(0),
            Fraction(3, 4): Fraction(0),
            Fraction(1, 3): Fraction(-1, 2),
            Fraction(2, 3): Fraction(-1, 2),
            Fraction(1, 6): Fraction(1, 2),
            Fraction(5, 6): Fraction(1, 2),
        }
        for a, v in cases.items():
            assert cos_enclosure(a, 64) == (v, v)
            assert cos_enclosure(a + 3, 64) == (v, v)  # reduced mod 1

    def test_certified_width_and_containment(self):
        for num, den in [(1, 5), (2, 5), (1, 7), (3, 7), (1, 8), (3, 8),
                         (2, 9), (5, 11), (5, 12), (6, 13), (9, 20)]:
            lo, hi = cos_enclosure(Fraction(num, den), 80)
            assert lo < hi
            assert hi - lo < Fraction(1, 2 ** 70)
            true = math.cos(2 * math.pi * num / den)
            assert float(lo) - 1e-9 <= true <= float(hi) + 1e-9

    def test_golden_ratio_value(self):
        # cos(2*pi/5) = (sqrt(5) - 1)/4: check against its minimal polynomial
        lo, hi = cos_enclosure(Fraction(1, 5), 100)
        # 4c^2 + 2c - 1 = 0 for c = cos(72 deg)
        flo, fhi = 4 * lo * lo + 2 * lo - 1, 4 * hi * hi + 2 * hi - 1
        assert flo <= 0 <= fhi or fhi <= 0 <= flo


class TestQuotientField:
    def test_inverse_and_powers(self):
        f = cyclotomic_field(7)
        e = f.element([1, -2, 0, 3, 1, 1])
        assert f.mul(e, f.inv(e)) == f.one()
        assert f.mul(f.x_power(3), f.x_power(4)) == f.one()
        assert f.x_power(-2) == f.x_power(5)

    def test_conjugation_is_involution_and_multiplicative(self):
        f = cyclotomic_field(9)
        a = f.element([1, 2, 0, -1, 3, 0])
        b = f.element([0, 1, 1, 0, -2, 5])
        assert f.conj(f.conj(a)) == a
        assert f.conj(f.mul(a, b)) == f.mul(f.conj(a), f.conj(b))

    def test_norm_is_real_and_nonnegative(self):
        f = cyclotomic_field(5)
        for coeffs in ([1, 1, 0, 0], [2, -3, 1, 0], [0, 0, 0, 1]):
            a = f.element(coeffs)
            n = f.mul(a, f.conj(a))
            assert f.conj(n) == n
            if a:
                assert f.real_sign(n) == 1

    def test_real_sign_frozen(self):
        f = cyclotomic_field(5)
        two_cos_72 = f.x_power(1) + f.x_power(-1)
        assert f.real_sign(two_cos_72) == 1
        assert f.real_sign(f.x_power(2) + f.x_power(-2)) == -1
        assert f.real_sign(f.zero()) == 0
        # 2cos(72) = 0.618...: straddle it from both sides
        assert f.real_sign(two_cos_72 - f.scalar(Fraction(1, 2))) == 1
        assert f.real_sign(two_cos_72 - f.scalar(Fraction(7, 10))) == -1

    def test_real_sign_rejects_non_real(self):
        f = cyclotomic_field(5)
        with pytest.raises(ValueError):
            f.real_sign(f.x_power(1))

    def test_quotient_field_rejects_root_at_zero(self):
        with pytest.raises(ValueError):
            PolyQuotientField(IntPoly("t^2 - t"))
        with pytest.raises(ValueError):
            PolyQuotientField(IntPoly("3"))


def seifert_form_matrix(a):
    """B(t) = (1-t) A + (1-t^-1) A^T as an ExactMatrix."""
    n = len(a)
    u, v = parse_poly("1 - t"), parse_poly("1 - t^-1")
    return ExactMatrix(
        [[u * a[i][j] + v * a[j][i] for j in range(n)] for i in range(n)]
    )


TREFOIL = [[-1, 1], [0, -1]]
FIGURE_EIGHT = [[1, 1], [0, -1]]


class TestHermitianSignature:
    def test_trefoil_profile(self):
        b = seifert_form_matrix(TREFOIL)
        cases = {
            Fraction(0): (0, 2),       # B(1) = 0
            Fraction(1, 7): (0, 0),    # before the jump at 1/6
            Fraction(1, 6): (-1, 1),   # on the jump: average, nullity 1
            Fraction(1, 5): (-2, 0),   # after the jump
            Fraction(1, 4): (-2, 0),
            Fraction(1, 2): (-2, 0),
            Fraction(5, 6): (-1, 1),
            Fraction(6, 7): (0, 0),
        }
        for theta, want in cases.items():
            assert evaluated_hermitian_signature(b, theta) == want, theta

    def test_figure_eight_vanishes(self):
        b = seifert_form_matrix(FIGURE_EIGHT)
        for theta in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5),
                      Fraction(2, 7), Fraction(3, 8), Fraction(5, 12)):
            sig, _ = evaluated_hermitian_signature(b, theta)
            assert sig == 0

    def test_conjugate_angles_agree(self):
        b = seifert_form_matrix(TREFOIL)
        for theta in (Fraction(1, 5), Fraction(2, 7), Fraction(3, 11)):
            assert evaluated_hermitian_signature(b, theta) == \
                evaluated_hermitian_signature(b, 1 - theta)

    def test_matches_rational_symmetric_route_at_half(self):
        # independent route: B(-1) is a rational symmetric matrix
        import random

        rng = random.Random(3)
        for _ in range(25):
            n = rng.randrange(1, 4)
            a = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
            b = seifert_form_matrix(a)
            direct = ExactMatrix(
                [[2 * (a[i][j] + a[j][i]) for j in range(n)] for i in range(n)]
            ).sym_signature()
            assert evaluated_hermitian_signature(b, Fraction(1, 2)) == direct

    def test_block_additivity(self):
        b1 = seifert_form_matrix(TREFOIL)
        b2 = seifert_form_matrix(FIGURE_EIGHT)
        both = b1.block_sum(b2)
        for theta in (Fraction(1, 5), Fraction(1, 6), Fraction(4, 9)):
            s1, n1 = evaluated_hermitian_signature(b1, theta)
            s2, n2 = evaluated_hermitian_signature(b2, theta)
            assert evaluated_hermitian_signature(both, theta) == (s1 + s2, n1 + n2)

    def test_non_hermitian_rejected(self):
        m = ExactMatrix([[parse_poly("t")]])
        with pytest.raises(ValueError):
            evaluated_hermitian_signature(m, Fraction(1, 3))


class TestRankOverFactor:
    def test_trefoil_drops_rank_at_its_alexander_factor(self):
        b = seifert_form_matrix(TREFOIL)
        assert rank_over_factor(b, IntPoly("t^2 - t + 1")) == 1
        assert rank_over_factor(b, IntPoly("t^2 + 1")) == 2
        assert rank_over_factor(b, IntPoly("t^2 - 3t + 1")) == 2

    def test_figure_eight(self):
        b = seifert_form_matrix(FIGURE_EIGHT)
        assert rank_over_factor(b, IntPoly("t^2 - 3t + 1")) == 1
        assert rank_over_factor(b, IntPoly("t^2 - t + 1")) == 2

    def test_nullity_matches_jump_angle_evaluation(self):
        # at the root of t^2 - t + 1 (angle 1/6) the corank from the exact
        # cyclotomic evaluation must agree with the rank over the factor field
        b = seifert_form_matrix(TREFOIL)
        _, nullity = evaluated_hermitian_signature(b, Fraction(1, 6))
        assert nullity == 2 - rank_over_factor(b, IntPoly("t^2 - t + 1"))
