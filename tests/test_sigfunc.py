"""Signature step functions: arcs, jumps, and exact arc sampling.

Reference values are classical: for the (2, 2k+1) torus knots the signature
of B(omega) drops by 2 at each root of the Alexander polynomial on the upper
semicircle, and for the figure-eight knot it vanishes identically because
t^2 - 3t + 1 has no roots on the circle (u-image t - 3, root outside (-2, 2)).
"""

import random
from fractions import Fraction

import pytest

from bingcheck.catalog import builtin_catalog
from bingcheck.factor import factor_rational
from bingcheck.intpoly import IntPoly
from bingcheck.laurent import LaurentPoly, parse_poly
from bingcheck.matrices import ExactMatrix
from bingcheck.seifert import SeifertMatrix, alexander
from bingcheck.sigfunc import (
    circle_jump_factors,
    same_step_function,
    signature_function_of_matrix,
    u_image,
)

TREFOIL = [[-1, 1], [0, -1]]
FIGURE_EIGHT = [[1, 1], [0, -1]]
T25 = [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]]


def factor_list(f):
    return factor_rational(f)[1]


def bmat(a):
    n = len(a)
    one_minus_t, one_minus_tinv = parse_poly("1 - t"), parse_poly("1 - t^-1")
    return ExactMatrix(
        [
            [
                one_minus_t * LaurentPoly({0: Fraction(a[i][j])})
                + one_minus_tinv * LaurentPoly({0: Fraction(a[j][i])})
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def block_diag(*mats):
    n = sum(len(m) for m in mats)
    out = [[0] * n for _ in range(n)]
    off = 0
    for m in mats:
        for i in range(len(m)):
            for j in range(len(m)):
                out[off + i][off + j] = m[i][j]
        off += len(m)
    return out


def random_genus_two(rng):
    """Integral 4x4 Seifert matrix with A - A^T the standard symplectic form."""
    rows = [[0] * 4 for _ in range(4)]
    for i in range(4):
        rows[i][i] = rng.randint(-3, 3)
        for j in range(i + 1, 4):
            rows[i][j] = rng.randint(-3, 3)
            rows[j][i] = rows[i][j] - (1 if (i, j) in ((0, 1), (2, 3)) else 0)
    return SeifertMatrix(rows)


class TestUImage:
    def test_quadratics(self):
        assert u_image(IntPoly("t^2 - t + 1")) == IntPoly("t - 1")
        assert u_image(IntPoly("t^2 - 3t + 1")) == IntPoly("t - 3")
        assert u_image(IntPoly("t^2 + 1")) == IntPoly("t")
        assert u_image(IntPoly("t^2 + t + 1")) == IntPoly("t + 1")

    def test_reconstruction(self):
        # p(t) == t^m g(t + 1/t) for several self-reciprocal polynomials
        for s in ["t^4 - t^3 + t^2 - t + 1", "t^4 + 1", "t^4 - 3t^3 + 5t^2 - 3t + 1"]:
            p = IntPoly(s)
            g = u_image(p)
            t, tinv = parse_poly("t"), parse_poly("t^-1")
            u = t + tinv
            acc = LaurentPoly({})
            for k, c in enumerate(g.coeffs):
                acc = acc + (u ** k) * LaurentPoly({0: Fraction(c)})
            assert acc * (t ** (p.degree // 2)) == p.to_laurent()

    def test_rejects_non_reciprocal(self):
        with pytest.raises(ValueError):
            u_image(IntPoly("t - 2"))
        with pytest.raises(ValueError):
            u_image(IntPoly("t^3 + 1"))


class TestCircleJumpFactors:
    def test_trefoil_keeps_alexander_factor(self):
        d = bmat(TREFOIL).to_laurent().det()
        fac = circle_jump_factors(factor_list(d))
        assert [(str(p), str(g)) for p, g in fac] == [("t^2 - t + 1", "t - 1")]

    def test_reciprocal_pairs_are_dropped(self):
        # (2t - 1)(t - 2) has no roots on the circle and is not kept
        d = parse_poly("2t^2 - 5t + 2")
        assert circle_jump_factors(factor_list(d)) == []

    def test_t_plus_minus_one_dropped(self):
        d = parse_poly("t^2 - 1")
        assert circle_jump_factors(factor_list(d)) == []


class TestTrefoil:
    def test_profile(self):
        B = bmat(TREFOIL)
        f = signature_function_of_matrix(B, factor_list(B.det()))
        assert f.arc_rows() == [
            (Fraction(-2), Fraction(1), -2),
            (Fraction(1), Fraction(2), 0),
        ]
        assert f.jump_rows() == [(Fraction(1), Fraction(1), 1)]
        assert f.jumps[0].exact == 1
        assert f.jumps[0].factor == IntPoly("t^2 - t + 1")
        assert not f.is_zero
        assert f.max_abs_signature() == 2

    def test_arc_next_to_omega_one_vanishes(self):
        B = bmat(TREFOIL)
        f = signature_function_of_matrix(B, factor_list(B.det()))
        assert f.arcs[-1].signature == 0


class TestFigureEight:
    def test_single_zero_arc(self):
        B = bmat(FIGURE_EIGHT)
        f = signature_function_of_matrix(B, factor_list(B.det()))
        assert f.arc_rows() == [(Fraction(-2), Fraction(2), 0)]
        assert f.jumps == ()
        assert f.is_zero


class TestTorusKnot25:
    def test_profile(self):
        B = bmat(T25)
        f = signature_function_of_matrix(B, factor_list(B.det()))
        assert [a.signature for a in f.arcs] == [-4, -2, 0]
        assert [j.nullity for j in f.jumps] == [1, 1]
        # jumps at the two roots of t^2 - t - 1 (u = (1 -+ sqrt 5)/2)
        golden_minus, golden_plus = f.jumps
        assert Fraction(-0.619) < golden_minus.root.lo < golden_minus.root.hi < Fraction(-0.617)
        assert Fraction(1.617) < golden_plus.root.lo < golden_plus.root.hi < Fraction(1.619)
        assert all(j.root.width <= Fraction(1, 2 ** 20) for j in f.jumps)
        assert all(j.factor == IntPoly("t^4 - t^3 + t^2 - t + 1") for j in f.jumps)


class TestBlockSums:
    def test_double_trefoil_doubles_values_and_nullity(self):
        B = bmat(block_diag(TREFOIL, TREFOIL))
        f = signature_function_of_matrix(B, factor_list(B.det()))
        assert [a.signature for a in f.arcs] == [-4, 0]
        assert f.jump_rows() == [(Fraction(1), Fraction(1), 2)]

    def test_mixed_sum_is_pointwise_additive(self):
        B = bmat(block_diag(TREFOIL, T25))
        f = signature_function_of_matrix(B, factor_list(B.det()))
        assert [a.signature for a in f.arcs] == [-6, -4, -2, 0]
        assert [j.nullity for j in f.jumps] == [1, 1, 1]
        # middle jump is the exact rational root u = 1 from the trefoil factor
        assert f.jumps[1].exact == 1

    def test_trefoil_plus_mirror_cancels(self):
        mirror = [[1, 0], [-1, 1]]  # -A^T for the trefoil matrix
        B = bmat(block_diag(TREFOIL, mirror))
        f = signature_function_of_matrix(B, factor_list(B.det()))
        assert f.is_zero
        assert f.jump_rows() == [(Fraction(1), Fraction(1), 2)]


class TestSameStepFunction:
    def test_same_matrix_twice(self):
        B1, B2 = bmat(T25), bmat(T25)
        f = signature_function_of_matrix(B1, factor_list(B1.det()))
        g = signature_function_of_matrix(B2, factor_list(B2.det()))
        assert same_step_function(f, g, B1, B2)

    def test_distinct_functions_differ(self):
        B1, B2 = bmat(T25), bmat(TREFOIL)
        f = signature_function_of_matrix(B1, factor_list(B1.det()))
        g = signature_function_of_matrix(B2, factor_list(B2.det()))
        assert not same_step_function(f, g, B1, B2)

    def test_zero_functions_equal_without_sampling(self):
        B1, B2 = bmat(FIGURE_EIGHT), bmat([[1, 1], [0, -2]])
        f = signature_function_of_matrix(B1, factor_list(B1.det()))
        g = signature_function_of_matrix(B2, factor_list(B2.det()))
        assert f.is_zero and g.is_zero
        assert same_step_function(f, g, B1, B2)

    def test_equal_away_from_different_jump_sets(self):
        # trefoil vs trefoil # (figure-eight): same arc values, extra factor
        B1 = bmat(TREFOIL)
        B2 = bmat(block_diag(TREFOIL, FIGURE_EIGHT))
        f = signature_function_of_matrix(B1, factor_list(B1.det()))
        g = signature_function_of_matrix(B2, factor_list(B2.det()))
        assert same_step_function(f, g, B1, B2)


class TestGivenFactors:
    def test_alexander_factors_give_the_same_function(self):
        # det B = +-t^k (t - 1)^(2g) Delta and t - 1 has no root on the open
        # arc, so the factors of Delta stand in for those of det B
        rng = random.Random(20261018)
        pool = [e.seifert for e in builtin_catalog()]
        pool += [random_genus_two(rng) for _ in range(6)]
        for s in pool:
            B = s.seifert_form()
            assert signature_function_of_matrix(B, factor_list(alexander(s))) \
                == signature_function_of_matrix(B, factor_list(B.det()))


class TestEmptyMatrix:
    def test_zero_by_zero(self):
        B = ExactMatrix.zeros(0, 0, kind="laurent")
        f = signature_function_of_matrix(B, factor_list(B.det()))
        assert f.arc_rows() == [(Fraction(-2), Fraction(2), 0)]
        assert f.is_zero and f.jumps == ()


class TestSampling:
    def test_sample_angles_avoid_jumps(self):
        B = bmat(T25)
        f = signature_function_of_matrix(B, factor_list(B.det()))
        for arc in f.arcs:
            assert 0 < arc.sample_angle < Fraction(1, 2)

    def test_deterministic(self):
        B1, B2 = bmat(T25), bmat(T25)
        f = signature_function_of_matrix(B1, factor_list(B1.det()))
        g = signature_function_of_matrix(B2, factor_list(B2.det()))
        assert f == g
