"""Signature step functions: arcs, jumps, and exact arc sampling.

Reference values are classical: for the (2, 2k+1) torus knots the signature
of B(omega) drops by 2 at each root of the Alexander polynomial on the upper
semicircle, and for the figure-eight knot it vanishes identically because
t^2 - 3t + 1 has no roots on the circle (u-image t - 3, root outside (-2, 2)).

Arcs are sampled at rational points of the circle in Q(i); the oracle of
TestAgainstRootOfUnitySampler evaluates them instead in Q(zeta_q) at roots of
unity certified inside the same arcs by cosine enclosures.
"""

import random
from fractions import Fraction
from itertools import count
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bingcheck.catalog import builtin_catalog
from bingcheck.factor import factor_rational
import bingcheck.fields as fields
import bingcheck.sigfunc as sigfunc
import bingcheck.witt as witt_module
from bingcheck.errors import InternalInvariantError
from bingcheck.fields import (
    cayley_point,
    cos_enclosure,
    evaluated_hermitian_signature,
    root_of_unity,
)
from bingcheck.intpoly import IntPoly, RootInterval, u_image
from bingcheck.laurent import LaurentPoly, parse_poly
from bingcheck.matrices import ExactMatrix
from bingcheck.seifert import (
    SeifertMatrix,
    alexander,
    connected_sum,
    mirror,
    signature_function,
)
from bingcheck.sigfunc import (
    JumpPoint,
    _cayley_sample,
    _gap,
    _separate_all,
    circle_jump_factors,
    pullback_signature_function,
    same_step_function,
    signature_function_of_matrix,
)
from strategies import admissible_forms
from bingcheck.witt import (
    from_seifert,
    jpq_presentation,
    phi,
    presentation_battery,
    witt_sum,
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


def symplectic_seifert(genus, upper):
    """Integral 2g x 2g Seifert matrix with A - A^T the standard symplectic
    form, its upper triangle (diagonal included) read row by row from
    `upper`."""
    n = 2 * genus
    entries = iter(upper)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = next(entries)
            if j > i:
                rows[j][i] = rows[i][j] - (1 if j == i + 1 and i % 2 == 0 else 0)
    return SeifertMatrix(rows)


# phi_5 of its form has 8 arcs, with values -2 and 0
GENUS_TWO = symplectic_seifert(2, [-3, 0, 2, -2, 0, 2, -3, 1, -2, 3])


def random_genus_two(rng):
    """Integral 4x4 Seifert matrix with A - A^T the standard symplectic form."""
    return symplectic_seifert(2, [rng.randint(-3, 3) for _ in range(10)])


def u_of(s):
    """u = omega + 1/omega at the Cayley point omega = (1 + i s)/(1 - i s)."""
    return 2 * (1 - s * s) / (1 + s * s)


def sample_angle_oracle(lo, hi):
    """Smallest-denominator reduced angle a/q in (0, 1/2) whose u-value
    2cos(2 pi a/q) a cosine enclosure certifies inside (lo, hi): the
    root-of-unity sampler arcs were once evaluated at.  A u-value at a gap
    end is rational, so its enclosure is exact and the refinement stops."""
    for q in count(3):
        for a in range(1, (q - 1) // 2 + 1):
            if gcd(a, q) != 1:
                continue
            theta = Fraction(a, q)
            bits = 48
            while True:
                c_lo, c_hi = cos_enclosure(theta, bits)
                if lo < 2 * c_lo and 2 * c_hi < hi:
                    return theta
                if 2 * c_hi <= lo or 2 * c_lo >= hi:
                    break
                bits *= 2


def function_of(pres):
    return signature_function_of_matrix(pres.matrix, factor_list(pres.order()))


def resampling_oracle(f, g, B_f, B_g):
    """Equality of two step functions decided by evaluation: one certified
    angle per piece of the common refinement of both arc partitions, with
    both matrices evaluated there.  Each factor's roots are cut once, from
    the first function that jumps at it (equal roots cannot be separated)."""
    owner = {}
    for fn in (f, g):
        for j in fn.jumps:
            owner.setdefault(j.factor, fn)
    cuts = [(j.root, None) for fn in (f, g) for j in fn.jumps if owner[j.factor] is fn]
    ends = [None] + [r for r, _ in _separate_all(cuts)] + [None]
    for left, right in zip(ends, ends[1:]):
        omega = cayley_point(_cayley_sample(*_gap(left, right)))
        if (evaluated_hermitian_signature(B_f, omega)[0]
                != evaluated_hermitian_signature(B_g, omega)[0]):
            return False
    return True


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
        d = bmat(TREFOIL).det()
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
        assert f.jumps[0].root.lo == f.jumps[0].root.hi == 1
        assert f.jumps[0].factor == IntPoly("t^2 - t + 1")
        assert not f.is_zero
        assert max(abs(sig) for _, _, sig in f.arc_rows()) == 2

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
        assert f.jumps[1].root.lo == f.jumps[1].root.hi == 1

    def test_trefoil_plus_mirror_cancels(self):
        mirror = [[1, 0], [-1, 1]]  # -A^T for the trefoil matrix
        B = bmat(block_diag(TREFOIL, mirror))
        f = signature_function_of_matrix(B, factor_list(B.det()))
        assert f.is_zero
        assert f.jump_rows() == [(Fraction(1), Fraction(1), 2)]


class TestDerivedRows:
    @given(admissible_forms(3))
    @example(SeifertMatrix(TREFOIL))
    @example(SeifertMatrix(T25))
    @settings(max_examples=15, deadline=None)
    def test_rows_are_read_off_the_jumps(self, s):
        # on K's function, phi_2 K's and J(1, 2)'s: the arc bounds run from
        # -2 through each jump's midpoint to 2, and a jump prints its
        # isolating interval, a point exactly when its factor's u-image is
        # linear (an irreducible u-image of higher degree has no rational
        # root)
        for fn in (signature_function(s),
                   presentation_battery(phi(from_seifert(s), 2)).signature,
                   presentation_battery(jpq_presentation(s, 1, 2)).signature):
            rows = fn.arc_rows()
            assert len(rows) == len(fn.jumps) + 1
            assert rows[0][0] == -2 and rows[-1][1] == 2
            assert [hi for _, hi, _ in rows[:-1]] == [j.root.midpoint() for j in fn.jumps]
            assert [lo for lo, _, _ in rows[1:]] == [hi for _, hi, _ in rows[:-1]]
            assert all(lo < hi for lo, hi, _ in rows)
            assert [sig for _, _, sig in rows] == [a.signature for a in fn.arcs]
            assert fn.jump_rows() == [(j.root.lo, j.root.hi, j.nullity) for j in fn.jumps]
            for j in fn.jumps:
                g = u_image(j.factor)
                assert (j.root.lo == j.root.hi) == (g.degree == 1)
                if g.degree == 1:
                    assert g(j.root.lo) == 0


class TestSignatureBound:
    @given(admissible_forms(4))
    @settings(max_examples=30, deadline=None)
    def test_arcs_are_bounded_by_the_size(self, s):
        # off its jumps B(omega) is a nonsingular 2g x 2g Hermitian form, of
        # even signature at most 2g in absolute value: on K's matrix-path
        # function and on its pullback to phi_2 K, again of size 2g
        for fn in (signature_function(s),
                   presentation_battery(phi(from_seifert(s), 2)).signature):
            assert all(a.signature % 2 == 0 and abs(a.signature) <= s.size
                       for a in fn.arcs)


class TestSameStepFunction:
    def test_same_matrix_twice(self):
        B1, B2 = bmat(T25), bmat(T25)
        f = signature_function_of_matrix(B1, factor_list(B1.det()))
        g = signature_function_of_matrix(B2, factor_list(B2.det()))
        assert same_step_function(f, g)

    def test_distinct_functions_differ(self):
        B1, B2 = bmat(T25), bmat(TREFOIL)
        f = signature_function_of_matrix(B1, factor_list(B1.det()))
        g = signature_function_of_matrix(B2, factor_list(B2.det()))
        assert not same_step_function(f, g)

    def test_zero_functions_equal_without_sampling(self):
        B1, B2 = bmat(FIGURE_EIGHT), bmat([[1, 1], [0, -2]])
        f = signature_function_of_matrix(B1, factor_list(B1.det()))
        g = signature_function_of_matrix(B2, factor_list(B2.det()))
        assert f.is_zero and g.is_zero
        assert same_step_function(f, g)

    def test_equal_away_from_different_jump_sets(self):
        # trefoil vs trefoil # (figure-eight): same arc values, extra factor
        B1 = bmat(TREFOIL)
        B2 = bmat(block_diag(TREFOIL, FIGURE_EIGHT))
        f = signature_function_of_matrix(B1, factor_list(B1.det()))
        g = signature_function_of_matrix(B2, factor_list(B2.det()))
        assert same_step_function(f, g)

    def test_changes_at_different_roots_of_one_factor(self):
        # K has Delta = t^4 - t^3 + t^2 - t + 1 like T(2,5), with arc values
        # [0, 2, 0]: T(2,5) + K reads [-4, 0, 0] and T(2,5) + mirror K reads
        # [-4, -4, 0], each one change to 0, at the two different roots
        K = [[2, 1, -3, -3], [0, 0, 1, 0], [-3, 1, -1, -1], [-3, 0, -2, 1]]
        mirror_K = [[-K[j][i] for j in range(4)] for i in range(4)]
        B1, B2 = bmat(block_diag(T25, K)), bmat(block_diag(T25, mirror_K))
        f = signature_function_of_matrix(B1, factor_list(B1.det()))
        g = signature_function_of_matrix(B2, factor_list(B2.det()))
        assert [a.signature for a in f.arcs] == [-4, 0, 0]
        assert [a.signature for a in g.arcs] == [-4, -4, 0]
        assert not same_step_function(f, g)

    @given(admissible_forms(2), admissible_forms(2), st.integers(1, 3), st.integers(1, 3),
           st.sampled_from(["phi", "sum", "cancel"]))
    @example(SeifertMatrix(TREFOIL), SeifertMatrix(FIGURE_EIGHT), 2, 4, "phi")
    @example(SeifertMatrix(TREFOIL), SeifertMatrix(T25), 1, 1, "sum")
    @example(SeifertMatrix(T25), SeifertMatrix(TREFOIL), 2, 3, "cancel")
    @settings(max_examples=20, deadline=None)
    def test_agrees_with_resampling_oracle(self, s1, s2, a, b, kind):
        # phi: phi_a B1 against phi_b B1; sum: phi_a B1 + phi_b B2 against
        # phi_a B1 (equal iff phi_b B2 has zero signature); cancel: phi_a B1
        # against phi_a B1 + phi_b B2 + phi_b mirror(B2), always equal
        p1, p2 = from_seifert(s1), from_seifert(s2)
        first = phi(p1, a)
        if kind == "phi":
            second = phi(p1, b)
        elif kind == "sum":
            first, second = witt_sum(first, phi(p2, b)), first
        else:
            second = witt_sum(first, witt_sum(
                phi(p2, b), phi(from_seifert(mirror(s2)), b)))
        f, g = function_of(first), function_of(second)
        expected = resampling_oracle(f, g, first.matrix, second.matrix)
        assert same_step_function(f, g) == expected
        if kind == "cancel":
            assert expected


class TestGap:
    # sqrt 2 and sqrt 3 isolated by intervals that touch at 3/2
    SQRT2 = RootInterval(Fraction(1), Fraction(3, 2), IntPoly("t^2 - 2"))
    SQRT3 = RootInterval(Fraction(3, 2), Fraction(2), IntPoly("t^2 - 3"))
    ONE = RootInterval(Fraction(1), Fraction(1), IntPoly("t - 1"))

    def check(self, left, right, lo_bound, hi_bound):
        """_gap of the two jumps is nonempty, lies in [lo_bound, hi_bound]
        given as predicates on its ends, and leaves the jumps as they were."""
        jumps = [JumpPoint(root=r, factor=r.poly, nullity=1)
                 for r in (left, right) if r is not None]
        printed = [(j.root.lo, j.root.hi) for j in jumps]
        lo, hi = _gap(left, right)
        assert lo < hi
        assert lo_bound(lo) and hi_bound(hi)
        assert [(j.root.lo, j.root.hi) for j in jumps] == printed
        return lo, hi

    def test_touching_intervals(self):
        self.check(self.SQRT2, self.SQRT3,
                   lambda lo: lo > 0 and lo * lo > 2,
                   lambda hi: hi * hi < 3)

    def test_interval_starting_at_exact_neighbour(self):
        lo, _ = self.check(self.ONE, self.SQRT2,
                           lambda lo: lo >= 1, lambda hi: hi * hi < 2)
        assert lo == 1

    def test_ends_of_the_circle(self):
        assert _gap(None, None) == (Fraction(-2), Fraction(2))
        self.check(None, RootInterval(Fraction(-2), Fraction(-1), IntPoly("t^2 - 2")),
                   lambda lo: lo == -2, lambda hi: hi < 0 and hi * hi > 2)
        self.check(RootInterval(Fraction(1), Fraction(2), IntPoly("t^2 - 2")), None,
                   lambda lo: lo > 0 and lo * lo > 2, lambda hi: hi == 2)


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
        B = ExactMatrix([])
        f = signature_function_of_matrix(B, factor_list(B.det()))
        assert f.arc_rows() == [(Fraction(-2), Fraction(2), 0)]
        assert f.is_zero and f.jumps == ()


class TestSampling:
    def test_samples_avoid_jumps(self):
        # each sample's u(s) = 2(1 - s^2)/(1 + s^2) lies strictly between the
        # isolating intervals of the neighbouring jumps (or the ends -2, 2)
        for a in (T25, block_diag(TREFOIL, T25)):
            B = bmat(a)
            f = signature_function_of_matrix(B, factor_list(B.det()))
            ends = ([Fraction(-2)] + [x for j in f.jumps for x in (j.root.lo, j.root.hi)]
                    + [Fraction(2)])
            for arc, lo, hi in zip(f.arcs, ends[::2], ends[1::2]):
                assert arc.sample_angle > 0
                assert lo < u_of(arc.sample_angle) < hi

    def test_deterministic(self):
        B1, B2 = bmat(T25), bmat(T25)
        f = signature_function_of_matrix(B1, factor_list(B1.det()))
        g = signature_function_of_matrix(B2, factor_list(B2.det()))
        assert f == g


class TestCayleySample:
    TINY = Fraction(1, 2 ** 40)

    def check(self, lo, hi):
        s = _cayley_sample(lo, hi)
        assert s > 0
        assert lo < u_of(s) < hi
        return s

    def test_whole_circle(self):
        assert self.check(Fraction(-2), Fraction(2)) == 1  # u(1) = 0

    def test_gaps_touching_the_ends(self):
        # s(-2) is infinite: the least integer past s(hi)
        assert self.check(Fraction(-2), Fraction(1)) == 1
        assert self.check(Fraction(-2), -2 + self.TINY).denominator == 1
        # s(2) = 0: the least 1/m below s(lo)
        assert self.check(Fraction(1), Fraction(2)) == Fraction(1, 2)
        assert self.check(2 - self.TINY, Fraction(2)).numerator == 1

    def test_narrow_gaps(self):
        for lo in (Fraction(-2), Fraction(-3, 2), Fraction(1, 3), Fraction(1), 2 - self.TINY):
            self.check(lo, lo + self.TINY)
        self.check(Fraction(6, 5) - self.TINY, Fraction(6, 5))

    def test_exact_neighbours(self):
        # u(1) = 0 and u(1/2) = 6/5 are open ends: s lies in (1/2, 1)
        assert self.check(Fraction(0), Fraction(6, 5)) == Fraction(2, 3)
        assert self.check(Fraction(-6, 5), Fraction(0)) == Fraction(3, 2)
        # beside the exact jump u = 1 of the trefoil, and between it and sqrt 2
        assert self.check(Fraction(1), Fraction(2)) == Fraction(1, 2)
        self.check(*_gap(TestGap.ONE, TestGap.SQRT2))

    @given(st.fractions(-2, 2, max_denominator=60), st.fractions(-2, 2, max_denominator=60))
    @settings(max_examples=100, deadline=None)
    def test_simplest_in_gap(self, lo, hi):
        assume(lo < hi)
        s = self.check(lo, hi)
        # brute force: for each smaller denominator r, u falls as p grows, so
        # the first p/r with u(p/r) < hi is the only one that could lie above lo
        for r in range(1, s.denominator):
            p = 1
            while u_of(Fraction(p, r)) >= hi:
                p += 1
            assert u_of(Fraction(p, r)) <= lo, Fraction(p, r)


# Delta = (t^2 - t + 1)(t + 1)^2 / 4: a factor of Phi_6(t^k) takes its
# nullity from the trefoil's jump, one of t^k + 1 from B(-1)
JUMP_AND_MINUS_ONE = connected_sum(
    SeifertMatrix(TREFOIL), SeifertMatrix([[Fraction(1, 2), 1], [0, Fraction(1, 2)]]))


def assert_pullback_is_matrix_path(pres):
    """The battery's function, pulled back from the bases' own, equals the
    matrix path's on the whole presentation, field for field."""
    assert presentation_battery(pres).signature \
        == signature_function_of_matrix(pres.matrix, pres.factors())


class TestPullback:
    @given(admissible_forms(3), st.integers(1, 5))
    @example(JUMP_AND_MINUS_ONE, 3)
    @settings(max_examples=20, deadline=None)
    def test_phi(self, s, k):
        assert_pullback_is_matrix_path(phi(from_seifert(s), k))

    @given(admissible_forms(3), st.integers(1, 3), st.integers(1, 3))
    @example(SeifertMatrix(T25), 2, 2)
    @example(JUMP_AND_MINUS_ONE, 1, 2)
    @settings(max_examples=15, deadline=None)
    def test_jpq(self, s, p, q):
        assert_pullback_is_matrix_path(jpq_presentation(s, p, q))

    @given(admissible_forms(3), admissible_forms(3), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_witt_sum_with_a_mirror(self, s1, s2, k):
        # with s2 = s1 every jump of one summand is a jump of the other
        for other in (s1, s2):
            assert_pullback_is_matrix_path(
                witt_sum(phi(from_seifert(s1), k), from_seifert(mirror(other))))

    def test_unknot(self):
        unknot = from_seifert(SeifertMatrix([]))
        for pres in (unknot, phi(unknot, 3), jpq_presentation(SeifertMatrix([]), 1, 2),
                     witt_sum(unknot, phi(from_seifert(SeifertMatrix(TREFOIL)), 2))):
            assert_pullback_is_matrix_path(pres)
        assert presentation_battery(phi(unknot, 3)).signature.arc_rows() \
            == [(Fraction(-2), Fraction(2), 0)]

    def test_base_singular_at_minus_one(self):
        # Delta = (t + 1)^2 / 4 and B(-1) = 2(A + A^T) has rank 1: a factor
        # h of t^k + 1 takes its nullity from B at -1
        s = SeifertMatrix([[Fraction(1, 2), 1], [0, Fraction(1, 2)]])
        base = from_seifert(s)
        for pres in (phi(base, 2), phi(base, 4), jpq_presentation(s, 2, 2),
                     jpq_presentation(s, 1, 3)):
            assert_pullback_is_matrix_path(pres)
        assert presentation_battery(phi(base, 2)).signature.jump_rows() \
            == [(Fraction(0), Fraction(0), 1)]

    def test_a_base_function_is_built_once(self, monkeypatch):
        built = []
        original = signature_function_of_matrix

        def counting(B, factors):
            built.append(B)
            return original(B, factors)

        monkeypatch.setattr(witt_module, "signature_function_of_matrix", counting)
        # presentations that share a base share its function, across batteries
        base = from_seifert(SeifertMatrix(TREFOIL))
        for pres in (phi(base, 2), witt_sum(phi(base, 3), base)):
            presentation_battery(pres)
        assert built == [base.matrix]

    def test_forged_nullity_raises(self):
        # the nullity at a factor's roots lies in [1, its multiplicity]
        base, _ = from_seifert(SeifertMatrix(TREFOIL)).parts[0]
        factors, jumps = base.substituted(2)
        function = pullback_signature_function([(base.function, 2)], factors, jumps)
        assert function.jumps
        multiplicity = dict(factors)
        for h, (_, roots) in jumps.items():
            if not roots:
                continue
            for forged in (0, multiplicity[h] + 1):
                with pytest.raises(InternalInvariantError, match="nullity %d" % forged):
                    pullback_signature_function([(base.function, 2)], factors,
                                                {**jumps, h: (forged, roots)})

    def test_matrix_path_bounds_each_nullity(self, monkeypatch):
        # a rank of 0 gives the trefoil's 2 x 2 form nullity 2 at the simple
        # factor t^2 - t + 1
        monkeypatch.setattr(sigfunc, "rank_over_factor", lambda B, p: 0)
        s = SeifertMatrix(TREFOIL)
        with pytest.raises(InternalInvariantError, match="nullity 2 .* multiplicity 1"):
            signature_function_of_matrix(s.seifert_form(), factor_list(alexander(s)))

    def test_a_base_isolates_each_circle_factor_once(self, monkeypatch):
        isolated = []
        original = witt_module.sturm_isolate

        def recording(g, lo, hi):
            isolated.append(g)
            return original(g, lo, hi)

        monkeypatch.setattr(witt_module, "sturm_isolate", recording)
        base = from_seifert(SeifertMatrix(T25))
        # t - 1 and Phi_10 of T(2, 5)'s order share factors between k
        for k in (1, 2, 3, 6):
            presentation_battery(phi(base, k))
        presentation_battery(witt_sum(phi(base, 2), witt_sum(phi(base, 6), phi(base, 4))))
        assert isolated and len(isolated) == len(set(isolated))


class TestAgainstRootOfUnitySampler:
    @given(admissible_forms(3), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_arc_values_match_cyclotomic_evaluation(self, s, n):
        # each arc's Q(i) value equals B at a root of unity in the same arc
        # the battery pulls f back from the function of the form of s
        pres = phi(from_seifert(s), n)
        f = presentation_battery(pres).signature
        ends = [None] + [j.root for j in f.jumps] + [None]
        for arc, left, right in zip(f.arcs, ends, ends[1:]):
            theta = sample_angle_oracle(*_gap(left, right))
            assert evaluated_hermitian_signature(pres.matrix, root_of_unity(theta)) \
                == (arc.signature, 0)

    def test_arc_path_works_in_q_i_only(self, monkeypatch):
        orders = []
        original = fields.cyclotomic_field

        def counting(q):
            orders.append(q)
            return original(q)

        monkeypatch.setattr(fields, "cyclotomic_field", counting)
        presentations = [from_seifert(e.seifert) for e in builtin_catalog()]
        presentations.append(phi(from_seifert(GENUS_TWO), 5))
        arcs = sum(len(function_of(p).arcs) for p in presentations)
        assert arcs > len(presentations)
        assert set(orders) == {4}
