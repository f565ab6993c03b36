"""Cyclotomic fields, certified cosine enclosures, Hermitian signatures.

The property tests at the end check the exact field layer past the 2x2 case
against numpy, a floating-point oracle used only here.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bingcheck.fields import (
    PolyQuotientField,
    cayley_point,
    cos_enclosure,
    cyclotomic_field,
    evaluated_hermitian_signature,
    rank_over_factor,
    root_of_unity,
)
from bingcheck.intpoly import IntPoly, cyclotomic, dickson
from bingcheck.laurent import LaurentPoly, as_laurent, parse_poly
from bingcheck.matrices import ExactMatrix, symmetric_signature
from bingcheck.factor import factor_rational
from bingcheck.seifert import SeifertMatrix, alexander
from bingcheck.sigfunc import circle_jump_factors
from strategies import admissible_forms, integral_or_rational_forms


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

    @given(st.integers(1, 60), st.data(), st.sampled_from([8, 48, 200]))
    @settings(max_examples=150, deadline=None)
    def test_matches_machin_taylor_oracle(self, q, data, bits):
        a = Fraction(data.draw(st.integers(-q, 2 * q)), q)
        lo, hi = cos_enclosure(a, bits)
        olo, ohi = machin_taylor_cos(a, bits)
        assert max(lo, olo) <= min(hi, ohi)
        assert 0 <= hi - lo <= Fraction(1, 2 ** bits)
        assert (lo == hi) == (a.denominator in (1, 2, 3, 4, 6))


def machin_taylor_cos(a, bits):
    """Independent oracle for cos(2*pi*a): pi enclosed by Machin's formula
    16 atan(1/5) - 4 atan(1/239) (alternating series bracket their sums),
    then a Taylor polynomial at the enclosure's midpoint with the Lagrange
    remainder and the enclosure's half-width added to both ends."""
    eps = Fraction(1, 2 ** (bits + 6))

    def atan_inv(x):
        # atan(1/x) lies between consecutive partial sums
        s, k = Fraction(0), 0
        while True:
            term = Fraction((-1) ** k, (2 * k + 1) * x ** (2 * k + 1))
            if abs(term) < eps:
                return min(s, s + term), max(s, s + term)
            s += term
            k += 1

    a5, a239 = atan_inv(5), atan_inv(239)
    pi_lo, pi_hi = 16 * a5[0] - 4 * a239[1], 16 * a5[1] - 4 * a239[0]
    a = a - a.numerator // a.denominator
    ylo, yhi = 2 * a * pi_lo, 2 * a * pi_hi
    y0, half_w = (ylo + yhi) / 2, (yhi - ylo) / 2
    s, term, k = Fraction(1), Fraction(1), 0
    while True:
        term = term * y0 * y0 / ((2 * k + 1) * (2 * k + 2))
        k += 1
        if term < eps:
            return s - term - half_w, s + term + half_w
        s += -term if k % 2 else term


def image(f, poly, k=1):
    """poly(x^k) in the cyclotomic field f, by the evaluator."""
    return f.images([poly], f.element([0] * k + [1]))[0]


def x_power(f, k):
    """x^k in the cyclotomic field f, as the image of t^k."""
    return image(f, LaurentPoly({k: 1}))


class TestQuotientField:
    def test_inverse_and_powers(self):
        f = cyclotomic_field(7)
        e = f.element([1, -2, 0, 3, 1, 1])
        assert f.mul(e, f.inv(e)) == f.element([1])
        assert f.mul(x_power(f, 3), x_power(f, 4)) == f.element([1])
        assert x_power(f, -2) == x_power(f, 5)

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
            if any(a[0]):
                assert f.real_sign(n) == 1

    def test_real_sign_frozen(self):
        f = cyclotomic_field(5)
        two_cos_72 = image(f, parse_poly("t + t^-1"))
        assert f.real_sign(two_cos_72) == 1
        assert f.real_sign(image(f, parse_poly("t^2 + t^-2"))) == -1
        assert f.real_sign(f.element([0])) == 0
        # 2cos(72) = 0.618...: straddle it from both sides, with 1/2 and 7/10
        half = f.inv(f.element([2]))
        seven_tenths = f.mul(f.element([7]), f.inv(f.element([10])))
        assert f.real_sign(f.sub(two_cos_72, half)) == 1
        assert f.real_sign(f.sub(two_cos_72, seven_tenths)) == -1

    def test_real_sign_rejects_non_real(self):
        f = cyclotomic_field(5)
        with pytest.raises(ValueError):
            f.real_sign(x_power(f, 1))

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
            assert evaluated_hermitian_signature(b, root_of_unity(theta)) == want, theta

    def test_figure_eight_vanishes(self):
        b = seifert_form_matrix(FIGURE_EIGHT)
        for theta in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5),
                      Fraction(2, 7), Fraction(3, 8), Fraction(5, 12)):
            sig, _ = evaluated_hermitian_signature(b, root_of_unity(theta))
            assert sig == 0

    def test_conjugate_angles_agree(self):
        b = seifert_form_matrix(TREFOIL)
        for theta in (Fraction(1, 5), Fraction(2, 7), Fraction(3, 11)):
            assert evaluated_hermitian_signature(b, root_of_unity(theta)) == \
                evaluated_hermitian_signature(b, root_of_unity(1 - theta))

    def test_matches_rational_symmetric_route_at_half(self):
        # independent route: B(-1) is a rational symmetric matrix
        import random

        rng = random.Random(3)
        for _ in range(25):
            n = rng.randrange(1, 4)
            a = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
            b = seifert_form_matrix(a)
            direct = symmetric_signature(ExactMatrix(
                [[2 * (a[i][j] + a[j][i]) for j in range(n)] for i in range(n)]
            ).integer_rows()[0])
            assert evaluated_hermitian_signature(b, root_of_unity(Fraction(1, 2))) == direct

    @given(integral_or_rational_forms(max_genus=2), integral_or_rational_forms(max_genus=2))
    @example(SeifertMatrix(TREFOIL), SeifertMatrix(FIGURE_EIGHT))
    @settings(max_examples=20, deadline=None)
    def test_block_additivity(self, a, b):
        # signature and nullity at points of both kinds, and the rank over
        # each circle factor of Delta_A Delta_B, are sums over the two blocks
        blocks = [a.seifert_form(), b.seifert_form()]
        both = blocks[0].block_sum(blocks[1])
        points = [cayley_point(s) for s in (Fraction(1, 3), 1, -3)] + \
            [root_of_unity(theta) for theta in (Fraction(1, 5), Fraction(1, 6), Fraction(4, 9))]
        for point in points:
            parts = [evaluated_hermitian_signature(m, point) for m in blocks]
            assert evaluated_hermitian_signature(both, point) == \
                tuple(map(sum, zip(*parts))), point
        _, factors = factor_rational(alexander(a) * alexander(b))
        for g, _ in circle_jump_factors(factors):
            assert rank_over_factor(both, g) == sum(rank_over_factor(m, g) for m in blocks), g

    def test_points_of_both_kinds(self):
        # i = exp(2 pi i / 4) = (1 + i)/(1 - i): one point, one field
        assert cayley_point(1) == root_of_unity(Fraction(1, 4))
        b = seifert_form_matrix(TREFOIL)
        # the trefoil jumps at u = 1; u(s) = 2(1 - s^2)/(1 + s^2) is 6/5, 0
        # and -6/5 at s = 1/2, 1 and 2
        assert evaluated_hermitian_signature(b, cayley_point(Fraction(1, 2))) == (0, 0)
        assert evaluated_hermitian_signature(b, cayley_point(1)) == (-2, 0)
        assert evaluated_hermitian_signature(b, cayley_point(2)) == (-2, 0)

    def test_non_hermitian_rejected(self):
        m = ExactMatrix([[parse_poly("t")]])
        with pytest.raises(ValueError):
            evaluated_hermitian_signature(m, root_of_unity(Fraction(1, 3)))
        # Hermitian diagonal; only the off-diagonal pair disagrees
        m = ExactMatrix([[parse_poly("1"), parse_poly("t")],
                         [parse_poly("t"), parse_poly("1")]])
        with pytest.raises(ValueError):
            evaluated_hermitian_signature(m, root_of_unity(Fraction(1, 3)))


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

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            rank_over_factor(ExactMatrix([[1, 2]]), IntPoly("t^2 + 1"))

    def test_nullity_matches_jump_angle_evaluation(self):
        # at the root of t^2 - t + 1 (angle 1/6) the corank from the exact
        # cyclotomic evaluation must agree with the rank over the factor field
        b = seifert_form_matrix(TREFOIL)
        _, nullity = evaluated_hermitian_signature(b, root_of_unity(Fraction(1, 6)))
        assert nullity == 2 - rank_over_factor(b, IntPoly("t^2 - t + 1"))

    @given(integral_or_rational_forms(), st.integers(1, 4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_quotient_field_elimination(self, s, k, data):
        # at the factors of Delta(t^k), where the rank drops, and at t + 1
        B = s.seifert_form().substitute_power(k)
        moduli = [g for g, _ in factor_rational(alexander(s).substitute_power(k))[1]]
        modulus = data.draw(st.sampled_from(moduli + [IntPoly("t + 1")]))
        assert rank_over_factor(B, modulus) == quotient_field_rank(B, modulus)


def quotient_field_rank(M, modulus):
    """Exact oracle: Gaussian elimination with entries in
    PolyQuotientField(modulus), after clearing negative exponents and
    denominators (t is a unit mod the modulus, and so is a constant)."""
    field = PolyQuotientField(modulus)
    entries = [[as_laurent(e) for e in r] for r in M.entries]
    s = max([0] + [-f.min_exp for r in entries for f in r if f])
    scale = math.lcm(*(c.denominator for r in entries for f in r for _, c in f.items()))
    rows = [[field.element([int(f.coeff(j - s) * scale) for j in range(f.max_exp + s + 1)]
                           if f else []) for f in r] for r in entries]
    rank = 0
    for col in range(M.cols):
        pivot = next((r for r in range(rank, M.rows) if any(rows[r][col][0])), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = field.inv(rows[rank][col])
        for r in range(rank + 1, M.rows):
            if any(rows[r][col][0]):
                f = field.mul(rows[r][col], inverse)
                rows[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# -- property tests against a floating-point oracle ------------------------------

def numeric(M, z):
    """M(z) for a Laurent ExactMatrix M, as a complex numpy array."""
    return np.array([[sum(float(c) * z ** k for k, c in as_laurent(M[i, j]).items())
                      for j in range(M.cols)] for i in range(M.rows)], dtype=complex)


seifert_forms = admissible_forms().map(SeifertMatrix.seifert_form)
angles = st.integers(2, 16).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda a: Fraction(a, q))
)
laurent_polys = st.dictionaries(
    st.integers(-3, 3), st.integers(-3, 3), max_size=4
).map(LaurentPoly)
rational_laurent_polys = st.dictionaries(
    st.integers(-3, 3),
    st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)),
    max_size=4,
).map(LaurentPoly)
# irreducible over Q, with nonzero constant term
MODULI = [IntPoly(m) for m in (
    "2t - 1", "t + 3", "t^2 + 1", "t^2 - t + 1", "t^2 - 3t + 1", "2t^2 + t + 3",
    "t^3 - t - 1", "t^4 + t^3 + t^2 + t + 1", "t^4 - 2",
)]


class TestAgainstNumericOracle:
    @given(seifert_forms, st.integers(1, 3), angles)
    @settings(max_examples=30, deadline=None)
    def test_hermitian_signature_matches_eigenvalues(self, B, n, angle):
        M = B.substitute_power(n)
        eig = np.linalg.eigvalsh(numeric(M, cmath.exp(2j * math.pi * angle)))
        assume(all(abs(e) > 1e-6 for e in eig))
        want = sum(1 for e in eig if e > 0) - sum(1 for e in eig if e < 0)
        assert evaluated_hermitian_signature(M, root_of_unity(angle)) == (want, 0)

    @given(st.integers(1, 4), st.sampled_from(MODULI), st.data())
    @settings(max_examples=40, deadline=None)
    def test_rank_over_factor_matches_every_root(self, n, modulus, data):
        # rational coefficients, as covering Seifert matrices have
        rows = [[data.draw(rational_laurent_polys) for _ in range(n)] for _ in range(n)]
        if n > 1 and data.draw(st.booleans()):
            # a row congruent to another modulo the modulus: rank drops at its
            # roots only
            i, j = data.draw(st.integers(0, n - 2)), data.draw(st.integers(0, n - 1))
            rows[-1] = list(rows[i])
            rows[-1][j] = rows[i][j] + modulus.to_laurent().shift(-2) * data.draw(
                st.integers(-2, 2))
        M = ExactMatrix(rows)
        got = rank_over_factor(M, modulus)
        for root in np.roots([float(c) for c in reversed(modulus.coeffs)]):
            s = np.linalg.svd(numeric(M, complex(root)), compute_uv=False)
            scale = max(1.0, float(s.max(initial=0.0)))
            assume(not any(1e-9 * scale < x < 1e-5 * scale for x in s))
            assert got == sum(1 for x in s if x >= 1e-5 * scale)

    @given(st.integers(1, 30), st.data())
    @settings(max_examples=30, deadline=None)
    def test_cyclotomic_field_inverse_and_images(self, q, data):
        f = cyclotomic_field(q)
        a = f.element(data.draw(st.lists(st.integers(-3, 3), max_size=2 * f.degree)))
        if any(a[0]):
            assert f.mul(a, f.inv(a)) == f.element([1])
        g, h = data.draw(laurent_polys), data.draw(laurent_polys)
        k = data.draw(st.integers(1, q))
        assert image(f, g * h, k) == f.mul(image(f, g, k), image(f, h, k))

    @given(seifert_forms, st.integers(1, 3), st.integers(-20, 20), st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_cayley_signature_matches_eigenvalues(self, B, n, a, b):
        # omega(s) = (1 + i s)/(1 - i s), s of either sign, in Q(i)
        M = B.substitute_power(n)
        s = Fraction(a, b)
        eig = np.linalg.eigvalsh(numeric(M, complex(1, a / b) / complex(1, -a / b)))
        assume(all(abs(e) > 1e-6 for e in eig))
        want = sum(1 for e in eig if e > 0) - sum(1 for e in eig if e < 0)
        assert evaluated_hermitian_signature(M, cayley_point(s)) == (want, 0)

    @given(st.integers(3, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_zero_diagonal_signature_matches_eigenvalues(self, n, data):
        # every diagonal entry vanishes, so the congruence must first make a
        # pivot from an off-diagonal pair; a repeated row and column (which
        # keeps the diagonal zero) makes the matrix singular
        full = [[LaurentPoly()] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                full[i][j] = data.draw(laurent_polys)
                full[j][i] = full[i][j].substitute_power(-1)
        index = list(range(n))
        if data.draw(st.booleans()):
            k, source = data.draw(st.permutations(range(n)))[:2]
            index[k] = source
        M = ExactMatrix([[full[i][j] for j in index] for i in index])
        kind = data.draw(st.sampled_from(["minus one", "root of unity", "Cayley"]))
        if kind == "Cayley":
            s = Fraction(data.draw(st.integers(-20, 20)), data.draw(st.integers(1, 20)))
            point, z = cayley_point(s), complex(1, s) / complex(1, -s)
        else:
            angle = Fraction(1, 2) if kind == "minus one" else data.draw(angles)
            point, z = root_of_unity(angle), cmath.exp(2j * math.pi * angle)
        eig = np.linalg.eigvalsh(numeric(M, z))
        assume(not any(1e-9 < abs(e) < 1e-6 for e in eig))
        want = (sum(1 for e in eig if e >= 1e-6) - sum(1 for e in eig if e <= -1e-6),
                sum(1 for e in eig if abs(e) <= 1e-9))
        assert evaluated_hermitian_signature(M, point) == want
        if kind == "minus one":
            assert symmetric_signature(ExactMatrix(
                [[M[i, j](-1) for j in range(n)] for i in range(n)]).integer_rows()[0]) == want


class TestPointPower:
    @given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_cayley_powers_match_dickson_and_numpy(self, num, den, k):
        # u(omega^k) = D_k(u(omega)) at the Cayley point omega, with omega^k
        # multiplied out here as an exact pair (re, im)
        s = Fraction(num, den)
        q, ((x, y), d) = cayley_point(s)
        assert q == 4
        re, im = Fraction(1), Fraction(0)
        for _ in range(k):
            re, im = (re * x - im * y) / d, (re * y + im * x) / d
        u = 2 * (1 - s * s) / (1 + s * s)
        assert u == Fraction(2 * x, d)
        assert dickson(k, u) == 2 * re
        z = complex(re, im)
        assert abs(z - ((1 + 1j * float(s)) / (1 - 1j * float(s))) ** k) < 1e-9


class TestExactArguments:
    @pytest.mark.parametrize("build", [root_of_unity, cayley_point])
    def test_float_rejected(self, build):
        # Fraction(0.1) has denominator 2^55: a field of that order would
        # exhaust memory rather than fail
        with pytest.raises(TypeError):
            build(0.1)
        assert build("1/3") == build(Fraction(1, 3))


# -- the integer field against Fraction tuples ------------------------------------

def as_fractions(e):
    """An element (numerators, denominator) as its Fraction coefficients."""
    nums, den = e
    return tuple(Fraction(c, den) for c in nums)


def fraction_reduce(c, q):
    """Fraction coefficients reduced mod the monic Phi_q, deg Phi_q of them."""
    m = cyclotomic(q).coeffs
    n = len(m) - 1
    c = list(c) + [Fraction(0)] * n
    for top in range(len(c) - 1, n - 1, -1):
        a = c[top]
        for j in range(n + 1):
            c[top - n + j] -= a * m[j]
    return tuple(c[:n])


def fraction_mul(a, b, q):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return fraction_reduce(out, q)


def fraction_conj(a, q):
    out = [Fraction(0)] * q
    for i, x in enumerate(a):
        out[-i % q] += x
    return fraction_reduce(out, q)


def fraction_inv(a, q):
    """a^-1 by Gauss-Jordan on the matrix of multiplication by a."""
    n = len(a)
    cols = [fraction_mul(a, [0] * j + [1], q) for j in range(n)]
    aug = [[cols[j][i] for j in range(n)] + [Fraction(i == 0)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(row[n] for row in aug)


def fraction_image(poly, omega, q):
    """poly(omega) for omega on the unit circle, omega^-1 = conj(omega)."""
    total = [Fraction(0)] * len(omega)
    for e, c in poly.items():
        power = (Fraction(1),) + (Fraction(0),) * (len(omega) - 1)
        for _ in range(abs(e)):
            power = fraction_mul(power, omega, q)
        if e < 0:
            power = fraction_conj(power, q)
        total = [t + c * x for t, x in zip(total, power)]
    return tuple(total)


class TestIntegerField:
    """Elements are (int numerators, positive denominator) in lowest terms;
    every operation agrees with Fraction-tuple arithmetic mod Phi_q."""

    @given(st.sampled_from([3, 4, 5, 7, 8, 12]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_fraction_tuples(self, q, data):
        f = cyclotomic_field(q)

        def draw():
            nums = data.draw(st.lists(st.integers(-9, 9), min_size=f.degree,
                                      max_size=f.degree))
            den = data.draw(st.integers(1, 12))
            g = math.gcd(den, *nums)
            assert f.element(nums) == (tuple(nums), 1)
            return (tuple(c // g for c in nums), den // g), tuple(Fraction(c, den) for c in nums)

        (a, fa), (b, fb) = draw(), draw()
        results = [f.add(a, b), f.sub(a, b), f.mul(a, b), f.conj(a)]
        for (nums, den) in results + [a]:
            assert den > 0 and math.gcd(den, *nums) == 1
        assert [as_fractions(e) for e in results] == [
            tuple(x + y for x, y in zip(fa, fb)), tuple(x - y for x, y in zip(fa, fb)),
            fraction_mul(fa, fb, q), fraction_conj(fa, q)]
        if any(fa):
            assert as_fractions(f.inv(a)) == fraction_inv(fa, q)
        real = f.add(a, f.conj(a))
        value = sum(float(x) * math.cos(2 * math.pi * i / q)
                    for i, x in enumerate(as_fractions(real)))
        if any(real[0]):
            assert abs(value) > 1e-9 and f.real_sign(real) == (1 if value > 0 else -1)
        else:
            assert f.real_sign(real) == 0
        if q == 4 and data.draw(st.booleans()):
            omega = cayley_point(Fraction(data.draw(st.integers(-20, 20)),
                                          data.draw(st.integers(1, 20))))[1]
        else:
            omega = f.element([0] * data.draw(st.integers(0, q - 1)) + [1])
        polys = [data.draw(rational_laurent_polys) for _ in range(2)]
        assert [as_fractions(e) for e in f.images(polys, omega)] == [
            fraction_image(g, as_fractions(omega), q) for g in polys]
