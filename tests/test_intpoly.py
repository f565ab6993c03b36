"""Integer polynomial layer: resultants, gcd, squarefree, cyclotomic, Sturm."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bingcheck import intpoly
from bingcheck.intpoly import (
    IntPoly,
    cyclotomic,
    cyclotomic_order,
    divmod_exact,
    gcd_poly,
    pseudo_rem,
    resultant,
    squarefree_decomposition,
    squarefree_part,
    sturm_isolate,
)


def sylvester_resultant(f: IntPoly, g: IntPoly) -> Fraction:
    """Independent oracle: determinant of the Sylvester matrix, by cofactor
    expansion over exact rationals."""
    m, n = f.degree, g.degree
    size = m + n
    if size == 0:
        return Fraction(1)
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in fc]
                    + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in gc]
                    + [Fraction(0)] * (size - n - 1 - i))

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = Fraction(0)
        for j, head in enumerate(mat[0]):
            if head == 0:
                continue
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * head * det(minor)
        return total

    return det(rows)


small_poly = st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(IntPoly)
nonzero_poly = small_poly.filter(lambda f: not f.is_zero)


class TestResultant:
    def test_frozen_values(self):
        assert resultant(IntPoly("t - 2"), IntPoly("t - 3")) == -1
        assert resultant(IntPoly("t^2 - t + 1"), IntPoly("t + 1")) == 3
        # Res(t^2 + 1, t^2 - 2) = (i^2-2)((-i)^2-2) = 9
        assert resultant(IntPoly("t^2 + 1"), IntPoly("t^2 - 2")) == 9
        assert resultant(IntPoly("t^3 - 1"), IntPoly("t - 1")) == 0

    def test_constant_argument(self):
        assert resultant(IntPoly("t^3 + t - 2"), IntPoly("5")) == 125
        assert resultant(IntPoly("7"), IntPoly("t^2 - 2")) == 49

    def test_laurent_input_names_the_shift(self):
        f = IntPoly("t^2 - t + 1")
        with pytest.raises(TypeError, match=r"LaurentPoly\.split_content"):
            resultant(f.to_laurent().shift(-1), f)
        with pytest.raises(TypeError, match=r"LaurentPoly\.split_content"):
            resultant(f, f.to_laurent())

    @settings(max_examples=150, deadline=None)
    @given(nonzero_poly, nonzero_poly)
    def test_matches_sylvester_determinant(self, f, g):
        assert resultant(f, g) == sylvester_resultant(f, g)

    @settings(max_examples=60, deadline=None)
    @given(nonzero_poly, nonzero_poly, nonzero_poly)
    def test_multiplicative_in_first_argument(self, f, g, h):
        assert resultant(f * g, h) == resultant(f, h) * resultant(g, h)

    @settings(max_examples=60, deadline=None)
    @given(nonzero_poly, nonzero_poly)
    def test_swap_sign(self, f, g):
        sign = (-1) ** (f.degree * g.degree)
        assert resultant(f, g) == sign * resultant(g, f)


class TestGcdAndSquarefree:
    def test_gcd_of_products(self):
        a = IntPoly("t^2 - 1") * IntPoly("2t + 6")
        b = IntPoly("t + 1") * IntPoly("t + 3") * IntPoly("t^2 + 1")
        assert gcd_poly(a, b) == IntPoly("t^2 + 4t + 3")

    def test_gcd_coprime(self):
        assert gcd_poly(IntPoly("t^2 + 1"), IntPoly("t^2 - 2")) == IntPoly("1")

    @settings(max_examples=100, deadline=None)
    @given(nonzero_poly, nonzero_poly)
    def test_gcd_divides_both(self, f, g):
        d = gcd_poly(f, g)
        for poly in (f, g):
            q = divmod_exact(poly, d)
            assert q * d == poly

    def test_divmod_exact_rejects_a_fractional_quotient(self):
        # (3t + 3) / (2t + 2) = 3/2 leaves no remainder, but is not in Z[t]
        with pytest.raises(ValueError):
            divmod_exact(IntPoly("3t + 3"), IntPoly("2t + 2"))
        with pytest.raises(ValueError):
            divmod_exact(IntPoly("3"), IntPoly("2"))
        # an integral leading digit, then a remainder
        with pytest.raises(ValueError):
            divmod_exact(IntPoly("2t^2 + 1"), IntPoly("2t"))
        assert divmod_exact(IntPoly("6t^2 - 6"), IntPoly("2t - 2")) == IntPoly("3t + 3")
        assert divmod_exact(IntPoly(), IntPoly("2t - 2")) == IntPoly()

    def test_divmod_exact_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod_exact(IntPoly("t + 1"), IntPoly())

    def test_pseudo_rem_identity(self):
        f = IntPoly("6t^4 - t^3 + 2t - 7")
        g = IntPoly("3t^2 + t - 1")
        r = pseudo_rem(f, g)
        scale = g.lc ** (f.degree - g.degree + 1)
        # scale*f - r must be divisible by g
        q = divmod_exact(scale * f - r, g)
        assert q * g + r == scale * f

    def test_yun_decomposition(self):
        f = IntPoly("t - 1") * IntPoly("t + 2") ** 2 * IntPoly("t^2 + 1") ** 3
        assert squarefree_decomposition(f) == [
            (IntPoly("t - 1"), 1),
            (IntPoly("t + 2"), 2),
            (IntPoly("t^2 + 1"), 3),
        ]

    @settings(max_examples=60, deadline=None)
    @given(nonzero_poly, st.integers(1, 3), nonzero_poly)
    def test_yun_reconstructs(self, f, k, g):
        h = (f ** k * g).primitive()
        if h.degree < 1:
            return
        prod = IntPoly("1")
        for a, i in squarefree_decomposition(h):
            prod = prod * a ** i
        assert prod == h

    def test_squarefree_part(self):
        f = IntPoly("t - 1") ** 3 * IntPoly("t + 5") ** 2
        assert squarefree_part(f) == IntPoly("t - 1") * IntPoly("t + 5")


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1) == IntPoly("t - 1")
        assert cyclotomic(2) == IntPoly("t + 1")
        assert cyclotomic(3) == IntPoly("t^2 + t + 1")
        assert cyclotomic(4) == IntPoly("t^2 + 1")
        assert cyclotomic(6) == IntPoly("t^2 - t + 1")
        assert cyclotomic(12) == IntPoly("t^4 - t^2 + 1")

    def test_degree_is_totient(self):
        for d in range(1, 40):
            assert cyclotomic(d).degree == sympy.totient(d)

    def test_product_over_divisors(self):
        for n in (6, 8, 12, 30):
            prod = IntPoly("1")
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic(d)
            t_n_minus_1 = IntPoly([-1] + [0] * (n - 1) + [1])
            assert prod == t_n_minus_1

    def test_value_at_one_detects_prime_powers(self):
        assert cyclotomic(9)(1) == 3
        assert cyclotomic(8)(1) == 2
        assert cyclotomic(25)(1) == 5
        assert cyclotomic(15)(1) == 1

    def test_self_reciprocal_above_one(self):
        for d in range(2, 20):
            r = cyclotomic(d).reverse()
            assert r == cyclotomic(d) or r == -cyclotomic(d)


T = sympy.Symbol("t")


def sympy_cyclotomic(d: int) -> IntPoly:
    return IntPoly(sympy.Poly(sympy.cyclotomic_poly(d, T), T).all_coeffs()[::-1])


class TestCyclotomicOrder:
    def test_matches_sympy_cyclotomic_polys(self):
        for d in range(1, 301):
            assert cyclotomic_order(sympy_cyclotomic(d)) == d

    def test_products_and_non_cyclotomics_are_none(self):
        for a in range(1, 16):
            for b in range(a, 16):
                assert cyclotomic_order(sympy_cyclotomic(a) * sympy_cyclotomic(b)) is None
        # 4_1's Delta; monic with constant term 1, but a root off the circle
        assert cyclotomic_order(IntPoly("t^2 - 3t + 1")) is None
        for text in ("t^2 - t - 1", "2t - 1", "t^2 + 2", "t^4 + t^3 + t + 1", "3", "t"):
            assert cyclotomic_order(IntPoly(text)) is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3), max_size=7), st.sampled_from([1, -1]))
    def test_monic_with_unit_constant_matches_the_totient_scan(self, middle, constant):
        # the degree-m cyclotomics are the Phi_d with totient(d) = m, d <= 2 m^2
        f = IntPoly([constant] + middle + [1])
        m = f.degree
        scan = [d for d in range(1, 2 * m * m + 2)
                if sympy.totient(d) == m and sympy_cyclotomic(d) == f]
        assert cyclotomic_order(f) == (scan[0] if scan else None)

    @pytest.mark.parametrize("f, builds", [
        (IntPoly("t^2 - t + 1"), [6]),
        (IntPoly("t^4 - t^2 + 1"), [12]),
        (IntPoly("t - 1"), [1]),
        (IntPoly("t^2 - 1"), [2]),  # Phi_1 Phi_2: t has order 2, Phi_2 != f
        (IntPoly("t^2 - 3t + 1"), []),
        (IntPoly("t^4 + 1") * IntPoly("t^4 + 1"), []),  # a square never reaches 1
    ])
    def test_builds_at_most_one_cyclotomic(self, monkeypatch, f, builds):
        for d in builds:
            cyclotomic(d)  # cached, so a count of its builds is of this call's only
        built = []

        def counting(d):
            built.append(d)
            return cyclotomic(d)

        monkeypatch.setattr(intpoly, "cyclotomic", counting)
        cyclotomic_order(f)
        assert built == builds


def brute_root_count(f: IntPoly, lo: Fraction, hi: Fraction, grid: int = 2048) -> int:
    """Oracle: count sign changes of the squarefree part on a fine grid.

    Only valid when consecutive roots are farther apart than the grid step and
    no root sits on a grid point; the test polynomials are chosen that way.
    """
    g = squarefree_part(f)
    step = (hi - lo) / grid
    count = 0
    prev = g(lo)
    assert prev != 0
    for i in range(1, grid + 1):
        cur = g(lo + i * step)
        if cur == 0:
            count += 1
            prev = -prev
            continue
        if (cur > 0) != (prev > 0):
            count += 1
        prev = cur
    return count


def fraction_horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def fraction_divmod(num, den):
    """Long division of Fraction lists, every digit divided by lc(den)."""
    rem = [Fraction(c) for c in num]
    quot = [Fraction(0)] * max(len(rem) - len(den) + 1, 0)
    for k in reversed(range(len(quot))):
        q = quot[k] = rem[k + len(den) - 1] / den[-1]
        for j, d in enumerate(den):
            rem[k + j] -= q * d
    rem = rem[:len(den) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def fraction_isolation(f: IntPoly, lo: Fraction, hi: Fraction, width: Fraction):
    """Reference isolation: a Sturm chain of Fraction lists evaluated by
    Fraction Horner, then sign bisection of each interval below `width`;
    (lo, hi, exact) triples, an exact root r as (r, r, r)."""
    g = [Fraction(c) for c in squarefree_part(f).coeffs]
    chain = [g, [i * c for i, c in enumerate(g)][1:]]
    while len(chain[-1]) > 1:
        _, r = fraction_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def variations(x):
        signs = [v > 0 for v in (fraction_horner(c, x) for c in chain) if v]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def bisect(p, a, b):
        slo = fraction_horner(p, a) > 0
        while b - a > width:
            mid = (a + b) / 2
            v = fraction_horner(p, mid)
            if v == 0:
                return mid, mid, mid
            if (v > 0) == slo:
                a = mid
            else:
                b = mid
        return a, b, None

    exact = {end for end in (lo, hi) if fraction_horner(g, end) == 0}
    found = []
    stack = [(lo, hi, variations(lo), variations(hi))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb - (b in exact)
        if n == 1:
            p = g
            for end in (a, b):
                if end in exact:
                    p, _ = fraction_divmod(p, [-end, Fraction(1)])
            if len(p) == 2:
                r = -p[0] / p[1]
                found.append((r, r, None))
            else:
                found.append((a, b, p))
        elif n > 1:
            mid = (a + b) / 2
            if fraction_horner(g, mid) == 0:
                exact.add(mid)
                found.append((mid, mid, None))
            vm = variations(mid)
            stack.append((a, mid, va, vm))
            stack.append((mid, b, vm, vb))
    found.sort(key=lambda item: item[:2])
    return [(a, a, a) if p is None else bisect(p, a, b) for a, b, p in found]


class TestSturm:
    def test_counts_match_brute_scan(self):
        cases = [
            IntPoly("t^2 - 2"),
            IntPoly("t^3 - 3t + 1"),
            IntPoly("t^2 - 2") * IntPoly("t^2 - 3"),
            IntPoly("t^4 - 5t^2 + 3"),
            IntPoly("t^5 - 4t^3 + t + 1"),
            # chains that drop two degrees below a member with a negative
            # leading coefficient, where the remainder keeps its sign
            IntPoly("t^4 + 3t + 2"),
            IntPoly("t^5 - t^4 + 3"),
        ]
        for f in cases:
            ivs = sturm_isolate(f, Fraction(-3), Fraction(3))
            assert len(ivs) == brute_root_count(f, Fraction(-3), Fraction(3))

    def test_intervals_bracket_roots(self):
        f = IntPoly("t^2 - 2") * IntPoly("t^2 - 3") * IntPoly("2t - 1")
        ivs = [iv.refine(Fraction(1, 10 ** 6)) for iv in sturm_isolate(f, -2, 2)]
        assert len(ivs) == 5
        approx = sorted([-(3 ** 0.5), -(2 ** 0.5), 0.5, 2 ** 0.5, 3 ** 0.5])
        for iv, x in zip(ivs, approx):
            assert float(iv.lo) <= x <= float(iv.hi)

    def test_disjoint_and_sorted(self):
        f = IntPoly("t^2 - 2") * IntPoly("4t^2 - 9") * IntPoly("t^2 - t - 1")
        ivs = sturm_isolate(f, -4, 4)
        assert len(ivs) == 6
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi <= b.lo

    def test_linear_factor_gives_exact_root(self):
        ivs = sturm_isolate(IntPoly("3t - 2"), -2, 2)
        assert len(ivs) == 1
        assert ivs[0].exact == Fraction(2, 3)

    def test_multiplicities_ignored(self):
        f = IntPoly("t - 1") ** 4
        ivs = sturm_isolate(f, -2, 2)
        assert len(ivs) == 1
        assert ivs[0].exact == 1

    def test_open_interval_excludes_endpoints(self):
        f = IntPoly("t^2 - 4")
        assert sturm_isolate(f, -2, 2) == []

    def test_no_roots(self):
        assert sturm_isolate(IntPoly("t^2 + 1"), -10, 10) == []

    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 4), st.integers(1, 3)),
                    min_size=1, max_size=4),
           st.lists(st.tuples(st.sampled_from([2, 3, 5, 6, 7, 8, 10, 11]), st.integers(1, 2)),
                    max_size=2),
           st.integers(-16, 8), st.integers(1, 32))
    @settings(max_examples=150, deadline=None)
    def test_rational_and_repeated_roots(self, linear, quadratic, lo, width):
        # dyadic roots b/2^k and dyadic ends: bisection often lands on a
        # root, and the ends are often roots themselves
        f, rational, surds = IntPoly([1]), set(), set()
        for b, k, m in linear:
            f = f * IntPoly([-b, 2 ** k]) ** m
            rational.add(Fraction(b, 2 ** k))
        for d, m in quadratic:
            f = f * IntPoly([-d, 0, 1]) ** m
            surds |= {(1, d), (-1, d)}
        lo = Fraction(lo, 2)
        hi = lo + Fraction(width, 2)

        def below(x, root):
            # x < sign * sqrt(d), exactly
            sign, d = root
            return x < 0 or x * x < d if sign > 0 else x < 0 and x * x > d

        def roots_in(a, b):
            return ([r for r in rational if a < r < b]
                    + [r for r in surds if below(a, r) and not below(b, r)])

        ivs = sturm_isolate(f, lo, hi)
        assert len(ivs) == len(roots_in(lo, hi))
        for iv in ivs:
            if iv.exact is not None:
                assert iv.exact in rational and f(iv.exact) == 0
            else:
                assert len(roots_in(iv.lo, iv.hi)) == 1
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi <= b.lo
        # the intervals that reports print must not drift with the kernel
        w = Fraction(1, 2 ** 20)
        assert ([(iv.lo, iv.hi, iv.exact) for iv in (iv.refine(w) for iv in ivs)]
                == fraction_isolation(f, lo, hi, w))

    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=5).map(IntPoly),
           st.lists(st.integers(-5, 5), min_size=2, max_size=3).map(IntPoly),
           st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_squarefree_part_only_for_square_factors(self, g, h, m):
        # f's own chain ends in gcd(f, f'): a constant there means f is
        # squarefree, and only otherwise is squarefree_part taken
        assume(g.degree >= 1 and h.degree >= 1)
        calls = []
        original = intpoly.squarefree_part
        for f in (g, g * h ** (m + 1)):
            g_sq = original(f)
            want = sturm_isolate(g_sq, -6, 6)
            calls.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(intpoly, "squarefree_part", lambda f: calls.append(f) or original(f))
                assert sturm_isolate(f, -6, 6) == want
            assert len(calls) == (0 if g_sq == f.primitive() else 1)

    def test_refine_narrows(self):
        (iv,) = sturm_isolate(IntPoly("t^2 - 2"), 0, 2)
        narrow = iv.refine(Fraction(1, 2 ** 30))
        assert narrow.exact is None
        assert narrow.hi - narrow.lo <= Fraction(1, 2 ** 30)
        assert iv.lo <= narrow.lo < narrow.hi <= iv.hi


big = st.integers(-10 ** 6, 10 ** 6)
dyadic = st.builds(Fraction, big, st.integers(0, 40).map(lambda k: 2 ** k))


@settings(max_examples=200, deadline=None)
@given(st.lists(big, max_size=11),
       st.one_of(dyadic, st.fractions(max_denominator=10 ** 6), st.just(Fraction(0))))
def test_call_matches_fraction_horner(coeffs, x):
    f = IntPoly(coeffs)
    value = f(x)
    assert type(value) is Fraction
    assert value == fraction_horner(f.coeffs, x)
