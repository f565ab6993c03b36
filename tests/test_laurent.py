"""Laurent polynomial core: ring laws, normalization, parsing.

Expected values in here were worked out by hand (schoolbook expansion with
dense coefficient lists) before the implementation existed; the helper
`naive_mul` keeps an independent multiplication route for cross-checks.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bingcheck.errors import ParseError
from bingcheck.intpoly import IntPoly
from bingcheck.laurent import LaurentPoly, T, dense_mul, dense_pseudo_divmod, parse_poly


def naive_mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Independent multiplication: dense convolution over a shifted window."""
    if f.is_zero or g.is_zero:
        return LaurentPoly.zero()
    fc, flo = f.coeff_list()
    gc, glo = g.coeff_list()
    out = [Fraction(0)] * (len(fc) + len(gc) - 1)
    for i, a in enumerate(fc):
        for j, b in enumerate(gc):
            out[i + j] += a * b
    return LaurentPoly.from_coeffs(out, flo + glo)


def L(s):
    return parse_poly(s)


# -- frozen arithmetic facts -------------------------------------------------

def test_mul_frozen():
    # (t^2 - t + 1)(t + 1) = t^3 + 1, expanded by hand
    assert L("t^2 - t + 1") * L("t + 1") == L("t^3 + 1")
    # cross-check the independent route on the same product
    assert naive_mul(L("t^2 - t + 1"), L("t + 1")) == L("t^3 + 1")


def test_add_sub():
    assert L("t - 1") + L("1 - t") == LaurentPoly.zero()
    assert L("t^2") - L("t^2 - 3") == L("3")


def test_scalar_ops():
    assert 2 * L("t - 1") == L("2t - 2")
    assert L("t") + 1 == L("t + 1")
    assert (1 - T) * (1 + T) == L("1 - t^2")


def test_pow():
    assert (T + 1) ** 2 == L("t^2 + 2t + 1")
    assert (T - 1) ** 0 == LaurentPoly.one()


def test_substitute_power():
    f = L("t^2 - t + 1")
    assert f.substitute_power(3) == L("t^6 - t^3 + 1")
    assert f.substitute_power(-1) == L("t^-2 - t^-1 + 1")
    assert f.substitute_power(2).substitute_power(3) == f.substitute_power(6)
    with pytest.raises(ValueError):
        f.substitute_power(0)


def test_eval_exact():
    assert L("t^2 - t + 1")(-1) == 3
    assert L("t^2 - 3t + 1")(1) == -1
    # Evaluating a cyclotomic of prime-power order at 1 gives the prime.
    assert L("t^6 + t^3 + 1")(1) == 3
    assert L("t^-1 + t")(Fraction(1, 2)) == Fraction(5, 2)
    with pytest.raises(ValueError):
        L("t^-1")(0)


def test_normalize_unit():
    assert L("-t^-1 + 3 - t").normalize_unit() == L("t^2 - 3t + 1")
    assert L("-2t^2 + 5t - 2").normalize_unit() == L("2t^2 - 5t + 2")
    assert L("t^5").normalize_unit() == LaurentPoly.one()
    with pytest.raises(ValueError):
        LaurentPoly.zero().normalize_unit()


def test_normalize_unit_is_idempotent_and_unit_invariant():
    f = L("3t^3 - t^2 + 3t")
    g = f.normalize_unit()
    assert g.normalize_unit() == g
    assert (-f.shift(4)).normalize_unit() == g


def test_self_reciprocal():
    def self_reciprocal(f):
        return f.substitute_power(-1).normalize_unit() == f.normalize_unit()

    assert self_reciprocal(L("t^2 - t + 1"))
    assert self_reciprocal(L("t^2 - 3t + 1"))
    assert self_reciprocal(L("t - 1"))
    assert self_reciprocal(L("t + 1"))
    assert not self_reciprocal(L("2t - 1"))
    assert not self_reciprocal(L("t^2 + t + 2"))


def test_exact_div():
    f = L("t^3 + 1")
    assert f.exact_div(L("t + 1")) == L("t^2 - t + 1")
    shifted = f.shift(-2)
    assert shifted.exact_div(L("t + 1")) == L("t^2 - t + 1").shift(-2)
    with pytest.raises(ValueError):
        L("t^2 + 1").exact_div(L("t + 1"))


def test_content():
    assert L("2t^2 - 4t + 6").split_content() == (2, [3, -2, 1], 0)
    assert L("t + 1").split_content() == (1, [1, 1], 0)
    assert L("3/2t - 9/4").split_content() == (Fraction(3, 4), [-3, 2], 0)
    assert L("-2t^-1 + 4/3t^2").split_content() == (Fraction(2, 3), [-3, 0, 0, 2], -1)
    with pytest.raises(ValueError):
        LaurentPoly.zero().split_content()


# -- parsing and printing ----------------------------------------------------

def test_parse_examples():
    assert L("t^-2 - 3 + t^2") == LaurentPoly({-2: 1, 0: -3, 2: 1})
    assert L("2t^2 - 5t + 2") == LaurentPoly({2: 2, 1: 5 * -1, 0: 2})
    assert L("1/2t + 1/2") == LaurentPoly({1: Fraction(1, 2), 0: Fraction(1, 2)})
    assert L("-t") == LaurentPoly({1: -1})
    assert L("0") == LaurentPoly.zero()
    assert L("3*t^2 - 1") == LaurentPoly({2: 3, 0: -1})
    assert L("t^2-3t+1") == LaurentPoly({2: 1, 1: -3, 0: 1})


def test_parse_errors():
    for bad in ["", "t +", "t ^ 2", "1//2", "x + 1", "2 2", "t^", "* t", "1/0t", "1/00"]:
        with pytest.raises(ParseError):
            parse_poly(bad)


@pytest.mark.parametrize("text", ["\u0663t^2 - t", "t^\u0662 - t"],
                         ids=["arabic-indic-coefficient", "arabic-indic-exponent"])
def test_non_ascii_digits_rejected(text):
    # numbers and exponents are ASCII [0-9]; \\d would read both as 3 and 2
    with pytest.raises(ParseError):
        parse_poly(text)


def test_str_roundtrip_frozen():
    cases = ["t^2 - t + 1", "2t^2 - 5t + 2", "t^2 - 3 + t^-2", "0", "-t + 1", "1/2t + 1/2"]
    for s in cases:
        assert str(parse_poly(s)) == s


coeffs = st.integers(min_value=-9, max_value=9)
rationals = st.one_of(coeffs, st.fractions(min_value=-5, max_value=5, max_denominator=6))
polys = st.builds(
    lambda cs, lo: LaurentPoly.from_coeffs(cs, lo),
    st.lists(rationals, min_size=0, max_size=6),
    st.integers(min_value=-4, max_value=4),
)


def assert_stored_as_fractions(f: LaurentPoly):
    assert all(type(c) is Fraction for _, c in f.items())


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert f * g == naive_mul(f, g)
    assert_stored_as_fractions(f * g)


@settings(max_examples=100, deadline=None)
@given(polys)
def test_parse_print_roundtrip(f):
    assert parse_poly(str(f)) == f


@settings(max_examples=100, deadline=None)
@given(polys, st.integers(min_value=-3, max_value=3).filter(lambda n: n != 0))
def test_substitute_is_ring_hom(f, n):
    g = LaurentPoly({1: 2, 0: -1})
    assert (f * g).substitute_power(n) == f.substitute_power(n) * g.substitute_power(n)
    assert (f + g).substitute_power(n) == f.substitute_power(n) + g.substitute_power(n)


@settings(max_examples=100, deadline=None)
@given(polys, polys)
def test_exact_div_recovers_factor(f, g):
    if f.is_zero or g.is_zero:
        return
    q = (f * g).exact_div(g)
    assert q == f
    assert_stored_as_fractions(q)


# -- the pseudo-division kernel ----------------------------------------------

X = sympy.Symbol("x")


def sympy_pseudo_divmod(num, den):
    """(pquo, prem) of sympy, as dense ascending int lists."""
    f, g = (sympy.Poly(list(reversed(c)) or [0], X, domain="ZZ") for c in (num, den))
    return tuple([int(c) for c in reversed(h.all_coeffs())] if h else []
                 for h in (f.pquo(g), f.prem(g)))


def assert_pseudo_division(num, den, quot, rem):
    """lc^e num == quot * den + rem, e = len(num) - len(den) + 1 (0 if num is
    shorter), rem shorter than den, no trailing zeros."""
    e = max(len(num) - len(den) + 1, 0)
    scaled = [den[-1] ** e * c for c in num]
    dense = LaurentPoly.from_coeffs
    assert naive_mul(dense(quot), dense(den)) + dense(rem) == dense(scaled)
    assert len(rem) < len(den)
    assert not quot or quot[-1] != 0
    assert not rem or rem[-1] != 0


nonzero_coeffs = coeffs.filter(lambda c: c != 0)


@settings(max_examples=150, deadline=None)
@given(st.lists(coeffs, max_size=7).filter(lambda c: not c or c[-1] != 0),
       st.lists(coeffs, max_size=3), nonzero_coeffs)
@example([], [1, 2], 3)              # zero num
@example([4, -1], [0, 5, 7], 2)      # num shorter than den: nothing is scaled
@example([1, 0, 1], [1], 2)          # non-monic: 4(t^2 + 1) = (2t - 1)(2t + 1) + 5
def test_dense_pseudo_divmod_matches_sympy(num, low, lead):
    den = low + [lead]
    quot, rem = dense_pseudo_divmod(num, den)
    assert (quot, rem) == sympy_pseudo_divmod(num, den)
    assert_pseudo_division(num, den, quot, rem)


@settings(max_examples=150, deadline=None)
@given(st.lists(coeffs, max_size=8), st.lists(coeffs, max_size=3))
def test_dense_pseudo_divmod_monic_is_division_in_z(num, low):
    # a monic den scales nothing: num == quot * den + rem, in ints
    den = low + [1]
    quot, rem = dense_pseudo_divmod(num, den)
    assert all(type(c) is int for c in quot + rem)
    dense = LaurentPoly.from_coeffs
    assert naive_mul(dense(quot), dense(den)) + dense(rem) == dense(num)
    assert len(rem) < len(den)


@settings(max_examples=150, deadline=None)
@given(st.lists(coeffs, max_size=6).filter(lambda c: not c or c[-1] != 0),
       st.lists(coeffs, max_size=3),
       st.integers(min_value=-9, max_value=9).filter(lambda c: abs(c) >= 2))
def test_dense_pseudo_divmod_exact_multiple_has_no_remainder(q, low, lead):
    # lc^e (q d) = (lc^e q) d: the quotient is q scaled, the remainder empty
    d = low + [lead]
    num = dense_mul(q, d)
    quot, rem = dense_pseudo_divmod(num, d)
    e = max(len(num) - len(d) + 1, 0)
    assert (quot, rem) == ([lead ** e * c for c in q], [])
    assert all(type(c) is int for c in quot)


def test_dense_pseudo_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        dense_pseudo_divmod([1, 2], [])
    with pytest.raises(ZeroDivisionError):
        dense_pseudo_divmod([], [])


# ints, Fractions, and constant and non-constant LaurentPoly and IntPoly
scalars = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.builds(lambda cs, lo: LaurentPoly.from_coeffs(cs, lo),
              st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
              st.integers(min_value=-1, max_value=1)),
    st.builds(lambda c: LaurentPoly({0: c}), st.fractions(min_value=-3, max_value=3,
                                                         max_denominator=3)),
    st.builds(IntPoly, st.lists(st.integers(min_value=-3, max_value=3), max_size=3)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(scalars, min_size=2, max_size=6))
@example([LaurentPoly({0: 3}), Fraction(3), 3, IntPoly([3])])
@example([LaurentPoly.zero(), IntPoly([]), Fraction(0), 0])
@example([LaurentPoly({0: Fraction(-1, 2)}), Fraction(-1, 2)])
def test_equal_scalars_hash_equal(values):
    # the hash contract, across the number types a polynomial equals
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert len({LaurentPoly({0: 3}), Fraction(3), 3}) == 1
    assert len({IntPoly([3]), 3}) == 1
