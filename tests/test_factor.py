"""Rational factorization: frozen splits, round-trips, canonical form."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from bingcheck import factor
from bingcheck.catalog import builtin_catalog
from bingcheck.factor import _zassenhaus, factor_rational
from bingcheck.intpoly import IntPoly, cyclotomic
from bingcheck.laurent import LaurentPoly, parse_poly
from bingcheck.seifert import alexander


def reconstruct(unit, factors):
    out = unit
    for g, m in factors:
        out = out * g.to_laurent() ** m
    return out


class TestFrozenFactorizations:
    def test_two_t_squared_minus_five_t_plus_two(self):
        unit, fs = factor_rational(parse_poly("2t^2 - 5t + 2"))
        assert unit == LaurentPoly.one()
        assert fs == [(IntPoly("t - 2"), 1), (IntPoly("2t - 1"), 1)]

    def test_known_irreducibles(self):
        for text in ("t^2 - t + 1", "t^2 - 3t + 1", "t^4 - 10t^2 + 1"):
            unit, fs = factor_rational(parse_poly(text))
            assert len(fs) == 1 and fs[0][1] == 1
            assert fs[0][0] == IntPoly(text)

    def test_t_eighth_minus_one(self):
        _, fs = factor_rational(IntPoly([-1, 0, 0, 0, 0, 0, 0, 0, 1]))
        assert [g for g, _ in fs] == [cyclotomic(d) for d in (1, 2, 4, 8)]
        assert all(m == 1 for _, m in fs)

    def test_unit_collects_sign_content_and_shift(self):
        f = parse_poly("-3/2") * parse_poly("t^-3") * parse_poly("t^2 - 2") ** 2
        unit, fs = factor_rational(f)
        assert unit == LaurentPoly({-3: Fraction(-3, 2)})
        assert fs == [(IntPoly("t^2 - 2"), 2)]

    def test_multiplicities(self):
        f = parse_poly("t - 1") ** 3 * parse_poly("t^2 + 1")
        _, fs = factor_rational(f)
        assert fs == [(IntPoly("t - 1"), 3), (IntPoly("t^2 + 1"), 1)]
        f = parse_poly("t - 1") * parse_poly("t + 2") ** 2 * parse_poly("t^2 + 1") ** 3
        _, fs = factor_rational(f)
        assert fs == [(IntPoly("t - 1"), 1), (IntPoly("t + 2"), 2), (IntPoly("t^2 + 1"), 3)]

    def test_constant_input(self):
        unit, fs = factor_rational(parse_poly("7/3"))
        assert unit == LaurentPoly({0: Fraction(7, 3)})
        assert fs == []

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_rational(LaurentPoly.zero())

    def test_square_factor_is_split_before_zassenhaus(self):
        # _zassenhaus needs a squarefree argument; factor_rational gives it
        # only the squarefree part of its input
        _, fs = factor_rational(parse_poly("t + 1") ** 2 * parse_poly("t^2 + 2"))
        assert fs == [(IntPoly("t + 1"), 2), (IntPoly("t^2 + 2"), 1)]


class TestZassenhaus:
    def test_splits_despite_modular_splitting(self):
        # irreducible over Q yet reducible mod every prime
        f = IntPoly("t^4 - 10t^2 + 1")
        assert _zassenhaus(f) == [f]

    def test_product_of_close_factors(self):
        a, b = IntPoly("t^2 + t + 1"), IntPoly("t^2 + t + 2")
        got = _zassenhaus(a * b)
        assert sorted(got, key=lambda g: g.coeffs) == sorted(
            [a, b], key=lambda g: g.coeffs
        )

    def test_nonmonic(self):
        f = IntPoly("2t - 1") * IntPoly("3t - 1") * IntPoly("t^2 + 5")
        got = _zassenhaus(f)
        assert sorted(g.coeffs for g in got) == sorted(
            [(-1, 2), (-1, 3), (5, 0, 1)]
        )


quadratics = st.one_of(
    st.tuples(st.integers(1, 60), st.integers(-60, 60), st.integers(-60, 60)),
    # products of two linear factors, so that splitting is common
    st.tuples(st.integers(1, 8), st.integers(-8, 8), st.integers(1, 8), st.integers(-8, 8))
    .map(lambda f: (f[0] * f[2], f[0] * f[3] + f[1] * f[2], f[1] * f[3])),
).filter(lambda abc: abc[2] != 0 and abc[1] ** 2 != 4 * abc[0] * abc[2])


class TestQuadratics:
    """A squarefree quadratic is split by its discriminant, with no prime
    chosen and nothing lifted."""

    @settings(max_examples=150, deadline=None)
    @given(quadratics)
    def test_closed_form_matches_sympy(self, abc):
        a, b, c = abc
        f = LaurentPoly.from_coeffs([c, b, a])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(factor, "_choose_prime", None)
            unit, fs = factor_rational(f)
        assert fs == sympy_factors(f)
        assert reconstruct(unit, fs) == f

    def test_frozen(self):
        assert _zassenhaus(IntPoly("2t^2 - 5t + 2")) == [IntPoly("t - 2"), IntPoly("2t - 1")]
        assert _zassenhaus(IntPoly("t^2 - 3t + 1")) == [IntPoly("t^2 - 3t + 1")]
        assert _zassenhaus(IntPoly("t^2 + 1")) == [IntPoly("t^2 + 1")]


class TestDegreeSieve:
    @pytest.fixture
    def ddf_primes(self, monkeypatch):
        """The prime of every distinct-degree factorization taken."""
        primes = []
        original = factor._gf_distinct_degree

        def counting(f, p):
            primes.append(p)
            return original(f, p)

        monkeypatch.setattr(factor, "_gf_distinct_degree", counting)
        return primes

    # irreducible mod 3: Artin-Schreier t^3 - t - a, and Phi_7 (3 has
    # order 6 mod 7)
    @pytest.mark.parametrize("text", ["t^3 - t - 1", "t^3 - t + 1",
                                      "t^6 + t^5 + t^4 + t^3 + t^2 + t + 1"])
    def test_irreducible_mod_three_stops_after_one_ddf(self, ddf_primes, text):
        f = IntPoly(text)
        assert _zassenhaus(f) == [f]
        assert ddf_primes == [3]

    def test_split_mod_every_prime_is_still_proved_irreducible(self, ddf_primes):
        # t^4 - 10t^2 + 1 splits mod every prime, into linear or quadratic
        # factors, so degree 2 is allowed at every prime and nothing is
        # proved: five primes are tried, and recombination finds no factor
        f = IntPoly("t^4 - 10t^2 + 1")
        assert _zassenhaus(f) == [f]
        assert len(ddf_primes) == 5

    @pytest.mark.parametrize("s", builtin_catalog()[1:], ids=lambda s: s.name)
    def test_delta_of_t_to_the_fourth_is_fully_factored(self, s):
        # g(t^4), as the cable ops of the benchmark factor it: 4_1's
        # t^8 - 3t^4 + 1 = (t^4 - t^2 - 1)(t^4 + t^2 - 1) splits
        f = alexander(s.seifert).substitute_power(4)
        assert sympy_factors(f) == factor_rational(f)[1]

    def test_genus_two_delta_of_t_to_the_fourth(self):
        f = parse_poly("3t^4 + 4t^3 - 13t^2 + 4t + 3").substitute_power(4)
        assert sympy_factors(f) == factor_rational(f)[1] == [(IntPoly(str(f)), 1)]


X = sympy.Symbol("x")


def sympy_factors(f: LaurentPoly):
    """factor_rational(f)[1] as sympy.factor_list finds it."""
    coeffs, _ = f.coeff_list()
    poly = sum(sympy.Rational(str(c)) * X ** k for k, c in enumerate(coeffs))
    out = []
    for g, m in sympy.factor_list(poly)[1]:
        c = sympy.Poly(g, X).all_coeffs()[::-1]
        out.append((IntPoly([int(x) for x in c]).primitive(), m))
    return sorted(out, key=lambda gm: (gm[0].degree, gm[0].coeffs))


substituted = st.tuples(
    st.one_of(
        st.lists(st.integers(-4, 4), min_size=2, max_size=4).map(IntPoly)
        .filter(lambda g: g.degree >= 1),
        st.integers(1, 12).map(cyclotomic),
        # non-monic, with lc 2 or 3
        st.tuples(st.integers(2, 3), st.lists(st.integers(-4, 4), min_size=1, max_size=2))
        .map(lambda lc_low: IntPoly(lc_low[1] + [lc_low[0]])),
    ),
    st.integers(1, 4),
    st.integers(1, 2),
)


class TestAgainstSympy:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(substituted, min_size=1, max_size=3))
    def test_products_of_substituted_factors(self, parts):
        f = LaurentPoly.one()
        for g, k, m in parts:
            f = f * g.to_laurent().substitute_power(k) ** m
        unit, fs = factor_rational(f)
        assert fs == sympy_factors(f)
        assert reconstruct(unit, fs) == f


coeff = st.integers(-7, 7)
small_factor = st.lists(coeff, min_size=2, max_size=4).map(IntPoly).filter(
    lambda f: f.degree >= 1
)


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.tuples(small_factor, st.integers(1, 2)), min_size=1, max_size=3),
        st.integers(-3, 3),
        st.fractions(min_value=-4, max_value=4).filter(bool),
    )
    def test_reconstruction(self, parts, shift, scale):
        f = LaurentPoly({shift: scale})
        for g, m in parts:
            f = f * g.to_laurent() ** m
        unit, fs = factor_rational(f)
        assert reconstruct(unit, fs) == f
        # canonical shape: primitive, positive lc, sorted
        for g, m in fs:
            assert g.lc > 0 and g.content() == 1 and m >= 1
        keys = [(g.degree, g.coeffs) for g, _ in fs]
        assert keys == sorted(keys)
        assert len(set(g for g, _ in fs)) == len(fs)

    @settings(max_examples=60, deadline=None)
    @given(small_factor)
    def test_factors_are_stable(self, f):
        """Re-factoring a returned factor gives that factor back (so the
        output really is a set of irreducibles, or at least a fixed point)."""
        _, fs = factor_rational(f.to_laurent())
        for g, _ in fs:
            _, again = factor_rational(g.to_laurent())
            assert again == [(g, 1)]
