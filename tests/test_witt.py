"""Tests for Witt presentations, the obstruction battery, and the
Bing-double verdict."""

import sys
from fractions import Fraction
from math import gcd, isqrt

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from bingcheck.errors import AdmissibilityError, InternalInvariantError
from bingcheck.factor import factor_rational, merge_factors
from bingcheck.intpoly import IntPoly, cyclotomic, cyclotomic_order, pseudo_rem
from bingcheck.laurent import LaurentPoly, parse_poly, normalize_unit
from bingcheck.matrices import ExactMatrix, bareiss_det
from bingcheck import fields, sigfunc, witt
from bingcheck.fields import cayley_point, evaluated_hermitian_signature, root_of_unity
from bingcheck.sigfunc import signature_function_of_matrix
from bingcheck.seifert import (
    SeifertMatrix,
    alexander,
    arf,
    connected_sum,
    determinant_invariant,
    fox_milnor,
    mirror,
    signature_function,
)
from bingcheck.catalog import format_report
from bingcheck.cli import main
from bingcheck.cover import covering_seifert_matrix
from strategies import admissible_forms, integral_or_rational_forms
from bingcheck.witt import (
    NOT_ALG_SLICE,
    NO_OBSTRUCTION_FOUND,
    bing_double_verdict,
    cyclotomic_factors,
    from_seifert,
    jpq_presentation,
    obstruction_battery,
    phi,
    presentation_battery,
    witt_sum,
)

TREFOIL = SeifertMatrix([[-1, 1], [0, -1]], name="3_1")
FIGURE_EIGHT = SeifertMatrix([[1, 1], [0, -1]], name="4_1")
STEVEDORE = SeifertMatrix([[1, 1], [0, -2]], name="6_1")
UNKNOT = SeifertMatrix([], name="unknot")
CATALOG = [UNKNOT, TREFOIL, FIGURE_EIGHT, STEVEDORE]

ONE = parse_poly("1")
T = parse_poly("t")


def factor_list(f):
    return factor_rational(f)[1]


def count_calls(monkeypatch, fn, whole=False, caller=None):
    """Wrap every binding of `fn` in the package, in its modules and in the
    classes they define, and return the list that collects the first
    argument of each call (the receiver, for a method), or with `whole`
    the tuple of its arguments; with `caller`, only of the calls made from
    the module of that name."""
    seen = []

    def counting(*args, **kwargs):
        if caller is None or sys._getframe(1).f_globals["__name__"] == caller:
            seen.append(args if whole else args[0])
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "bingcheck":
            continue
        classes = [v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__.startswith("bingcheck")]
        for namespace in [module] + classes:
            for attr, value in list(vars(namespace).items()):
                if value is fn:
                    monkeypatch.setattr(namespace, attr, counting)
    return seen


class TestWittPresentation:
    def test_trefoil_entries(self):
        b = from_seifert(TREFOIL).matrix
        diag = parse_poly("t - 2 + t^-1")
        assert b[0, 0] == diag and b[1, 1] == diag
        assert b[0, 1] == parse_poly("1 - t")
        assert b[1, 0] == parse_poly("1 - t^-1")

    def test_ring_flags(self):
        assert from_seifert(TREFOIL).ring == "Z"
        rational = covering_seifert_matrix(TREFOIL, 3)
        assert from_seifert(rational).ring == "Q"

    def test_hermitian_for_catalog(self):
        for s in CATALOG:
            b = from_seifert(s).matrix
            for i in range(b.rows):
                for j in range(b.cols):
                    assert b[i, j].substitute_power(-1) == b[j, i]

    def test_unknot_empty(self):
        p = from_seifert(UNKNOT)
        assert p.size == 0
        assert p.order() == ONE

    def test_order_is_unit_times_cyclotomic_deficient_alexander(self):
        # det B = (1 - t)^n * Delta up to units; from_seifert takes its order
        # from Delta, so det B is the oracle
        for s in CATALOG:
            p = from_seifert(s)
            det = normalize_unit(p.matrix.det())
            assert det == normalize_unit((ONE - T) ** s.size * alexander(s))
            assert p.order() == det


class TestPhi:
    def test_identity(self):
        p = from_seifert(TREFOIL)
        assert phi(p, 1) is p

    def test_composition(self):
        p = from_seifert(FIGURE_EIGHT)
        assert phi(phi(p, 3), 5) == phi(p, 15)

    def test_order_substitution(self):
        p = from_seifert(TREFOIL)
        for n in (2, 3, 5):
            assert phi(p, n).order() == normalize_unit(
                p.order().substitute_power(n)
            )
            assert phi(p, n).order() == normalize_unit(phi(p, n).matrix.det())

    def test_rejects_nonpositive(self):
        p = from_seifert(TREFOIL)
        for n in (0, -1):
            with pytest.raises(ValueError):
                phi(p, n)

    def test_reparametrization_law(self):
        # signature of phi_n P at a/q equals signature of P at na/q mod 1
        for s in (TREFOIL, FIGURE_EIGHT):
            p = from_seifert(s)
            for n in (3, 5):
                pn = phi(p, n)
                for theta in (Fraction(1, 7), Fraction(2, 7), Fraction(3, 8),
                              Fraction(1, 9), Fraction(4, 11)):
                    pulled = (n * theta) % 1
                    assert evaluated_hermitian_signature(pn.matrix, root_of_unity(theta)) \
                        == evaluated_hermitian_signature(p.matrix, root_of_unity(pulled))


class TestWittSum:
    def test_empty_neutral(self):
        p = from_seifert(TREFOIL)
        empty = from_seifert(UNKNOT)
        assert witt_sum(p, empty) == p
        assert witt_sum(empty, p) == p

    def test_ring_promotion(self):
        z = from_seifert(TREFOIL)
        q = from_seifert(covering_seifert_matrix(TREFOIL, 3))
        assert witt_sum(z, z).ring == "Z"
        assert witt_sum(z, q).ring == "Q"
        assert witt_sum(q, z).ring == "Q"
        assert witt_sum(q, q).ring == "Q"

    def test_order_multiplicative(self):
        p1 = from_seifert(TREFOIL)
        p2 = from_seifert(STEVEDORE)
        assert witt_sum(p1, p2).order() == normalize_unit(p1.order() * p2.order())
        s = witt_sum(p1, p2)
        assert s.order() == normalize_unit(s.matrix.det())

    def test_signature_additive(self):
        p1 = from_seifert(TREFOIL)
        p2 = from_seifert(FIGURE_EIGHT)
        s = witt_sum(p1, p2)
        for theta in (Fraction(1, 5), Fraction(1, 7), Fraction(2, 5)):
            omega = root_of_unity(theta)
            s1 = evaluated_hermitian_signature(p1.matrix, omega)
            s2 = evaluated_hermitian_signature(p2.matrix, omega)
            assert evaluated_hermitian_signature(s.matrix, omega) \
                == (s1[0] + s2[0], s1[1] + s2[1])

    def test_p_fold_multiplicity(self):
        # for odd p, the p-fold sum has exactly p times the signature data
        base = from_seifert(TREFOIL)
        for p in (3, 5):
            total = base
            for _ in range(p - 1):
                total = witt_sum(total, base)
            f_base = signature_function_of_matrix(base.matrix, factor_list(base.matrix.det()))
            f_total = signature_function_of_matrix(total.matrix, factor_list(total.matrix.det()))
            assert len(f_total.jumps) == len(f_base.jumps)
            assert [a.signature for a in f_total.arcs] \
                == [p * a.signature for a in f_base.arcs]


class TestJpqPresentation:
    def test_unknot_empty(self):
        assert jpq_presentation(UNKNOT, 2, 3).size == 0

    def test_block_structure(self):
        j = jpq_presentation(TREFOIL, 1, 2)
        assert j.size == 6
        b = from_seifert(TREFOIL).matrix
        expected = b.block_sum(b.substitute_power(3)).block_sum(
            b.substitute_power(2)
        )
        assert j.matrix == expected

    def test_order_expansion(self):
        # det of the J(1,2) presentation is the product of the three
        # substituted block determinants (1 - t^k)^2 Delta(t^k), k = 1, 3, 2
        j = jpq_presentation(TREFOIL, 1, 2)
        delta = alexander(TREFOIL)
        expected = ONE
        for k in (1, 3, 2):
            expected = expected * (ONE - T ** k) ** 2 * delta.substitute_power(k)
        assert j.order() == normalize_unit(expected)

    def test_rejects_bad_pq(self):
        with pytest.raises(ValueError):
            jpq_presentation(TREFOIL, 0, 1)
        with pytest.raises(ValueError):
            jpq_presentation(TREFOIL, 1, -2)


# irreducible and not cyclotomic
NON_CYCLOTOMIC = ("t^2 - 3t + 1", "2t - 1", "t^3 - t - 1", "3t^2 - 7t + 3", "t^2 + 2")


X = sympy.Symbol("x")


def trial_division_scan(delta):
    """Every d with Phi_d dividing delta: trial division (sympy.rem) by each
    Phi_d with totient(d) <= deg delta, as cyclotomic_factors once did."""
    f = delta.split_content()[1]
    deg = len(f) - 1
    # totient(d) >= sqrt(d/2), so totient(d) <= deg forces d <= 2 deg^2 + 1
    return [
        d for d in range(1, 2 * deg * deg + 2)
        if sympy.totient(d) <= deg
        and sympy.rem(sympy.Poly(f[::-1], X), sympy.cyclotomic_poly(d, X, polys=True)).is_zero
    ]


class TestCyclotomicFactors:
    def test_trefoil(self):
        assert cyclotomic_factors(factor_list(alexander(TREFOIL))) == [6]

    def test_figure_eight(self):
        assert cyclotomic_factors(factor_list(alexander(FIGURE_EIGHT))) == []

    def test_synthetic_product(self):
        f = parse_poly("t^4 + t^3 + t^2 + t + 1") * parse_poly("t^2 - t + 1")
        assert cyclotomic_factors(factor_list(f)) == [5, 6]

    def test_t_minus_one_and_plus_one(self):
        assert cyclotomic_factors(
            factor_list(parse_poly("t - 1") * parse_poly("t^2 - t + 1"))
        ) == [1, 6]
        assert cyclotomic_factors(factor_list(parse_poly("1/4t^2 + 1/2t + 1/4"))) == [2]

    def test_unit_and_shift_blind(self):
        assert cyclotomic_factors(factor_list(parse_poly("t^-1 - 1 + t"))) == [6]
        assert cyclotomic_factors(factor_list(parse_poly("7"))) == []

    def test_jpq_order_factors(self):
        # (1-t)^2 (1-t^3)^2 (1-t^2)^2 Phi_6(t) Phi_6(t^3) Phi_6(t^2) yields
        # Phi_d for d in {1, 2, 3} from the units and {6, 18, 12} from Delta
        j = jpq_presentation(TREFOIL, 1, 2)
        assert cyclotomic_factors(factor_list(j.order())) == [1, 2, 3, 6, 12, 18]

    def test_no_prime_power_for_knots(self):
        for s in CATALOG:
            for d in cyclotomic_factors(factor_list(alexander(s))):
                factors = set()
                m = d
                for p in range(2, m + 1):
                    while m % p == 0:
                        factors.add(p)
                        m //= p
                assert d == 1 or len(factors) >= 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            cyclotomic_factors(factor_list(parse_poly("0")))

    @given(
        st.lists(st.integers(1, 30), max_size=3),
        st.lists(st.sampled_from(NON_CYCLOTOMIC), max_size=2),
        st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
        st.integers(-3, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_trial_division_scan(self, orders, others, content, shift):
        f = LaurentPoly({0: content}).shift(shift)
        for d in orders:
            f = f * cyclotomic(d).to_laurent()
        for g in others:
            f = f * parse_poly(g)
        assert cyclotomic_factors(factor_list(f)) == trial_division_scan(f)


class TestOneFactorization:
    @pytest.fixture
    def calls(self, monkeypatch):
        return count_calls(monkeypatch, factor_rational)

    def test_presentation_battery_factors_once(self, calls):
        # the trefoil's Delta = Phi_6 and t - 1 are cyclotomic, so every
        # g(t^k) of J comes in closed form and the battery factors nothing
        j = jpq_presentation(TREFOIL, 1, 2)
        calls.clear()
        r = presentation_battery(j)
        assert calls == []
        assert r.cyclotomic == (1, 2, 3, 6, 12, 18)

    def test_obstruction_battery_factors_once(self, calls):
        r = obstruction_battery(STEVEDORE)
        assert calls == [alexander(STEVEDORE)]
        assert str(r.fox_milnor.witness) == "2t - 1"
        assert r.factors == tuple(factor_list(alexander(STEVEDORE)))


class TestBuildersOnlyMoveParts:
    """phi multiplies each k of the (base, k) parts and witt_sum
    concatenates them: the matrix, order and factor list are read off the
    parts, each g(t^k) factored at most once per base."""

    def test_builders_compute_nothing(self, monkeypatch):
        # 4_1's t^2 - 3t + 1 is not cyclotomic: factoring it would show
        knot, other = from_seifert(FIGURE_EIGHT), from_seifert(STEVEDORE)
        monkeypatch.setattr(witt, "from_seifert", lambda s: knot)
        seen = [count_calls(monkeypatch, fn) for fn in (
            ExactMatrix.substitute_power, ExactMatrix.block_sum, factor_rational,
            LaurentPoly.__mul__)]
        phi(knot, 3)
        phi(phi(knot, 2), 5)
        witt_sum(phi(knot, 2), phi(other, 3))
        # J's block sum of the knot's phi_k
        j = jpq_presentation(FIGURE_EIGHT, 1, 2)
        assert seen == [[], [], [], []]
        (base, _), = knot.parts
        assert j.parts == ((base, 1), (base, 3), (base, 2))

    def test_a_base_factors_each_substitution_once(self, monkeypatch):
        knot = from_seifert(FIGURE_EIGHT)
        factored = count_calls(monkeypatch, factor_rational)
        for pres in (phi(knot, 2), witt_sum(phi(knot, 3), phi(knot, 2)), phi(knot, 3)):
            presentation_battery(pres)
        delta = alexander(FIGURE_EIGHT)
        assert factored == [delta.substitute_power(2), delta.substitute_power(3)]

    def test_a_reciprocal_pair_is_factored_once(self, monkeypatch):
        # 6_1's Delta = (t - 2)(2t - 1): the factors of 2t^k - 1 are the
        # reciprocals of t^k - 2's, so only t^k - 2 is factored
        knot = from_seifert(STEVEDORE)
        monkeypatch.setattr(witt, "from_seifert", lambda _: knot)
        factored = count_calls(monkeypatch, factor_rational, caller="bingcheck.witt")
        for pres, ks in ((phi(knot, 4), [4]), (jpq_presentation(STEVEDORE, 1, 6), [7, 6])):
            factored.clear()
            got = pres.factors()
            assert factored == [parse_poly("t - 2").substitute_power(k) for k in ks]
            assert got == factor_rational(pres.order())[1]


class TestBaseDecidesSubstitutions:
    """A base maps each factor of g(t^k) to B's nullity at the roots of g:
    the pullback tests no divisibility, takes no rank and asks no factor
    whether it is cyclotomic."""

    def test_pullback_reads_the_bases_maps(self, monkeypatch):
        # Delta = (t^2 - t + 1)(t + 1)^2 / 4: a jump, and B(-1) singular
        s = connected_sum(TREFOIL, SeifertMatrix([[Fraction(1, 2), 1], [0, Fraction(1, 2)]]))
        divided = count_calls(monkeypatch, pseudo_rem, caller="bingcheck.sigfunc")
        ranked = count_calls(monkeypatch, fields.rank_over_factor)
        asked = count_calls(monkeypatch, cyclotomic_order)
        knot = from_seifert(s)
        monkeypatch.setattr(witt, "from_seifert", lambda _: knot)
        for pres in [phi(knot, k) for k in range(2, 7)] + [jpq_presentation(s, 1, 2)]:
            presentation_battery(pres)
        assert divided == []
        # the base's own matrix path ranks B over its one jump factor
        assert ranked == [s.seifert_form()]
        assert asked == [g for g, _ in knot.factors()]
        assert IntPoly([1, 1]) in asked


class TestVerdictFactorArguments:
    @pytest.mark.parametrize("s", [TREFOIL, FIGURE_EIGHT, STEVEDORE],
                             ids=["3_1", "4_1", "6_1"])
    def test_range_three_factors_small_pieces_once(self, monkeypatch, s):
        check_range = 3
        widest = max(g.degree for g, _ in from_seifert(s).factors())
        factored = count_calls(monkeypatch, factor_rational)
        bing_double_verdict(s, check_range)
        assert len(factored) == len(set(factored))
        # only g(t^k) for k <= 2 * range and an irreducible g of det B are
        # factored, never a J(p, q) order (degree 48 on 6_1)
        assert max(f.max_exp - f.min_exp for f in factored) <= 2 * check_range * widest


class TestCyclotomicSubstitution:
    """phi factors Phi_d(t^k) by closed form: the product of the
    Phi_(d k1 e) over e | k2, with k = k1 k2, every prime of k1 dividing d
    and k2 prime to d."""

    GRID = [(d, k) for d in range(1, 61) for k in range(1, 13)]

    def test_equals_factor_rational(self):
        # Zassenhaus is the oracle up to degree 24 (Phi_60(t^12), of degree
        # 192, alone takes minutes)
        for d, k in self.GRID:
            if sympy.totient(d) * k <= 24:
                substituted = cyclotomic(d).to_laurent().substitute_power(k)
                assert witt._substituted_factors(cyclotomic(d), d, k) \
                    == factor_rational(substituted)[1], (d, k)

    def test_whole_grid_by_orders_of_roots(self):
        # omega of order m has omega^k of order m / gcd(m, k): the roots of
        # Phi_d(t^k) are those of the Phi_m with m | d k and m / gcd(m, k) = d
        for d, k in self.GRID:
            orders = [m for m in range(1, d * k + 1)
                      if (d * k) % m == 0 and m // gcd(m, k) == d]
            assert witt._substituted_factors(cyclotomic(d), d, k) \
                == merge_factors([(cyclotomic(m), 1) for m in orders]), (d, k)

    def test_phi_factors_a_cyclotomic_without_zassenhaus(self, monkeypatch):
        base = from_seifert(TREFOIL)
        factored = count_calls(monkeypatch, factor_rational)
        phi(base, 12)
        # Phi_6(t^12) = Phi_72, and (t - 1)^2 gives the Phi_e, e | 12
        assert factored == []


def assert_carries_its_factors(p):
    assert p.factors() == factor_rational(p.order())[1]


class TestCarriedFactorLists:
    """The factor list a presentation carries is factor_rational's list of
    its order, in the same order."""

    @given(admissible_forms())
    @settings(max_examples=20, deadline=None)
    def test_from_seifert(self, s):
        assert_carries_its_factors(from_seifert(s))

    @given(admissible_forms(), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_phi(self, s, n):
        assert_carries_its_factors(phi(from_seifert(s), n))

    @given(admissible_forms(), admissible_forms(), st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_witt_sum_with_a_mirror(self, s1, s2, n):
        # with s2 = s1 every factor is shared; otherwise t - 1 still is
        for other in (s1, s2):
            assert_carries_its_factors(
                witt_sum(phi(from_seifert(s1), n), from_seifert(mirror(other))))

    @given(admissible_forms(), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_jpq(self, s, p, q):
        assert_carries_its_factors(jpq_presentation(s, p, q))


def assert_admissible(p, ring):
    """What a presentation promises, from its matrix: B is Hermitian for
    t -> 1/t, its normalized det is the order times the L^n of each part
    (the block of a base with Seifert matrix A of size n is L B(t^k), L the
    lcm of A's denominators), the carried factors are factor_rational's
    list of the order, and the ring flag is `ring`."""
    b = p.matrix
    assert all(b[i, j].substitute_power(-1) == b[j, i]
               for i in range(b.rows) for j in range(b.cols))
    scale = 1
    for base, _ in p.parts:
        scale *= base.seifert.matrix.integer_rows()[1] ** base.seifert.size
    assert normalize_unit(b.det()) == p.order() * scale
    assert factor_rational(p.order())[1] == p.factors()
    assert p.ring == ring


def ring_of(*forms):
    return "Z" if all(s.integral for s in forms) else "Q"


class TestClosedConstructions:
    """Each builder checks nothing and takes no det of what it builds; the
    det of its matrix and the checks a validating constructor would make
    are the oracle."""

    def test_public_checks_accept_derived_presentations(self):
        forms = CATALOG + [covering_seifert_matrix(s, p)
                           for s in (TREFOIL, STEVEDORE) for p in (2, 3)]
        for s in forms:
            assert_admissible(from_seifert(s), ring_of(s))
            for n in range(2, 6):
                assert_admissible(phi(from_seifert(s), n), ring_of(s))
            for other in forms:
                assert_admissible(witt_sum(from_seifert(s), from_seifert(other)),
                                  ring_of(s, other))
        for s in CATALOG:
            for p in (1, 2):
                for q in (1, 2):
                    assert_admissible(jpq_presentation(s, p, q), "Z")

    @given(integral_or_rational_forms())
    @settings(max_examples=20, deadline=None)
    def test_from_seifert_is_admissible(self, s):
        assert_admissible(from_seifert(s), ring_of(s))

    @given(integral_or_rational_forms(), st.integers(2, 5))
    @settings(max_examples=15, deadline=None)
    def test_phi_is_admissible(self, s, n):
        assert_admissible(phi(from_seifert(s), n), ring_of(s))

    @given(integral_or_rational_forms(), integral_or_rational_forms(), st.integers(1, 3))
    @settings(max_examples=6, deadline=None)
    def test_witt_sum_with_a_mirror_is_admissible(self, s1, s2, n):
        for other in (s1, s2):
            assert_admissible(witt_sum(phi(from_seifert(s1), n), from_seifert(mirror(other))),
                              ring_of(s1, other))

    # genus 2 at most: the Laurent det of a genus-3 J(p, q), an 18 x 18
    # matrix, takes seconds
    @given(integral_or_rational_forms(max_genus=2), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=6, deadline=None)
    def test_jpq_is_admissible(self, s, p, q):
        assert_admissible(jpq_presentation(s, p, q), ring_of(s))


class TestOneAlexanderPerBattery:
    @pytest.fixture
    def calls(self, monkeypatch):
        return count_calls(monkeypatch, alexander)

    @pytest.mark.parametrize("s", CATALOG, ids=lambda s: s.name)
    def test_obstruction_battery_takes_one_alexander(self, calls, s):
        obstruction_battery(s)
        assert calls == [s]

    def test_verdict_builds_one_base_presentation(self, calls, monkeypatch):
        # the base presentation takes its order from the battery's Delta and
        # factor list: one Alexander det, and Delta factored once
        factored = count_calls(monkeypatch, factor_rational)
        for s in (FIGURE_EIGHT, STEVEDORE):
            calls.clear()
            factored.clear()
            bing_double_verdict(s, 3)
            delta = alexander(s)
            assert calls == [s]
            assert factored.count(delta) == 1
            assert (ONE - T) ** s.size * delta not in factored


def kernel_rows(m):
    """The integer rows of m as matrices.bareiss_det takes them."""
    return m.integer_poly_rows()[0]


class TestOneDeterminantPerBattery:
    @pytest.fixture
    def dets(self, monkeypatch):
        """The rows of every determinant the Bareiss kernel takes, through
        ExactMatrix.det or straight from seifert.alexander."""
        return count_calls(monkeypatch, bareiss_det)

    @pytest.mark.parametrize("s", CATALOG, ids=lambda s: s.name)
    def test_one_det_of_symmetrized_form(self, dets, s):
        r = obstruction_battery(s)
        # Arf and the determinant are read off one det(A + A^T), on first read
        invariants = (r.arf, r.determinant)
        sym = kernel_rows(s.matrix + s.matrix.transpose())
        alexander_rows = kernel_rows(s.matrix - s.matrix.transpose().scale(T))
        # the unknot's A + A^T and A - tA^T are one matrix, the 0x0 one
        assert dets.count(sym) == 1 + (alexander_rows == sym)
        assert invariants == (arf(s), determinant_invariant(s))

    def test_stevedore_verdict_takes_two_dets(self, dets):
        r = bing_double_verdict(STEVEDORE, 3)
        assert (r.verdict, r.arf_certificate) == (NO_OBSTRUCTION_FOUND, False)
        # det(A + A^T), read by the verdict, and the Alexander det; the base
        # presentation's order is (t - 1)^2 Delta, with no det of its own
        assert len(dets) == 2

    @pytest.mark.parametrize("s", CATALOG, ids=lambda s: s.name)
    def test_cable_takes_only_the_alexander_det(self, dets, s):
        phi(from_seifert(s), 3)
        assert dets == [kernel_rows(s.matrix - s.matrix.transpose().scale(T))]


class TestVerdictReadsEachPhiOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        """The signature_function_of_matrix calls and the factor_rational
        arguments, counted through every binding in the package."""
        return (count_calls(monkeypatch, signature_function_of_matrix),
                count_calls(monkeypatch, factor_rational))

    # the battery's function, of K's own form: every other is pulled back
    @pytest.mark.parametrize("s, most_functions", [(STEVEDORE, 1), (TREFOIL, 1)],
                             ids=["6_1", "3_1"])
    def test_counts_at_range_three(self, calls, s, most_functions):
        functions, factored = calls
        bing_double_verdict(s, 3)
        assert len(functions) <= most_functions
        # J(p, q) and J(q, p) share one battery; nothing is factored twice
        assert len(factored) == len(set(factored))


class TestOneBatteryPerJPair:
    @pytest.mark.parametrize("s", [TREFOIL, FIGURE_EIGHT, STEVEDORE],
                             ids=["3_1", "4_1", "6_1"])
    def test_range_three_runs_six_batteries(self, monkeypatch, s):
        ran = count_calls(monkeypatch, presentation_battery)
        bing_double_verdict(s, 3)
        # one battery per unordered pair {p, q}, not one per ordered pair
        assert len(ran) == 6
        monkeypatch.undo()
        # the battery of J(q, p) is the one J(p, q) shares, so the verdict
        # reads what a battery per ordered pair would give
        for p in (1, 2):
            for q in range(p + 1, 4):
                assert presentation_battery(jpq_presentation(s, q, p)) \
                    == presentation_battery(jpq_presentation(s, p, q))


class TestAdditivityAtArcSamples:
    @pytest.mark.parametrize("s, check_range", [
        (TREFOIL, 3), (FIGURE_EIGHT, 3), (STEVEDORE, 3),
        (connected_sum(TREFOIL, mirror(TREFOIL)), 2),
    ], ids=["3_1", "4_1", "6_1", "3_1#-3_1"])
    def test_verdict_computes_in_q_i_only(self, monkeypatch, s, check_range):
        orders = []
        original = fields.cyclotomic_field

        def counting(q):
            orders.append(q)
            return original(q)

        monkeypatch.setattr(fields, "cyclotomic_field", counting)
        bing_double_verdict(s, check_range)
        assert set(orders) == {4}

    @pytest.mark.parametrize("s", [TREFOIL, FIGURE_EIGHT, STEVEDORE],
                             ids=["3_1", "4_1", "6_1"])
    def test_range_three_builds_six_j(self, monkeypatch, s):
        sums = count_calls(monkeypatch, witt_sum)
        bing_double_verdict(s, 3)
        # two block sums for each J(p, q), one J per unordered pair
        assert len(sums) == 12

    def test_shifted_arc_raises(self, monkeypatch):
        # the check reads the J battery's own arcs: shifting any one of them
        # by 2 must fail it
        arcs = presentation_battery(jpq_presentation(TREFOIL, 1, 1)).signature.arcs
        assert len(arcs) > 1
        original = witt.presentation_battery
        for i in range(len(arcs)):
            def shifted(p, i=i):
                report = original(p)
                moved = list(report.signature.arcs)
                moved[i] = moved[i]._replace(signature=moved[i].signature + 2)
                signature = report.signature._replace(arcs=tuple(moved))
                return report._replace(signature=signature)

            monkeypatch.setattr(witt, "presentation_battery", shifted)
            with pytest.raises(InternalInvariantError, match=r"J\(1, 1\)"):
                bing_double_verdict(TREFOIL, 1)


class TestPullbackInVerdict:
    """A verdict evaluates, and reduces over factor fields, only the
    companion's 2g x 2g form: every other signature function is pulled
    back from the battery's."""

    @pytest.mark.parametrize("s, check_range", [
        (TREFOIL, 3), (FIGURE_EIGHT, 3), (STEVEDORE, 3),
        (connected_sum(TREFOIL, mirror(TREFOIL)), 2),
    ], ids=["3_1", "4_1", "6_1", "3_1#-3_1"])
    def test_only_the_companion_form_takes_the_matrix_path(self, monkeypatch, s, check_range):
        functions = count_calls(monkeypatch, signature_function_of_matrix)
        ranked = count_calls(monkeypatch, fields.rank_over_factor)
        bing_double_verdict(s, check_range)
        form = s.seifert_form()
        assert functions == [form]
        assert all(m == form for m in ranked)
        # a jump of the companion's function is a rank over its factor
        assert bool(ranked) == bool(obstruction_battery(s).signature.jumps)

    def test_shifted_base_arc_raises(self, monkeypatch):
        # every J arc value is pulled back from the battery's function:
        # shifting any one of its arcs by 2 must fail additivity
        arcs = obstruction_battery(TREFOIL).signature.arcs
        assert len(arcs) > 1
        original = witt.obstruction_battery
        for i in range(len(arcs)):
            def shifted(s, i=i):
                report = original(s)
                moved = list(report.signature.arcs)
                moved[i] = moved[i]._replace(signature=moved[i].signature + 2)
                signature = report.signature._replace(arcs=tuple(moved))
                return report._replace(signature=signature)

            monkeypatch.setattr(witt, "obstruction_battery", shifted)
            with pytest.raises(InternalInvariantError, match=r"J\(1, 1\)"):
                bing_double_verdict(TREFOIL, 1)

    def test_sample_on_a_base_jump_raises(self, monkeypatch):
        # D_k(u) forced onto the trefoil's exact jump u = 1
        monkeypatch.setattr(sigfunc, "dickson", lambda k, u: Fraction(1))
        with pytest.raises(InternalInvariantError, match="lands on a jump"):
            presentation_battery(phi(from_seifert(TREFOIL), 2))


class TestObstructionBattery:
    def test_stevedore_no_obstruction(self):
        r = obstruction_battery(STEVEDORE)
        assert r.verdict == NO_OBSTRUCTION_FOUND
        assert r.certificate is None
        assert r.fox_milnor.passes
        assert str(r.fox_milnor.witness) == "2t - 1"
        assert r.signature.is_zero
        assert r.arf == 0
        assert r.determinant == 9 and r.determinant_is_square
        assert r.ring == "Z"

    def test_trefoil_certificate_order(self):
        # Delta = Phi_6 has odd multiplicity, so Fox-Milnor fails before the
        # signature test in the fixed certificate order
        r = obstruction_battery(TREFOIL)
        assert r.verdict == NOT_ALG_SLICE
        assert r.certificate == "fox_milnor"
        assert r.arf == 1
        assert r.determinant == 3 and not r.determinant_is_square
        assert r.cyclotomic == (6,)

    def test_figure_eight(self):
        r = obstruction_battery(FIGURE_EIGHT)
        assert r.verdict == NOT_ALG_SLICE
        assert r.certificate == "fox_milnor"
        assert r.determinant == 5 and not r.determinant_is_square

    def test_unknot(self):
        r = obstruction_battery(UNKNOT)
        assert r.verdict == NO_OBSTRUCTION_FOUND
        assert r.alexander == ONE
        assert r.determinant == 1 and r.determinant_is_square

    def test_granny_signature_certificate(self):
        # trefoil # trefoil has Delta = Phi_6^2 (Fox-Milnor passes) but
        # signature -4, so the second test in the order fires
        granny = connected_sum(TREFOIL, TREFOIL)
        r = obstruction_battery(granny)
        assert r.verdict == NOT_ALG_SLICE
        assert r.certificate == "signature_function"
        assert r.fox_milnor.passes
        assert r.arf == 0
        assert r.determinant == 9 and r.determinant_is_square

    def test_rational_input(self):
        r = obstruction_battery(covering_seifert_matrix(TREFOIL, 3))
        assert r.ring == "Q"
        assert r.arf is None
        assert r.determinant is None
        assert r.determinant_is_square is None
        assert r.verdict == NO_OBSTRUCTION_FOUND

    def test_connected_sum_with_mirror_invisible(self):
        for s in CATALOG:
            r = obstruction_battery(connected_sum(s, mirror(s)))
            assert r.verdict == NO_OBSTRUCTION_FOUND

    def test_deterministic(self):
        assert obstruction_battery(TREFOIL) == obstruction_battery(TREFOIL)


class TestDerivedReport:
    """A report holds its evidence: the order, its factors, the signature
    function and the Seifert matrix.  Each test, the certificate and the
    verdict are read off it on first access."""

    # K # K passes Fox-Milnor with Delta^2, and its signature function is
    # twice K's: the signature test decides it
    @given(admissible_forms(), st.sampled_from(["K", "K # -K", "K # K"]))
    @settings(max_examples=20, deadline=None)
    def test_certificate_is_the_first_failure(self, s, kind):
        if kind != "K":
            s = connected_sum(s, mirror(s) if kind == "K # -K" else s)
        delta, det = alexander(s), determinant_invariant(s)
        failed = [
            ("fox_milnor", not fox_milnor(delta, factor_list(delta)).passes),
            ("signature_function", not signature_function(s).is_zero),
            ("arf", arf(s) != 0),
            ("determinant_square", isqrt(det) ** 2 != det),
        ]
        certificate = next((test for test, fails in failed if fails), None)
        r = obstruction_battery(s)
        assert r.certificate == certificate
        assert r.verdict == (NOT_ALG_SLICE if certificate else NO_OBSTRUCTION_FOUND)

    @pytest.mark.parametrize("s", [TREFOIL, FIGURE_EIGHT, STEVEDORE],
                             ids=["3_1", "4_1", "6_1"])
    def test_verdict_lists_cyclotomic_factors_when_formatted(self, monkeypatch, s):
        listed = count_calls(monkeypatch, cyclotomic_factors)
        r = bing_double_verdict(s, 3)
        # no J battery's cyclotomic factors are read, only K's, by the report
        assert listed == []
        format_report(r)
        assert listed == [r.battery.factors]

    @pytest.mark.parametrize("s", CATALOG, ids=lambda s: s.name)
    def test_cable_takes_the_matrix_path_once(self, monkeypatch, s):
        functions = count_calls(monkeypatch, signature_function_of_matrix)
        presentation_battery(phi(from_seifert(s), 3))
        assert functions == [s.seifert_form()]


class TestPresentationBattery:
    def test_stevedore_jpq_all_clear(self):
        for p in range(1, 4):
            for q in range(1, 4):
                r = presentation_battery(jpq_presentation(STEVEDORE, p, q))
                assert r.verdict == NO_OBSTRUCTION_FOUND, (p, q)

    def test_trefoil_jpq_obstructed(self):
        r = presentation_battery(jpq_presentation(TREFOIL, 1, 1))
        assert r.verdict == NOT_ALG_SLICE
        assert r.certificate == "fox_milnor"

    def test_arf_and_determinant_not_applicable(self):
        r = presentation_battery(jpq_presentation(TREFOIL, 1, 2))
        assert r.arf is None
        assert r.determinant is None

    def test_figure_eight_diagonal_pairs_invisible(self):
        # J(p, p) doubles Delta(t^p) and Delta(t^2p) splits into a reciprocal
        # pair, so Fox-Milnor passes; the signature vanishes identically, so
        # the battery cannot see J(p, p) for the figure-eight
        r = presentation_battery(jpq_presentation(FIGURE_EIGHT, 1, 1))
        assert r.verdict == NO_OBSTRUCTION_FOUND
        r = presentation_battery(jpq_presentation(FIGURE_EIGHT, 1, 2))
        assert r.verdict == NOT_ALG_SLICE


class TestBingDoubleVerdict:
    def test_unknot_trivial(self):
        r = bing_double_verdict(UNKNOT, 2)
        assert r.verdict == NO_OBSTRUCTION_FOUND
        assert r.conclusion is None
        assert not r.arf_certificate
        assert len(r.crosschecks) == 4
        for c in r.crosschecks:
            assert c.additivity == "pass"
            assert c.telescoping == "verified"

    def test_figure_eight_not_slice(self):
        r = bing_double_verdict(FIGURE_EIGHT, 2)
        assert r.verdict == NOT_ALG_SLICE
        assert r.certificate == "fox_milnor"
        assert r.conclusion == "B(K) is not slice"
        assert r.arf_certificate  # Arf(4_1) = 1 independently obstructs
        tele = {(c.p, c.q): c.telescoping for c in r.crosschecks}
        assert tele[(1, 1)] == "verified"  # J(1,1) battery is wholly zero
        assert tele[(1, 2)] == "skipped"

    def test_trefoil_not_slice(self):
        r = bing_double_verdict(TREFOIL, 2)
        assert r.verdict == NOT_ALG_SLICE
        assert r.conclusion == "B(K) is not slice"
        assert r.arf_certificate
        assert all(c.telescoping == "skipped" for c in r.crosschecks)

    def test_stevedore_all_checks_pass(self):
        r = bing_double_verdict(STEVEDORE, 3)
        assert r.verdict == NO_OBSTRUCTION_FOUND
        assert r.conclusion is None
        assert not r.arf_certificate
        assert len(r.crosschecks) == 9
        for c in r.crosschecks:
            assert c.additivity == "pass"
            assert c.telescoping == "verified"

    def test_sum_with_mirror_nontrivial_telescoping(self):
        r = bing_double_verdict(connected_sum(TREFOIL, mirror(TREFOIL)), 2)
        assert r.verdict == NO_OBSTRUCTION_FOUND
        assert all(c.telescoping == "verified" for c in r.crosschecks)

    def test_rejects_rational(self):
        with pytest.raises(AdmissibilityError):
            bing_double_verdict(covering_seifert_matrix(TREFOIL, 3), 2)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            bing_double_verdict(TREFOIL, 0)


class TestVerdictIsTheBattery:
    """The Bing verdict, certificate, conclusion and Arf flag are read off
    the battery; the cross-checks are diagnostics that raise on failure."""

    def test_telescoping_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(witt, "same_step_function", lambda f, g: False)
        with pytest.raises(InternalInvariantError, match=r"J\(1, 1\)"):
            bing_double_verdict(STEVEDORE, 2)

    def test_telescoping_mismatch_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(witt, "same_step_function", lambda f, g: False)
        assert main(["bing", "--range", "2", "6_1"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: J(1, 1) ")

    @given(admissible_forms(max_genus=2), st.sampled_from(["K", "K # K", "K # -K"]))
    @settings(max_examples=25, deadline=None)
    def test_verdict_is_the_battery(self, s, sum_kind):
        if sum_kind != "K":
            s = connected_sum(s, s if sum_kind == "K # K" else mirror(s))
        battery = obstruction_battery(s)
        r = bing_double_verdict(s, 2)
        assert (r.verdict, r.certificate) == (battery.verdict, battery.certificate)
        assert r.conclusion == ("B(K) is not slice" if battery.certificate else None)
        assert r.arf_certificate == (battery.arf == 1)
        if any(c.telescoping == "verified" for c in r.crosschecks):
            assert battery.signature.is_zero

    @pytest.mark.parametrize("s, check_range", [
        (TREFOIL, 3), (FIGURE_EIGHT, 3), (STEVEDORE, 3),
        (connected_sum(TREFOIL, mirror(TREFOIL)), 2),
    ], ids=["3_1", "4_1", "6_1", "3_1#-3_1"])
    def test_builds_no_presentation_matrix(self, monkeypatch, s, check_range):
        sums = count_calls(monkeypatch, ExactMatrix.block_sum)
        reads = []
        matrix = witt.WittPresentation.matrix
        monkeypatch.setattr(witt.WittPresentation, "matrix",
                            property(lambda p: reads.append(p) or matrix.fget(p)))
        bing_double_verdict(s, check_range)
        assert sums == [] and reads == []

    @pytest.mark.parametrize("s, check_range", [
        (TREFOIL, 3), (FIGURE_EIGHT, 3), (STEVEDORE, 3),
        (connected_sum(TREFOIL, mirror(TREFOIL)), 2),
    ], ids=["3_1", "4_1", "6_1", "3_1#-3_1"])
    def test_leaves_q_i_to_the_companion(self, monkeypatch, s, check_range):
        # the additivity check reads each part's Seifert matrix in integers:
        # only the companion's own arcs are evaluated, in Q(i), one each
        arcs = obstruction_battery(s).signature.arcs
        substituted = count_calls(monkeypatch, ExactMatrix.substitute_power)
        evaluated = count_calls(monkeypatch, evaluated_hermitian_signature, whole=True)
        bing_double_verdict(s, check_range)
        assert substituted == []
        assert evaluated == [(s.seifert_form(), cayley_point(a.sample_angle)) for a in arcs]


@st.composite
def admissible_2x2(draw):
    a = draw(st.integers(min_value=-3, max_value=3))
    b = draw(st.integers(min_value=-3, max_value=3))
    d = draw(st.integers(min_value=-3, max_value=3))
    eps = draw(st.sampled_from([1, -1]))
    return SeifertMatrix([[a, b], [b - eps, d]])


class TestBatteryProperties:
    @given(admissible_2x2())
    @settings(max_examples=25, deadline=None)
    def test_battery_runs_and_is_consistent(self, s):
        r = obstruction_battery(s)
        assert (r.verdict == NOT_ALG_SLICE) == (r.certificate is not None)
        # Fox-Milnor subsumes the determinant test, and a passing Fox-Milnor
        # forces |Delta(-1)| to be an odd square, hence Arf 0: with the fixed
        # order, arf/determinant certificates are unreachable from knots
        assert r.certificate in (None, "fox_milnor", "signature_function")
        if r.fox_milnor.passes:
            assert r.determinant_is_square
            assert r.arf == 0

    @given(admissible_2x2())
    @settings(max_examples=10, deadline=None)
    def test_mirror_sum_invisible(self, s):
        r = obstruction_battery(connected_sum(s, mirror(s)))
        assert r.verdict == NO_OBSTRUCTION_FOUND

    @given(admissible_forms(), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_mirror_sum_invisible_past_genus_one(self, s, k):
        # K # -K is slice, and phi_k(K) + phi_k(-K) is metabolic: neither
        # may be obstructed, and both signature functions vanish
        r = obstruction_battery(connected_sum(s, mirror(s)))
        assert r.verdict == NO_OBSTRUCTION_FOUND and r.signature.is_zero
        r = presentation_battery(
            witt_sum(phi(from_seifert(s), k), phi(from_seifert(mirror(s)), k)))
        assert r.verdict == NO_OBSTRUCTION_FOUND and r.signature.is_zero
