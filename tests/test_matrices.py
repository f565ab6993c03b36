"""Exact matrices: determinants, adjugates, block sums, symmetric signatures."""

import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bingcheck.intpoly import IntPoly
from bingcheck.laurent import LaurentPoly, T, parse_poly
from bingcheck.matrices import ExactMatrix, bareiss_adjugate, bareiss_det, symmetric_signature
from strategies import substituted


def cofactor_det(rows):
    """Independent oracle: Leibniz/cofactor determinant over exact scalars."""
    n = len(rows)
    if n == 0:
        return 1
    total = None
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        term = term * sign
        total = term if total is None else total + term
    return total


rational = st.fractions(min_value=-5, max_value=5)
laurent_entry = st.builds(
    LaurentPoly.from_coeffs,
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.integers(-2, 2),
)


def square(entry, lo=0, hi=4):
    return st.integers(lo, hi).flatmap(
        lambda n: st.lists(
            st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


class TestDet:
    def test_frozen(self):
        assert ExactMatrix([[0, 1], [-1, 0]]).det() == 1
        assert ExactMatrix([]).det() == 1
        got = ExactMatrix(
            [[parse_poly("1 - t"), LaurentPoly.one()], [-T, parse_poly("t - 1")]]
        ).det()
        assert got == parse_poly("-t^2 + 3t - 1")

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ExactMatrix([[1, 2, 3], [4, 5, 6]]).det()

    @settings(max_examples=80, deadline=None)
    @given(square(rational))
    def test_matches_cofactor_rational(self, rows):
        assert ExactMatrix(rows).det() == cofactor_det(rows)

    @settings(max_examples=40, deadline=None)
    @given(square(laurent_entry, hi=3))
    def test_matches_cofactor_laurent(self, rows):
        got = ExactMatrix(rows).det()
        want = cofactor_det(rows)
        if want == 1:
            want = LaurentPoly.one()
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(square(laurent_entry, lo=1, hi=2), st.sampled_from([-2, -1, 1, 2, 3]))
    def test_det_commutes_with_substitution(self, rows, n):
        m = ExactMatrix(rows)
        assert substituted(m, n).det() == m.det().substitute_power(n)

    @settings(max_examples=40, deadline=None)
    @given(square(rational, hi=3), square(rational, hi=3))
    def test_block_sum_multiplicative(self, a, b):
        ma, mb = ExactMatrix(a), ExactMatrix(b)
        assert ma.block_sum(mb).det() == ma.det() * mb.det()


int_entry = st.integers(-9, 9)
rational_laurent_entry = st.builds(
    LaurentPoly.from_coeffs,
    st.lists(rational, min_size=1, max_size=3),
    st.integers(-3, 1),
)
kernel_entry = st.lists(st.integers(-9, 9), max_size=4).map(lambda c: list(IntPoly(c).coeffs))
MATRICES = {
    "int": square(int_entry, hi=5),
    "rational": square(rational, hi=5),
    "laurent": square(rational_laurent_entry, hi=5),
    "mixed": square(st.one_of(int_entry, rational, rational_laurent_entry), hi=5),
}


class TestBareissKernel:
    """bareiss_det, directly on integer lists and through ExactMatrix.det,
    against the Leibniz expansion cofactor_det."""

    @settings(max_examples=60, deadline=None)
    @given(square(kernel_entry, hi=5))
    def test_kernel_matches_leibniz(self, rows):
        given_rows = [[list(e) for e in r] for r in rows]
        want = cofactor_det([[LaurentPoly.from_coeffs(e) for e in r] for r in rows])
        assert LaurentPoly.from_coeffs(bareiss_det(rows)) == want
        assert rows == given_rows  # the kernel leaves its input alone

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(MATRICES)).flatmap(lambda kind: MATRICES[kind]),
           st.booleans(), st.data())
    def test_det_matches_leibniz(self, rows, singular, data):
        n = len(rows)
        if singular and n >= 2:
            # the last row a combination of two others (or a multiple of one)
            i, j = data.draw(st.integers(0, n - 2)), data.draw(st.integers(0, n - 2))
            c = data.draw(int_entry)
            rows[-1] = [x + c * y for x, y in zip(rows[i], rows[j])]
        got = ExactMatrix(rows).det()
        assert got == cofactor_det(rows)
        laurent = any(isinstance(e, LaurentPoly) for r in rows for e in r)
        assert isinstance(got, LaurentPoly if laurent else Fraction)
        if singular and n >= 2:
            assert got == 0

    def test_zero_column_and_row_swaps(self):
        assert bareiss_det([[[], [1]], [[], [2]]]) == []
        # a zero first pivot is swapped with the row below: one sign flip
        assert bareiss_det([[[], [1]], [[1], []]]) == [-1]
        assert bareiss_det([[[0, 1]]]) == [0, 1]


class TestEquality:
    @settings(max_examples=40, deadline=None)
    @given(square(rational))
    def test_constant_laurent_entries_equal_and_hash_as_fractions(self, rows):
        m = ExactMatrix(rows)
        lm = ExactMatrix([[LaurentPoly({0: e}) for e in r] for r in rows])
        # a matrix is compared and hashed by its entries alone
        assert m == lm and m.entries == lm.entries
        assert hash(m) == hash(lm) and hash(m.entries) == hash(lm.entries)


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    """The product of two matrices given as rows of numbers or polynomials."""
    return [[sum((x * y for x, y in zip(r, c)), 0) for c in zip(*b)] for r in a]


class TestInverse:
    """Inverses as adj(M) / det M, from the fraction-free adjugate kernel."""

    def test_frozen(self):
        assert bareiss_adjugate([[0, 1], [-1, 0]]) == (1, [[0, -1], [1, 0]])
        assert bareiss_adjugate(identity(4)) == (1, identity(4))
        assert bareiss_adjugate([]) == (1, [])
        # a zero first pivot is swapped with the row below
        assert bareiss_adjugate([[0, 2], [3, 1]]) == (-6, [[1, -2], [-3, 0]])

    def test_trefoil_covering_matrix(self):
        # Gamma = (A - A^T)^-1 A, and det(A - A^T) = 1
        a = [[-1, 1], [0, -1]]
        x = [[a[i][j] - a[j][i] for j in range(2)] for i in range(2)]
        d, adj = bareiss_adjugate(x)
        gamma = matmul(adj, a)
        assert d == 1 and gamma == [[0, 1], [-1, 1]]
        assert matmul(x, gamma) == a

    def test_singular_rejected(self):
        assert bareiss_adjugate([[1, 2], [2, 4]]) == (0, None)
        assert bareiss_adjugate([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == (0, None)

    @settings(max_examples=60, deadline=None)
    @given(square(st.integers(-5, 5), lo=1))
    def test_involution_and_product(self, rows):
        # adj M is the one matrix with M adj M = adj M M = det(M) I when
        # det M != 0, and adj(adj M) = det(M)^(n - 2) M
        d, adj = bareiss_adjugate(rows)
        assert d == ExactMatrix(rows).det()
        if d == 0:
            assert adj is None
            return
        n = len(rows)
        scaled = [[d * e for e in r] for r in identity(n)]
        assert matmul(rows, adj) == scaled and matmul(adj, rows) == scaled
        det_adj, again = bareiss_adjugate(adj)
        assert det_adj == d ** (n - 1)
        assert again == ([[d ** (n - 2) * e for e in r] for r in rows] if n > 1 else [[1]])


class TestBlockSumAndSubstitution:
    def test_identity_block(self):
        m = ExactMatrix([[1, 2], [3, 4]])
        assert m.block_sum(ExactMatrix([])) == m
        assert ExactMatrix([]).block_sum(m) == m

    def test_one_by_one(self):
        got = ExactMatrix([[2]]).block_sum(ExactMatrix([[3]]))
        assert got == ExactMatrix([[2, 0], [0, 3]])

    def test_mixed_block_sum(self):
        got = ExactMatrix([[Fraction(1, 2)]]).block_sum(ExactMatrix([[T]]))
        assert got.entries == ((Fraction(1, 2), 0), (0, T))
        assert got[0, 0] == LaurentPoly({0: Fraction(1, 2)})
        # a summand with a LaurentPoly entry makes the det a LaurentPoly
        det = got.det()
        assert isinstance(det, LaurentPoly) and det == Fraction(1, 2) * T


def random_symmetric(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randrange(-4, 5)
    return ExactMatrix(rows)


def sym_signature(m):
    """symmetric_signature of a symmetric rational ExactMatrix, by its
    integer rows: a positive scale keeps the signature."""
    return symmetric_signature(m.integer_rows()[0])


class TestSymSignature:
    def test_frozen(self):
        assert sym_signature(ExactMatrix([[-2, 1], [1, -2]])) == (-2, 0)
        assert sym_signature(ExactMatrix([[0, 1], [1, 0]])) == (0, 0)
        assert sym_signature(ExactMatrix([[0] * 3 for _ in range(3)])) == (0, 3)
        assert sym_signature(ExactMatrix([])) == (0, 0)

    def test_sig_plus_nullity_bounds(self):
        m = ExactMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
        assert sym_signature(m) == (0, 1)

    def test_congruence_invariance(self):
        rng = random.Random(20260814)
        for _ in range(40):
            n = rng.randrange(1, 6)
            s = random_symmetric(rng, n)
            while True:
                p = ExactMatrix(
                    [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
                )
                if p.det() != 0:
                    break
            congruent = matmul(matmul(p.transpose().entries, s.entries), p.entries)
            assert sym_signature(ExactMatrix(congruent)) == sym_signature(s)

    def test_block_additivity(self):
        rng = random.Random(7)
        for _ in range(30):
            a = random_symmetric(rng, rng.randrange(0, 4))
            b = random_symmetric(rng, rng.randrange(0, 4))
            sa, na = sym_signature(a)
            sb, nb = sym_signature(b)
            assert sym_signature(a.block_sum(b)) == (sa + sb, na + nb)

    def test_rank_consistency(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randrange(1, 6)
            s = random_symmetric(rng, n)
            sig, nul = sym_signature(s)
            rank = n - nul
            assert abs(sig) <= rank
            assert (rank - sig) % 2 == 0


class TestSymmetricSignature:
    """The integer kernel against numpy's eigenvalues, a floating-point
    oracle used only here."""

    @given(st.integers(1, 8), st.sampled_from(["dense", "zero diagonal", "singular"]),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_eigenvalues(self, n, kind, data):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if i != j or kind != "zero diagonal":
                    rows[i][j] = rows[j][i] = data.draw(st.integers(-4, 4))
        if kind == "singular" and n > 1:
            # row and column k repeat row and column source
            k, source = data.draw(st.permutations(range(n)))[:2]
            index = [source if i == k else i for i in range(n)]
            rows = [[rows[i][j] for j in index] for i in index]
        eig = np.linalg.eigvalsh(np.array(rows, dtype=float))
        assume(not any(1e-9 < abs(e) < 1e-6 for e in eig))
        want = (sum(1 for e in eig if e >= 1e-6) - sum(1 for e in eig if e <= -1e-6),
                sum(1 for e in eig if abs(e) <= 1e-9))
        assert symmetric_signature([list(r) for r in rows]) == want

    def test_zero_diagonal_pairs(self):
        # every diagonal entry vanishes at each step: the pivot comes from
        # adding row and column j to row and column i
        assert symmetric_signature([[0, 3], [3, 0]]) == (0, 0)
        assert symmetric_signature([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == (-1, 0)
        assert symmetric_signature([[0, 2, 0], [2, 0, 0], [0, 0, 0]]) == (0, 1)
        assert symmetric_signature([]) == (0, 0)

    def test_rational_matrix_is_scaled_to_integers(self):
        half = Fraction(1, 2)
        assert sym_signature(ExactMatrix([[half, Fraction(1, 3)], [Fraction(1, 3), half]])) \
            == symmetric_signature([[3, 2], [2, 3]]) == (2, 0)
