"""Exact dense matrices over the rationals and over Laurent polynomials.

An entry is a fractions.Fraction (an int becomes one) or a LaurentPoly with
rational coefficients, stored as given.  The two mix as numbers do
(Fraction(1, 2) - T is a LaurentPoly), and a constant LaurentPoly equals and
hashes as the number it equals, so a matrix is compared and hashed by its
entries alone.  Whether some entry is a LaurentPoly is read off the entries,
never stored: the determinant of such a matrix is a LaurentPoly even when it
is constant.  A block sum is padded with 0, which equals and hashes as the
zero LaurentPoly.

Determinants and ranks over Q[t]/(P) come from one loop on dense integer
coefficient lists, _bareiss: fraction-free Bareiss elimination over Z[t],
with exact divisions; its pivot test is "nonzero" for bareiss_det and "P
does not divide it" for fields.rank_over_factor.  det feeds bareiss_det
every matrix: its entries times t^s, the least power that clears every
negative exponent, and times L, the lcm of every denominator
(integer_poly_rows), and divides by L^n t^(sn).  resultant feeds it the
Sylvester matrix of two integer polynomials.  Signatures of symmetric
matrices come from one kernel on lists of Python ints,
symmetric_signature: the same fraction-free elimination with diagonal
pivots, whose successive pivots are principal minors, so that their signs
give the signature.  A rational matrix is first scaled to integers
(integer_rows).  bareiss_adjugate gives the adjugate and determinant of an
integer matrix by the same elimination, Gauss-Jordan.

The 0x0 matrix is admitted everywhere: det Fraction(1), signature (0, 0).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .laurent import LaurentPoly, as_fraction, dense_cross, dense_exact_div, dense_mul

__all__ = ["ExactMatrix", "bareiss_adjugate", "bareiss_det", "resultant", "symmetric_signature"]


def _entry(e):
    return e if isinstance(e, LaurentPoly) else as_fraction(e)


def _denominator_lcm(values) -> int:
    scale = 1
    for e in values:
        scale = scale * e.denominator // gcd(scale, e.denominator)
    return scale


def _shifted_coeffs(e, s: int) -> list:
    """Dense ascending coefficients of t^s e from t^0 (ints where
    integral); s at least -min_exp(e)."""
    if not isinstance(e, LaurentPoly):
        return [0] * s + [e] if e else []
    if not e:
        return []
    coeffs, lo = e.coeff_list()
    return [0] * (lo + s) + coeffs


class ExactMatrix:
    """Immutable dense matrix of Fraction and LaurentPoly entries."""

    __slots__ = ("_rows", "_m", "_n")

    def __init__(self, rows):
        self._rows = tuple(tuple(_entry(e) for e in r) for r in rows)
        self._m = len(self._rows)
        self._n = len(self._rows[0]) if self._rows else 0
        if any(len(r) != self._n for r in self._rows):
            raise ValueError("ragged rows")

    def _has_laurent_entry(self) -> bool:
        return any(isinstance(e, LaurentPoly) for r in self._rows for e in r)

    # -- shape and access ------------------------------------------------
    @property
    def rows(self) -> int:
        return self._m

    @property
    def cols(self) -> int:
        return self._n

    @property
    def is_square(self) -> bool:
        return self._m == self._n

    @property
    def entries(self):
        return self._rows

    def __getitem__(self, ij):
        i, j = ij
        return self._rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in r) for r in self._rows)
        return f"ExactMatrix({self._m}x{self._n}: {body})"

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if (self._m, self._n) != (other._m, other._n):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExactMatrix([[-e for e in r] for r in self._rows])

    def scale(self, c) -> "ExactMatrix":
        c = _entry(c)
        return ExactMatrix([[c * e for e in r] for r in self._rows])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(zip(*self._rows))

    def block_sum(self, other: "ExactMatrix") -> "ExactMatrix":
        """Block-diagonal sum, padded with 0: a zero LaurentPoly equals and
        hashes as 0, so a Laurent block sum has the same det, equality and
        hash either way."""
        return ExactMatrix(
            [r + (0,) * other._n for r in self._rows]
            + [(0,) * self._n + r for r in other._rows]
        )

    def integer_rows(self) -> tuple:
        """(rows, L): the rows of a rational matrix times L, the lcm of its
        denominators, as new lists of ints.  L is a positive scale, which
        keeps every signature."""
        scale = _denominator_lcm(e for r in self._rows for e in r)
        return [[e.numerator * (scale // e.denominator) for e in r]
                for r in self._rows], scale

    def integer_poly_rows(self) -> tuple:
        """(rows, s, L): the entries of L t^s M as dense ascending lists of
        ints, for s >= 0 the least shift that clears every negative
        exponent and L the lcm of every coefficient's denominator.  A
        rational matrix has s = 0 and constant lists; the zero entry is
        the empty list."""
        s = max([0] + [-e.min_exp for r in self._rows for e in r
                       if isinstance(e, LaurentPoly) and e])
        dense = [[_shifted_coeffs(e, s) for e in r] for r in self._rows]
        scale = _denominator_lcm(c for r in dense for e in r for c in e)
        return [[[c.numerator * (scale // c.denominator) for c in e] for e in r]
                for r in dense], s, scale

    # -- determinant ---------------------------------------------------------
    def det(self):
        """Exact determinant: bareiss_det of the integer_poly_rows L t^s M,
        divided by L^n t^(sn); a LaurentPoly for a Laurent matrix, else a
        Fraction."""
        if not self.is_square:
            raise ValueError("determinant requires a square matrix")
        rows, s, scale = self.integer_poly_rows()
        d = bareiss_det(rows)
        denominator = scale ** self._m
        if not self._has_laurent_entry():
            return Fraction(d[0] if d else 0, denominator)
        return LaurentPoly.from_coeffs([Fraction(c, denominator) for c in d], -s * self._m)


def bareiss_det(rows) -> list:
    """The determinant of a square matrix over Z[t], each entry a dense
    ascending list of ints ([] for 0), as such a list; the rows given are
    not changed: the signed last pivot of _bareiss, or 0 if it skips a
    column.

    >>> bareiss_det([[[0, 1], [1]], [[1], [0, 1]]])      # t^2 - 1
    [-1, 0, 1]
    >>> bareiss_det([])
    [1]
    """
    rank, sign, d = _bareiss([list(r) for r in rows], bool)
    return [] if rank < len(rows) else [sign * c for c in d]


def _bareiss(rows, is_pivot) -> tuple:
    """(r, sign, p) of fraction-free elimination (Bareiss, Math. Comp. 22,
    1968) of square rows over Z[t] (dense ascending int lists, [] for 0),
    in place: r pivots, sign that of the row swaps, p the last pivot.

    Column by column, the first entry at or below row r that passes
    is_pivot is swapped up (a column with none is skipped), and each row
    below with m_ik != 0 becomes (p m_ij - m_ik m_kj) / d, exactly in Z[t],
    d the pivot of the row's own last step: a row with m_ik = 0 is left
    alone, as the step would only scale it by p / prev, and a pivot row is
    first scaled by prev / d.  By Sylvester's identity, entry (i, j) right
    of the last pivot column is then, up to a ratio of pivots, the
    (r+1)-minor on the pivot rows and i and the pivot columns and j, which
    borders the r-minor p.  Tested "nonzero", r is the rank.  Tested
    "nonzero mod P", every pivot is a unit of Q[t]/(P), a skipped column is
    there a combination of the pivot columns left of it (the minors
    bordering the one before it vanish), and at the end every (r+1)-minor
    bordering p vanishes mod P: r is the rank over Q[t]/(P).
    """
    n = len(rows)
    rank, sign, prev = 0, 1, [1]
    last = [prev] * n
    for col in range(n):
        pivot = next((r for r in range(rank, n) if is_pivot(rows[r][col])), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            last[rank], last[pivot] = last[pivot], last[rank]
            sign = -sign
        pivot_row = rows[rank]
        if last[rank] != prev:
            pivot_row[col:] = [dense_exact_div(dense_mul(x, prev), last[rank])
                               for x in pivot_row[col:]]
        p = pivot_row[col]
        for i in range(rank + 1, n):
            row, d = rows[i], last[i]
            f = row[col]
            if f:
                for j in range(col + 1, n):
                    num = dense_cross(row[j], p, f, pivot_row[j])
                    row[j] = num if d == [1] else dense_exact_div(num, d)
                last[i] = p
        prev = p
        rank += 1
    return rank, sign, prev


def resultant(f, g) -> int:
    """Res(f, g) of two nonzero integer polynomials, given as dense
    ascending sequences of ints: one bareiss_det of their Sylvester matrix,
    deg g rows of f's coefficients and deg f rows of g's, highest first,
    each row shifted one column right of the one above.  A constant g = c
    gives c^(deg f); two constants give 1, the 0 x 0 determinant.

    >>> resultant([-2, 1], [-3, 1])
    -1
    >>> resultant([1, -1, 1], [1, 1])
    3
    """
    if not f or not g:
        raise ValueError("resultant of the zero polynomial is undefined here")
    m, n = len(f) - 1, len(g) - 1
    high_f, high_g = list(f)[::-1], list(g)[::-1]
    rows = [[0] * i + high_f + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + high_g + [0] * (m - 1 - i) for i in range(m)]
    d = bareiss_det([[[c] if c else [] for c in r] for r in rows])
    return d[0] if d else 0


def bareiss_adjugate(rows) -> tuple:
    """(det M, adj M) of a square integer matrix M given as int rows, which
    are not changed; adj M is a list of int rows, None when det M = 0.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968)
    on [M | I]: each step replaces every row i but the pivot row k by
    (p row_i - m_ik row_k) / prev, an exact division, p and prev as in
    _bareiss.  The last pivot is det M up to the sign of the row swaps;
    M's block ends as it times I, I's as it times M^-1.

    >>> bareiss_adjugate([[2, 1], [1, 1]])
    (1, [[1, -1], [-1, 2]])
    """
    n, sign, prev = len(rows), 1, 1
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    for k in range(n):
        if not aug[k][k]:
            pivot = next((r for r in range(k + 1, n) if aug[r][k]), None)
            if pivot is None:
                return 0, None
            aug[k], aug[pivot] = aug[pivot], aug[k]
            sign = -sign
        pivot_row, p = aug[k], aug[k][k]
        for i, row in enumerate(aug):
            if i != k:
                aug[i] = [(x * p - row[k] * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    return sign * prev, [[sign * x for x in r[n:]] for r in aug]


def symmetric_signature(rows) -> tuple:
    """(signature, nullity) of a symmetric integer matrix, given as a list
    of int rows, which it overwrites.

    Fraction-free symmetric elimination (Bareiss, Math. Comp. 22, 1968):
    each step takes a live nonzero diagonal pivot p and replaces every live
    entry by (m_ij p - m_ik m_kj) / prev, prev the previous pivot (1 at the
    start), an exact division.  The pivots are then the leading principal
    minors in pivot order, so p / prev, of sign sign(p) sign(prev), is the
    step's entry of a diagonal matrix congruent to the input.  When every
    live diagonal entry vanishes but some m_ij does
    not, adding row and column j to row and column i, a congruence by a
    unimodular matrix, makes m_ii = 2 m_ij; whatever is left when no live
    entry is nonzero is the kernel.

    >>> symmetric_signature([[0, 1], [1, 0]])
    (0, 0)
    >>> symmetric_signature([[2, 1, 0], [1, 2, 0], [0, 0, 0]])
    (2, 1)
    """
    live = list(range(len(rows)))
    prev, signature = 1, 0
    while live:
        k = next((a for a in live if rows[a][a]), None)
        if k is None:
            pair = next(((i, j) for i in live for j in live if i < j and rows[i][j]), None)
            if pair is None:
                break
            k, j = pair
            rk, rj = rows[k], rows[j]
            for c in live:
                rk[c] += rj[c]
            for r in live:
                rows[r][k] += rows[r][j]
        pivot_row = rows[k]
        p = pivot_row[k]
        signature += 1 if (p > 0) == (prev > 0) else -1
        live.remove(k)
        for i in live:
            row = rows[i]
            f = row[k]
            for j in live:
                row[j] = (row[j] * p - f * pivot_row[j]) // prev
        prev = p
    return signature, len(live)
