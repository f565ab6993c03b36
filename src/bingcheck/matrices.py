"""Exact dense matrices over the rationals or over Laurent polynomials.

Two scalar kinds are supported and kept uniform within a matrix: "rational"
(fractions.Fraction) and "laurent" (LaurentPoly with rational coefficients).
Determinants use fraction-free Bareiss elimination, whose interior divisions
are exact in any integral domain, so Laurent-entry determinants never leave
the Laurent ring.  Inverses exist for the rational kind only.  Signatures of
symmetric rational matrices are computed by exact congruence: repeatedly
split off the largest available diagonal pivot, and when every remaining
diagonal entry vanishes split off a hyperbolic plane [[0,b],[b,0]]
(contributing +1 and -1); whatever remains when no pivot exists is the
kernel.

The 0x0 matrix is admitted everywhere: det 1, signature (0, 0).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularMatrixError
from .laurent import LaurentPoly, as_fraction

__all__ = ["ExactMatrix"]


def _is_laurent(x) -> bool:
    return isinstance(x, LaurentPoly)


def _zero_like(kind):
    return LaurentPoly.zero() if kind == "laurent" else Fraction(0)


def _one_like(kind):
    return LaurentPoly.one() if kind == "laurent" else Fraction(1)


def _exact_div(a, b):
    if isinstance(a, LaurentPoly):
        return a.exact_div(b)
    return a / b


class ExactMatrix:
    """Immutable dense matrix; scalar kind is "rational" or "laurent"."""

    __slots__ = ("_rows", "_kind", "_m", "_n")

    def __init__(self, rows, kind=None):
        grid = [list(r) for r in rows]
        self._m = len(grid)
        self._n = len(grid[0]) if grid else 0
        if any(len(r) != self._n for r in grid):
            raise ValueError("ragged rows")
        if kind is None:
            kind = "laurent" if any(_is_laurent(e) for r in grid for e in r) else "rational"
        if kind == "laurent":
            grid = [[e if _is_laurent(e) else LaurentPoly({0: as_fraction(e)})
                     for e in r] for r in grid]
        elif kind == "rational":
            grid = [[as_fraction(e) for e in r] for r in grid]
        else:
            raise ValueError(f"unknown scalar kind {kind!r}")
        self._kind = kind
        self._rows = tuple(tuple(r) for r in grid)

    # -- shape and access ------------------------------------------------
    @property
    def kind(self) -> str:
        return self._kind

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
        if (self._m, self._n) != (other._m, other._n):
            return False
        if self._kind == other._kind:
            return self._rows == other._rows
        a, b = self, other
        if a._kind == "rational":
            a = a.to_laurent()
        else:
            b = b.to_laurent()
        return a._rows == b._rows

    def __hash__(self):
        # kind-independent, matching the cross-kind __eq__
        if self._kind == "laurent":
            return hash(self._rows)
        return hash(self.to_laurent()._rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in r) for r in self._rows)
        return f"ExactMatrix({self._m}x{self._n} {self._kind}: {body})"

    # -- constructors ------------------------------------------------------
    @classmethod
    def identity(cls, n: int, kind: str = "rational") -> "ExactMatrix":
        one, zero = _one_like(kind), _zero_like(kind)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)],
                   kind=kind)

    def to_laurent(self) -> "ExactMatrix":
        if self._kind == "laurent":
            return self
        return ExactMatrix(
            [[LaurentPoly({0: e}) if e else LaurentPoly.zero() for e in r]
             for r in self._rows],
            kind="laurent",
        )

    # -- arithmetic ---------------------------------------------------------
    def _paired(self, other):
        if self._kind == other._kind:
            return self, other
        return self.to_laurent(), other.to_laurent()

    def __add__(self, other):
        a, b = self._paired(other)
        if (a._m, a._n) != (b._m, b._n):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a._rows, b._rows)],
            kind=a._kind,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExactMatrix([[-e for e in r] for r in self._rows], kind=self._kind)

    def scale(self, c) -> "ExactMatrix":
        if _is_laurent(c):
            m = self.to_laurent()
            return ExactMatrix([[c * e for e in r] for r in m._rows], kind="laurent")
        c = as_fraction(c)
        return ExactMatrix([[c * e for e in r] for r in self._rows], kind=self._kind)

    def __matmul__(self, other):
        a, b = self._paired(other)
        if a._n != b._m:
            raise ValueError("shape mismatch")
        zero = _zero_like(a._kind)
        out = []
        for i in range(a._m):
            row = []
            for j in range(b._n):
                acc = zero
                for k in range(a._n):
                    acc = acc + a._rows[i][k] * b._rows[k][j]
                row.append(acc)
            out.append(row)
        return ExactMatrix(out, kind=a._kind)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [[self._rows[i][j] for i in range(self._m)] for j in range(self._n)],
            kind=self._kind,
        )

    def block_sum(self, other: "ExactMatrix") -> "ExactMatrix":
        a, b = self._paired(other)
        zero = _zero_like(a._kind)
        out = []
        for r in a._rows:
            out.append(list(r) + [zero] * b._n)
        for r in b._rows:
            out.append([zero] * a._n + list(r))
        return ExactMatrix(out, kind=a._kind)

    def substitute_power(self, n: int) -> "ExactMatrix":
        """Entrywise t -> t^n on a Laurent matrix; n must be nonzero."""
        if n == 0:
            raise ValueError("power must be nonzero")
        m = self.to_laurent()
        return ExactMatrix(
            [[e.substitute_power(n) for e in r] for r in m._rows], kind="laurent"
        )

    def submatrix(self, indices) -> "ExactMatrix":
        """Principal submatrix on the given row/column indices."""
        idx = list(indices)
        return ExactMatrix(
            [[self._rows[i][j] for j in idx] for i in idx], kind=self._kind
        )

    def components(self):
        """Partition of a square matrix into the index sets of its
        block-diagonal components (connected via nonzero entries in either
        the (i, j) or (j, i) position), each sorted ascending."""
        if not self.is_square:
            raise ValueError("components require a square matrix")
        parent = list(range(self._m))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(self._m):
            for j in range(i + 1, self._n):
                if self._rows[i][j] or self._rows[j][i]:
                    parent[find(i)] = find(j)
        groups = {}
        for i in range(self._m):
            groups.setdefault(find(i), []).append(i)
        return [tuple(g) for g in sorted(groups.values())]

    # -- determinant, inverse, signature -------------------------------------
    def det(self):
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square:
            raise ValueError("determinant requires a square matrix")
        n = self._m
        one = _one_like(self._kind)
        if n == 0:
            return one
        M = [list(r) for r in self._rows]
        sign = 1
        prev = one
        for k in range(n - 1):
            if not M[k][k]:
                pivot = next((r for r in range(k + 1, n) if M[r][k]), None)
                if pivot is None:
                    return _zero_like(self._kind)
                M[k], M[pivot] = M[pivot], M[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = M[i][j] * M[k][k] - M[i][k] * M[k][j]
                    M[i][j] = _exact_div(num, prev)
                M[i][k] = _zero_like(self._kind)
            prev = M[k][k]
        d = M[n - 1][n - 1]
        return -d if sign < 0 else d

    def inverse(self) -> "ExactMatrix":
        """Exact inverse of a nonsingular rational matrix."""
        if not self.is_square:
            raise ValueError("inverse requires a square matrix")
        if self._kind != "rational":
            raise ValueError("inverse is only defined for rational matrices")
        n = self._m
        aug = [list(r) + [Fraction(i == j) for j in range(n)]
               for i, r in enumerate(self._rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col]), None)
            if pivot is None:
                raise SingularMatrixError("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            p = aug[col][col]
            aug[col] = [x / p for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return ExactMatrix([row[n:] for row in aug], kind="rational")

    def sym_signature(self):
        """(signature, nullity) of a symmetric rational matrix.

        Exact congruence reduction: take the largest-|value| nonzero diagonal
        pivot (ties to the smallest index) and pass to its Schur complement;
        when every remaining diagonal entry is zero, split off a hyperbolic
        plane [[0,b],[b,0]] (signature 0, counted as +1 and -1); a remaining
        zero matrix is the kernel.
        """
        if not self.is_square:
            raise ValueError("signature requires a square matrix")
        if self._kind != "rational":
            raise ValueError("signature is only defined for rational matrices")
        n = self._m
        for i in range(n):
            for j in range(i):
                if self._rows[i][j] != self._rows[j][i]:
                    raise ValueError("signature requires a symmetric matrix")
        M = [list(r) for r in self._rows]
        active = list(range(n))
        pos = neg = null = 0
        while active:
            k = max((a for a in active if M[a][a]),
                    key=lambda a: (abs(M[a][a]), -a), default=None)
            if k is not None:
                p = M[k][k]
                if p > 0:
                    pos += 1
                else:
                    neg += 1
                active.remove(k)
                for r in active:
                    if M[r][k]:
                        for c in active:
                            M[r][c] -= M[r][k] * M[k][c] / p
                        # row k is retired, so only the live block matters
                continue
            pair = next(((i, j) for i in active for j in active
                         if i < j and M[i][j]), None)
            if pair is None:
                null += len(active)
                break
            i, j = pair
            b = M[i][j]
            pos += 1
            neg += 1
            active.remove(i)
            active.remove(j)
            updates = {}
            for r in active:
                for c in active:
                    updates[(r, c)] = (M[r][i] * M[c][j] + M[r][j] * M[c][i]) / b
            for (r, c), v in updates.items():
                M[r][c] -= v
        return pos - neg, null
