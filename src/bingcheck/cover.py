"""Branched covers: homology order and covering Seifert matrix.

For the p-fold cyclic cover of S^3 branched over a knot with Alexander
polynomial Delta, the first homology has order |prod_{i=1..p-1} Delta(zeta^i)|
(zeta a primitive p-th root of unity), which equals the absolute resultant of
Delta with (t^p - 1)/(t - 1); the order is 0 exactly when Delta vanishes at
some p-th root of unity, i.e. the homology is infinite.

A Seifert matrix for the knotted lift inside the cover is computed from
Gamma = (A - A^T)^{-1} A as

    Atilde = A - A^T (Gamma^{p-1} - (Gamma-I)^{p-1}) (Gamma^p - (Gamma-I)^p)^{-1} Gamma,

provided Gamma^p - (Gamma-I)^p is nonsingular; Atilde may have rational
entries and only determines the rational-coefficient Witt class, so it comes
back flagged rational.  It is evaluated in integers: for L the lcm of A's
denominators and X = L(A - A^T), G = adj(X) L A is det(X) Gamma; with N1
and N the (p-1)-th and p-th power differences of G and G - det(X) I, every
power of det X cancels, and Atilde = A - (L A)^T N1 adj(N) G / (L det N).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import AdmissibilityError, FormulaHypothesisError, InternalInvariantError
from .laurent import LaurentPoly
from .intpoly import IntPoly, divmod_exact, pseudo_rem
from .matrices import bareiss_adjugate, resultant
from .seifert import SeifertMatrix

__all__ = [
    "INFINITE",
    "branched_cover_homology_order",
    "covering_seifert_matrix",
]


class _Infinite:
    """Sentinel for an infinite homology group (resultant 0): INFINITE."""

    def __repr__(self):
        return "INFINITE"

    __str__ = __repr__


INFINITE = _Infinite()

_T_MINUS_ONE = IntPoly([-1, 1])


def _psi_resultant(f: IntPoly, p: int) -> int:
    """Res(psi, f) for psi = (t^p - 1)/(t - 1) and a nonzero integer f with
    f(0) != 0, from about log2 p squarings and the Sylvester determinant of
    f and psi mod f, of size at most 2 deg f - 1, instead of one of size
    p - 1 + deg f.

    With r = psi mod f, Res(psi, f) = (-1)^((p - 1) deg f)
    lc(f)^(p - 1 - deg r) Res(f, r), and Res(psi, f) = 0 when r = 0.  As
    t^p - 1 = (t - 1) psi, (t - 1) r is (t^p - 1) mod (t - 1) f, so r comes
    from t^p mod (t - 1) f by repeated squaring.  That remainder is held as
    h / den with h integral: each pseudo-remainder multiplies den by a power
    of the modulus's leading coefficient, and the common content of h and
    den is divided out.  Then r = R / den for the integral
    R = (h - den)/(t - 1), and Res(f, r) = Res(f, R) / den^deg f, an exact
    division; Res(f, R) is the Bareiss determinant of their Sylvester matrix
    (matrices.resultant).

    >>> _psi_resultant(IntPoly([1, -1, 1]), 3)
    4
    """
    m = f.degree
    if m == 0:
        return f.lc ** (p - 1)
    g = f * _T_MINUS_ONE
    h, den = IntPoly([1]), 1
    for bit in bin(p)[2:]:
        h, den = h * h, den * den
        if bit == "1":
            h = IntPoly((0,) + h.coeffs)
        if h.degree >= g.degree:
            h, den = pseudo_rem(h, g), den * g.lc ** (h.degree - g.degree + 1)
        c = gcd(h.content(), den)
        h, den = IntPoly([x // c for x in h.coeffs]), den // c
    r = divmod_exact(h - den, _T_MINUS_ONE)
    if r.is_zero:
        return 0
    value = resultant(f.coeffs, r.coeffs) * f.lc ** (p - 1 - r.degree)
    if value % den ** m:
        raise InternalInvariantError("Res(f, r) was not divisible by den^deg f")
    return (-1) ** ((p - 1) * m) * (value // den ** m)


def branched_cover_homology_order(delta: LaurentPoly, p: int):
    """|H_1| of the p-fold branched cover: |Res(Delta, (t^p - 1)/(t - 1))|.

    Returns INFINITE when the resultant vanishes (Delta has a root at a
    nontrivial p-th root of unity).  Integral input gives an int; rational
    coefficients can give a Fraction.

    >>> from .laurent import parse_poly
    >>> branched_cover_homology_order(parse_poly('t^2 - t + 1'), 2)
    3
    >>> branched_cover_homology_order(parse_poly('t^2 - t + 1'), 3)
    4
    >>> branched_cover_homology_order(parse_poly('t^2 - t + 1'), 6)
    INFINITE
    """
    if delta.is_zero:
        raise ValueError("the zero polynomial does not present a homology group")
    if p < 2:
        raise ValueError("covers need p >= 2")
    content, primitive, _ = delta.split_content()
    # Res(psi, f) = prod over the p-th roots of unity zeta != 1 of f(zeta)
    r = _psi_resultant(IntPoly(primitive), p)
    if r == 0:
        return INFINITE
    order = abs(r) * content ** (p - 1)
    return order.numerator if order.denominator == 1 else order


def _matmul(a, b) -> list:
    """The product of two integer matrices given as rows."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(r, c)) for c in cols] for r in a]


def _difference(a, b) -> list:
    return [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]


def covering_seifert_matrix(s: SeifertMatrix, p: int) -> SeifertMatrix:
    """Seifert matrix (rational flag) for the lifted knot in the p-fold cover.

    Raises FormulaHypothesisError when Gamma^p - (Gamma-I)^p is singular or
    the resulting matrix is not admissible; both hold automatically for the
    matrices the formula is designed for, but not for arbitrary input.

    >>> tre = SeifertMatrix([[-1, 1], [0, -1]])
    >>> covering_seifert_matrix(tre, 3).entries
    ((Fraction(0, 1), Fraction(1, 2)), (Fraction(-1, 2), Fraction(0, 1)))
    """
    if p < 2:
        raise ValueError("covers need p >= 2")
    la, scale = s.matrix.integer_rows()
    det_x, adj_x = bareiss_adjugate(_difference(la, zip(*la)))
    gamma = _matmul(adj_x, la)
    shifted = [[e - det_x * (i == j) for j, e in enumerate(r)] for i, r in enumerate(gamma)]
    # only the (p-1)-th and p-th powers are read, so no other is kept
    g1, h1 = gamma, shifted
    for _ in range(p - 2):
        g1, h1 = _matmul(g1, gamma), _matmul(h1, shifted)
    det_n, adj_n = bareiss_adjugate(_difference(_matmul(g1, gamma), _matmul(h1, shifted)))
    if not det_n:
        raise FormulaHypothesisError("Gamma^p - (Gamma - I)^p is singular; "
                                     "the covering formula does not apply")
    m = _matmul(_matmul(_matmul(list(zip(*la)), _difference(g1, h1)), adj_n), gamma)
    atilde = [[Fraction(x * det_n - y, scale * det_n) for x, y in zip(r, v)] for r, v in zip(la, m)]
    try:
        return SeifertMatrix(atilde, integral=False)
    except AdmissibilityError:
        raise FormulaHypothesisError(
            "covering matrix fails det(A - A^T) != 0; the formula hypothesis was violated"
        ) from None
