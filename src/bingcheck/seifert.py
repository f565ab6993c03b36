"""Seifert matrices and the classical knot invariants computed from them.

A Seifert matrix A (over the rationals; flagged integral when all entries
are integers) is admissible when det(A - A^T) != 0; for integral matrices
the determinant must be +-1, as it is for a genuine Seifert surface basis.
From A one obtains:

  * the Alexander polynomial  Delta(t) = det(A - t A^T), normalized;
  * the Hermitian form  H(omega) = (1 - omega) A + (1 - conj omega) A^T
    at roots of unity omega != 1, whose signature and nullity are the
    Levine-Tristram invariants;
  * the full signature step function on the circle;
  * the Arf invariant (integral matrices): 0 iff Delta(-1) = +-1 mod 8;
  * the knot determinant |Delta(-1)| (integral matrices);
  * the Fox-Milnor test: Delta(t) = +- t^k f(t) f(1/t) for some f, a
    necessary condition for (algebraic) sliceness.

Connected sum is block sum; the mirror image has Seifert matrix -A^T.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AdmissibilityError, InternalInvariantError
from .laurent import LaurentPoly, T, as_fraction, normalize_unit
from .intpoly import IntPoly
from .factor import factor_rational
from .matrices import ExactMatrix
from .fields import evaluated_hermitian_signature, root_of_unity
from .sigfunc import SignatureFunction, signature_function_of_matrix

__all__ = [
    "FoxMilnorResult",
    "SeifertMatrix",
    "alexander",
    "arf",
    "connected_sum",
    "determinant_invariant",
    "fox_milnor",
    "mirror",
    "signature_at",
    "signature_function",
]


class SeifertMatrix:
    """A square rational matrix A with det(A - A^T) != 0, flagged integral
    when every entry is an integer (then det(A - A^T) must be +-1)."""

    __slots__ = ("_mat", "_integral", "name")

    def __init__(self, rows, name: str = "", integral=None):
        """`integral=None` detects the flag from the entries; `False` forces
        the rational flag (used when a matrix with integer entries only
        determines the rational-coefficient Witt class, as for covering
        Seifert matrices)."""
        if isinstance(rows, ExactMatrix):
            mat = rows
        else:
            mat = ExactMatrix([[Fraction(e) for e in row] for row in rows],
                              kind="rational")
        if mat.kind != "rational":
            raise AdmissibilityError("Seifert matrices have rational entries")
        if not mat.is_square:
            raise AdmissibilityError("Seifert matrices are square")
        self._mat = mat
        entries_integral = all(
            e.denominator == 1 for row in mat.entries for e in row
        )
        if integral is None:
            self._integral = entries_integral
        elif integral and not entries_integral:
            raise AdmissibilityError("matrix has non-integer entries")
        else:
            self._integral = bool(integral)
        self.name = name
        d = (mat - mat.transpose()).det()
        if d == 0:
            raise AdmissibilityError("det(A - A^T) must be nonzero")
        if self._integral and d not in (1, -1):
            raise AdmissibilityError(
                "integral Seifert matrices need det(A - A^T) = +-1, got %s" % d
            )

    @property
    def matrix(self) -> ExactMatrix:
        return self._mat

    @property
    def size(self) -> int:
        return self._mat.rows

    @property
    def integral(self) -> bool:
        return self._integral

    @property
    def entries(self):
        return self._mat.entries

    def __eq__(self, other):
        if not isinstance(other, SeifertMatrix):
            return NotImplemented
        return self._mat == other._mat

    def __hash__(self):
        return hash(self._mat)

    def __repr__(self):
        flag = "integral" if self._integral else "rational"
        return "SeifertMatrix(%r, %s)" % (self._mat.entries, flag)

    def seifert_form(self) -> ExactMatrix:
        """B(t) = (1 - t) A + (1 - t^-1) A^T, the Hermitian Laurent matrix
        whose unit-circle evaluations give the Levine-Tristram forms."""
        a = self._mat.entries
        n = self.size
        # B_ij = (a_ij + a_ji) - a_ij t - a_ji t^-1
        return ExactMatrix(
            [[LaurentPoly({-1: -a[j][i], 0: a[i][j] + a[j][i], 1: -a[i][j]})
              for j in range(n)] for i in range(n)],
            kind="laurent",
        )


def alexander(s: SeifertMatrix) -> LaurentPoly:
    """Normalized Alexander polynomial det(A - t A^T).

    >>> str(alexander(SeifertMatrix([[-1, 1], [0, -1]])))
    't^2 - t + 1'
    """
    a = s.matrix.to_laurent()
    at = s.matrix.transpose().to_laurent().scale(T)
    return normalize_unit((a - at).det())


def signature_at(s: SeifertMatrix, angle) -> tuple:
    """(signature, nullity) of the Hermitian form at omega = e^{2 pi i angle},
    for a rational angle strictly between 0 and 1 (so omega != 1): an int,
    Fraction or numeric string; a float raises TypeError."""
    theta = as_fraction(angle)
    if not 0 < theta < 1:
        raise ValueError("angle must satisfy 0 < a/q < 1")
    return evaluated_hermitian_signature(s.seifert_form(), root_of_unity(theta))


def signature_function(s: SeifertMatrix) -> SignatureFunction:
    """The full signature step function on the upper semicircle.

    det B = +-t^k (t - 1)^(2g) Delta(t) for the Seifert form B, and t - 1
    has no root on the open arc, so the factors of Delta serve for det B."""
    return signature_function_of_matrix(
        s.seifert_form(), factor_rational(alexander(s))[1]
    )


def _arf_and_determinant(s: SeifertMatrix) -> tuple:
    """(Arf invariant, knot determinant) of an integral Seifert matrix, from
    one det(A + A^T): that is Delta(-1) up to the sign normalize_unit puts on
    Delta, and a rational det instead of a Laurent one.  Arf is 0 iff
    Delta(-1) is congruent to +-1 mod 8; the determinant is |Delta(-1)|."""
    d = (s.matrix + s.matrix.transpose()).det()
    if d.denominator != 1 or d.numerator % 2 == 0:
        raise InternalInvariantError("Delta(-1) of an integral matrix must be odd")
    return (0 if d.numerator % 8 in (1, 7) else 1), abs(d.numerator)


def arf(s: SeifertMatrix) -> int:
    """Arf invariant: 0 iff Delta(-1) is congruent to +-1 mod 8.

    Defined for integral Seifert matrices only.
    """
    if not s.integral:
        raise AdmissibilityError("Arf invariant needs an integral Seifert matrix")
    return _arf_and_determinant(s)[0]


def determinant_invariant(s: SeifertMatrix) -> int:
    """|Delta(-1)|, the knot determinant (integral matrices only)."""
    if not s.integral:
        raise AdmissibilityError("the determinant invariant needs an integral Seifert matrix")
    return _arf_and_determinant(s)[1]


@dataclass(frozen=True)
class FoxMilnorResult:
    passes: bool
    witness: LaurentPoly | None

    def __bool__(self):
        return self.passes


def _reciprocal_class(p: IntPoly) -> IntPoly:
    """The reciprocal of p, normalized to positive leading coefficient."""
    r = p.reverse()
    return r if r.lc > 0 else -r


def _pick_representative(p: IntPoly, q: IntPoly) -> IntPoly:
    """Deterministic choice between a factor and its reciprocal partner:
    prefer the one whose constant term is smaller in absolute value than its
    leading coefficient (so a monic partner like t - 2 yields 2t - 1)."""
    for cand in (p, q):
        if abs(cand.coeff(0)) < abs(cand.lc):
            return cand
    return min((p, q), key=lambda f: f.coeffs)


def fox_milnor(delta: LaurentPoly, factors) -> FoxMilnorResult:
    """Whether delta factors as +- t^k f(t) f(1/t), with a witness f;
    `factors` is factor_rational(delta)[1].

    The test is on multiplicities in the factorization over Q: every
    self-reciprocal irreducible factor must occur to even multiplicity, and
    every other irreducible factor exactly as often as its reciprocal
    partner.  On pass the witness collects half / one of each, rescaled so
    that normalize_unit(f(t) f(1/t)) equals normalize_unit(delta) whenever
    the content of delta is a perfect square of a rational (always the case
    for the Alexander polynomial of an integral Seifert matrix).

    >>> from .laurent import parse_poly
    >>> delta = parse_poly('2t^2 - 5t + 2')
    >>> r = fox_milnor(delta, factor_rational(delta)[1])
    >>> r.passes, str(r.witness)
    (True, '2t - 1')
    >>> delta = parse_poly('t^2 - 3t + 1')
    >>> fox_milnor(delta, factor_rational(delta)[1]).passes
    False
    """
    if delta.is_zero:
        raise ValueError("the zero polynomial has no Fox-Milnor factorization")
    mult = dict(factors)
    witness = LaurentPoly.one()
    for p, m in factors:
        if p.degree == 0:
            continue
        pr = _reciprocal_class(p)
        if pr == p:
            if m % 2:
                return FoxMilnorResult(False, None)
            witness = witness * (p.to_laurent() ** (m // 2))
        else:
            if mult.get(pr) != m:
                return FoxMilnorResult(False, None)
            if p == _pick_representative(p, pr):
                witness = witness * (p.to_laurent() ** m)
    # rescale so the factorization identity holds exactly when possible
    target = normalize_unit(delta)
    have = normalize_unit(witness * witness.substitute_power(-1))
    ratio = _constant_quotient(target, have)
    root = _sqrt_fraction(ratio)
    if root is not None:
        witness = witness * root
        have = normalize_unit(witness * witness.substitute_power(-1))
        if have != target:
            raise InternalInvariantError("rescaled witness no longer matches")
    return FoxMilnorResult(True, witness)


def _constant_quotient(f: LaurentPoly, g: LaurentPoly) -> Fraction:
    """f / g when both are constant multiples of each other."""
    q = f.exact_div(g)
    if q.min_exp != 0 or q.max_exp != 0:
        raise InternalInvariantError("polynomials do not differ by a constant")
    return q.coeff(0)


def _sqrt_fraction(x: Fraction):
    if x <= 0:
        return None
    from math import isqrt

    a, b = isqrt(x.numerator), isqrt(x.denominator)
    if a * a == x.numerator and b * b == x.denominator:
        return Fraction(a, b)
    return None


def connected_sum(s1: SeifertMatrix, s2: SeifertMatrix) -> SeifertMatrix:
    """Block sum; realizes the connected sum of knots."""
    return SeifertMatrix(s1.matrix.block_sum(s2.matrix))


def mirror(s: SeifertMatrix) -> SeifertMatrix:
    """Seifert matrix -A^T of the mirror image; concordance inverse."""
    return SeifertMatrix(s.matrix.transpose().scale(Fraction(-1)))
