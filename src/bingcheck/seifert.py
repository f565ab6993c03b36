"""Seifert matrices and the classical knot invariants computed from them.

A Seifert matrix A (over the rationals; flagged integral when all entries
are integers) is admissible when det(A - A^T) != 0; for integral matrices
the determinant must be +-1, as it is for a genuine Seifert surface basis.
From A one obtains:

  * the Alexander polynomial  Delta(t) = det(A - t A^T), normalized;
  * the Hermitian form  H(omega) = (1 - omega) A + (1 - conj omega) A^T
    at roots of unity omega != 1, whose signature and nullity are the
    Levine-Tristram invariants, and its signature at the rational points
    (x + iy)/(x - iy) of the circle in integer arithmetic;
  * the full signature step function on the circle;
  * the Arf invariant (integral matrices): 0 iff Delta(-1) = +-1 mod 8;
  * the knot determinant |Delta(-1)| (integral matrices);
  * the Fox-Milnor test: Delta(t) = +- t^k f(t) f(1/t) for some f, a
    necessary condition for (algebraic) sliceness.

Connected sum is block sum; the mirror image has Seifert matrix -A^T.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import AdmissibilityError, InternalInvariantError
from .laurent import LaurentPoly, _strip, as_fraction, normalize_unit
from .intpoly import IntPoly
from .factor import factor_rational
from .matrices import ExactMatrix, bareiss_det, symmetric_signature
from .fields import evaluated_hermitian_signature, root_of_unity
from .sigfunc import SignatureFunction, signature_function_of_matrix

__all__ = [
    "FoxMilnorResult",
    "SeifertMatrix",
    "alexander",
    "arf",
    "cayley_signature",
    "connected_sum",
    "determinant_invariant",
    "fox_milnor",
    "mirror",
    "signature_at",
    "signature_function",
]


class SeifertMatrix:
    """A square rational matrix A with det(A - A^T) != 0, flagged integral
    when every entry is an integer (then det(A - A^T) must be +-1).  It
    keeps X = L(A + A^T) and Y = L(A - A^T) as int rows, L the lcm of A's
    denominators, which every cayley_signature call reads."""

    __slots__ = ("_mat", "_integral", "_cayley", "name")

    def __init__(self, rows, name: str = "", integral=None):
        """`integral=None` detects the flag from the entries; `False` forces
        the rational flag (used when a matrix with integer entries only
        determines the rational-coefficient Witt class, as for covering
        Seifert matrices)."""
        if isinstance(rows, ExactMatrix):
            mat = rows
        else:
            mat = ExactMatrix([[Fraction(e) for e in row] for row in rows])
        if not all(isinstance(e, Fraction) for row in mat.entries for e in row):
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
        m, n = mat.integer_rows()[0], mat.rows
        self._cayley = ([[m[i][j] + m[j][i] for j in range(n)] for i in range(n)],
                        [[m[i][j] - m[j][i] for j in range(n)] for i in range(n)])

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
        """L B(t) for B(t) = (1 - t) A + (1 - t^-1) A^T, the Hermitian form of
        the Levine-Tristram signatures, and L the lcm of A's denominators:
        integer coefficients, with B's signatures, nullities and ranks."""
        a = self._mat.integer_rows()[0]
        n = self.size
        # L B_ij = (a_ij + a_ji) - a_ij t - a_ji t^-1, a = L A
        return ExactMatrix(
            [[LaurentPoly({-1: -a[j][i], 0: a[i][j] + a[j][i], 1: -a[i][j]})
              for j in range(n)] for i in range(n)]
        )


def alexander(s: SeifertMatrix) -> LaurentPoly:
    """Normalized Alexander polynomial det(A - t A^T): bareiss_det of the
    entries L a_ij - L a_ji t, L the lcm of A's denominators, divided by
    L^n.  No Laurent matrix is built.

    >>> str(alexander(SeifertMatrix([[-1, 1], [0, -1]])))
    't^2 - t + 1'
    """
    m, scale = s.matrix.integer_rows()
    n = s.size
    d = bareiss_det([[_strip([m[i][j], -m[j][i]]) for j in range(n)] for i in range(n)])
    denominator = scale ** n
    return normalize_unit(LaurentPoly.from_coeffs([Fraction(c, denominator) for c in d]))


def signature_at(s: SeifertMatrix, angle) -> tuple:
    """(signature, nullity) of the Hermitian form at omega = e^{2 pi i angle},
    for a rational angle strictly between 0 and 1 (so omega != 1): an int,
    Fraction or numeric string; a float raises TypeError."""
    theta = as_fraction(angle)
    if not 0 < theta < 1:
        raise ValueError("angle must satisfy 0 < a/q < 1")
    return evaluated_hermitian_signature(s.seifert_form(), root_of_unity(theta))


def cayley_signature(s: SeifertMatrix, x: int, y: int) -> tuple:
    """(signature, nullity) of the Hermitian form of s at the point
    omega = (x + iy)/(x - iy) of the unit circle, for integers x, y not
    both 0, in integer arithmetic.

    With X = A + A^T and Y = A - A^T, omega = (1 + i s')/(1 - i s') for
    s' = y/x, and (1 + s'^2) B(omega) = 2 s' (s' X - i Y)
    = (2 y / x^2)(y X - i x Y).  So B(omega) is a positive multiple of
    |y| X - i (y/|y|) x Y, which is |y| X - i |x| Y or its complex
    conjugate, of the same signature.  At x = 0 (omega = -1) that is
    |y| X = |y| B(-1) / 2.  At y = 0, omega = 1 and B(1) = 0.
    A rational A is scaled by the lcm of its denominators (s keeps X and Y
    so scaled), and x, y divided by their gcd: positive scales keep the
    signature.  The Hermitian a X - i b Y is read off the real symmetric
    [[a X, b Y], [-b Y, a X]], which has twice its signature and nullity.

    >>> trefoil = SeifertMatrix([[-1, 1], [0, -1]])
    >>> cayley_signature(trefoil, 0, 1), cayley_signature(trefoil, 1, 0)
    ((-2, 0), (0, 2))
    """
    n = s.size
    if not y:
        if not x:
            raise ValueError("(x + iy)/(x - iy) needs x or y nonzero")
        return 0, n
    X, Y = s._cayley
    g = gcd(x, y)
    a, b = abs(y) // g, abs(x) // g
    sym = [[a * v for v in row] for row in X]
    skew = [[b * v for v in row] for row in Y]
    rows = [sym[i] + skew[i] for i in range(n)] + \
        [[-e for e in skew[i]] + sym[i] for i in range(n)]
    signature, nullity = symmetric_signature(rows)
    return signature // 2, nullity // 2


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


class FoxMilnorResult(namedtuple("FoxMilnorResult", "passes delta factors")):
    """Whether Delta passes the Fox-Milnor test (`passes`, a bool), with
    the evidence it was decided on: `delta`, the LaurentPoly Delta, and
    `factors`, its factor list, a tuple of (IntPoly, int multiplicity)
    pairs.  The witness f (None on a fail) is built from that list on its
    first read and kept in the instance's __dict__.  Results are equal,
    and hash alike, when their evidence is."""

    def __bool__(self):
        return self.passes

    @cached_property
    def witness(self) -> LaurentPoly | None:
        return _fox_milnor_witness(self.delta, self.factors) if self.passes else None


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
    partner.  Pass or fail is read off the multiplicities alone.  On pass
    the witness, built when first read, collects half / one of each,
    rescaled so that normalize_unit(f(t) f(1/t)) equals normalize_unit(delta)
    whenever the content of delta is a perfect square of a rational (always
    the case for the Alexander polynomial of an integral Seifert matrix).

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
    factors = tuple(factors)
    mult = dict(factors)
    for p, m in factors:
        if p.degree == 0:
            continue
        pr = _reciprocal_class(p)
        unpaired = m % 2 if pr == p else mult.get(pr) != m
        if unpaired:
            return FoxMilnorResult(False, delta, factors)
    return FoxMilnorResult(True, delta, factors)


def _fox_milnor_witness(delta: LaurentPoly, factors) -> LaurentPoly:
    """The witness of a passing fox_milnor: half of each self-reciprocal
    factor's multiplicity, and the representative of each reciprocal pair,
    rescaled when the ratio to delta is a rational square."""
    witness = LaurentPoly.one()
    for p, m in factors:
        if p.degree == 0:
            continue
        pr = _reciprocal_class(p)
        if pr == p:
            witness = witness * (p.to_laurent() ** (m // 2))
        elif p == _pick_representative(p, pr):
            witness = witness * (p.to_laurent() ** m)
    # rescale so the factorization identity holds exactly when possible:
    # normalize_unit commutes with a positive scale, so the rescaled
    # witness gives have * root^2
    target = normalize_unit(delta)
    have = normalize_unit(witness * witness.substitute_power(-1))
    root = _sqrt_fraction(_constant_quotient(target, have))
    if root is not None:
        witness = witness * root
        if have * (root * root) != target:
            raise InternalInvariantError("rescaled witness no longer matches")
    return witness


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
