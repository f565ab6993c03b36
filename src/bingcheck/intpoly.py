"""Integer polynomials: exact resultants, gcd, cyclotomics, Sturm isolation.

IntPoly stores dense ascending integer coefficients with a nonzero leading
coefficient; the zero polynomial is the empty tuple and has degree -1.  The
heavy primitives here are the subresultant polynomial remainder sequence
(resultants without rational blowup), one primitive remainder sequence that
gives both gcds and Sturm chains, Yun's squarefree decomposition,
cyclotomic polynomials by iterated exact division of t^d - 1, the
cyclotomic order of f as the order of t modulo f, the u-substitution
u = t + 1/t of self-reciprocal polynomials, and Sturm-chain real root
isolation returning refinable rational intervals.  Every remainder is a
pseudo-remainder of laurent.dense_pseudo_divmod.

Evaluation at a rational n/d runs in ints: homogeneous Horner gives the
integer d^deg f(n/d), whose sign is that of f(n/d).  Root isolation reads
only such signs, from a Sturm chain kept as primitive integer multiples of
the chain over Q, and refinement bisects an interval held as integer
numerators over a common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd

from .errors import InternalInvariantError
from .laurent import LaurentPoly, dense_exact_div, dense_mul, dense_pseudo_divmod, parse_poly

__all__ = [
    "IntPoly",
    "RootInterval",
    "cyclotomic",
    "cyclotomic_order",
    "dickson",
    "divmod_exact",
    "gcd_poly",
    "resultant",
    "squarefree_decomposition",
    "squarefree_part",
    "sturm_isolate",
    "u_image",
]


class IntPoly:
    """Dense integer polynomial, ascending coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, str):
            f = parse_poly(coeffs)
            if not f.is_zero and f.min_exp < 0:
                raise ValueError("negative exponents are not allowed in IntPoly")
            coeffs = [f.coeff(i) for i in range(0, (0 if f.is_zero else f.max_exp) + 1)]
            if any(x.denominator != 1 for x in coeffs):
                raise ValueError("non-integer coefficients are not allowed in IntPoly")
        c = [int(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    @property
    def coeffs(self):
        return self._c

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def lc(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._c[-1]

    def coeff(self, i: int) -> int:
        return self._c[i] if 0 <= i < len(self._c) else 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly([other])
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        # a constant hashes as the int it equals
        return hash(self._c) if len(self._c) > 1 else hash(self.coeff(0))

    def __bool__(self):
        return bool(self._c)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly([other])
        n = max(len(self._c), len(other._c))
        return IntPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __neg__(self):
        return IntPoly([-x for x in self._c])

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPoly([other])
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * x for x in self._c])
        return IntPoly(dense_mul(self._c, other._c))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        r = IntPoly([1])
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def __call__(self, x):
        """Exact value at an int or Fraction x = n/d.

        The integer d^deg f(n/d) comes from homogeneous Horner in ints and is
        divided by d^deg once; an int x gives an int.  Its sign, the sign of
        f(x), is all that root isolation reads (see _scaled_value).
        """
        if isinstance(x, int):
            return _scaled_value(self._c, x, 1)
        d = x.denominator
        return Fraction(_scaled_value(self._c, x.numerator, d), d ** max(self.degree, 0))

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self._c)][1:])

    def content(self) -> int:
        g = 0
        for c in self._c:
            g = int_gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPoly":
        """Content removed, leading coefficient made positive."""
        if self.is_zero:
            return self
        g = self.content()
        if self._c[-1] < 0:
            g = -g
        return IntPoly([c // g for c in self._c])

    def reverse(self) -> "IntPoly":
        """Coefficient reversal t^deg * f(1/t); strips trailing roots at 0."""
        c = list(self._c)
        while c and c[0] == 0:
            c.pop(0)
        return IntPoly(list(reversed(c)))

    def to_laurent(self) -> LaurentPoly:
        return LaurentPoly.from_coeffs(self._c, 0)

    def __str__(self):
        return str(self.to_laurent())

    def __repr__(self):
        return f"IntPoly('{self}')"


def _scaled_value(c, n: int, d: int) -> int:
    """d^m f(n/d) for the dense integer coefficients c of f, m = len(c) - 1,
    by homogeneous Horner; with d > 0 its sign is that of f(n/d)."""
    acc, power = 0, 1
    for ci in reversed(c):
        acc = acc * n + ci * power
        power *= d
    return acc


def _sign(c, x: Fraction) -> int:
    """The sign (-1, 0 or 1) of the integer polynomial c at x."""
    v = _scaled_value(c, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


# -- exact division ----------------------------------------------------------

def divmod_exact(f: IntPoly, g: IntPoly) -> IntPoly:
    """The quotient f/g in Z[t], in ints: ValueError at the first quotient
    digit that is not an integer or on a remainder, ZeroDivisionError on
    g = 0 (dense_exact_div)."""
    return IntPoly(dense_exact_div(f.coeffs, g.coeffs))


def pseudo_rem(f: IntPoly, g: IntPoly) -> IntPoly:
    """lc(g)^(deg f - deg g + 1) * f mod g, staying inside Z[t]
    (dense_pseudo_divmod).  Requires deg f >= deg g >= 0."""
    if f.degree < g.degree:
        raise ValueError("pseudo_rem requires deg f >= deg g")
    return IntPoly(dense_pseudo_divmod(f.coeffs, g.coeffs)[1])


def resultant(f, g):
    """Exact resultant of two nonzero polynomials over Z or Q.

    Uses the subresultant polynomial remainder sequence, which keeps every
    intermediate value in Z with no rational blowup.  Laurent input should be
    shifted to an ordinary polynomial first (LaurentPoly.split_content); a unit
    factor t^k only changes the resultant by a sign when the other argument
    has constant term +-1, and callers here always take absolute values.

    >>> resultant(IntPoly([-2, 1]), IntPoly([-3, 1]))
    -1
    >>> resultant(IntPoly([1, -1, 1]), IntPoly([1, 1]))
    3
    """
    if isinstance(f, LaurentPoly) or isinstance(g, LaurentPoly):
        raise TypeError("resultant takes IntPoly; shift Laurent input by LaurentPoly.split_content")
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined here")

    A, B = f, g
    s = 1
    if A.degree < B.degree:
        if A.degree % 2 == 1 and B.degree % 2 == 1:
            s = -1
        A, B = B, A
    if B.degree == 0:
        return s * B.coeff(0) ** A.degree

    a, b = A.content(), B.content()
    A = IntPoly([c // a for c in A.coeffs])
    B = IntPoly([c // b for c in B.coeffs])
    t = a**B.degree * b**A.degree
    gpart, h = 1, 1
    while True:
        dA, dB = A.degree, B.degree
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
        R = pseudo_rem(A, B)
        A = B
        divisor = gpart * h**delta
        B = IntPoly([c // divisor for c in R.coeffs])
        if not R.is_zero and any(c % divisor for c in R.coeffs):
            raise InternalInvariantError("subresultant PRS division was not exact")
        gpart = A.lc
        if delta == 0:
            pass
        elif delta == 1:
            h = gpart
        else:
            h = gpart**delta // h ** (delta - 1)
        if B.degree <= 0:
            break
    if B.is_zero:
        return 0
    dA = A.degree
    num = B.coeff(0) ** dA
    den = h ** (dA - 1)
    if num % den:
        raise InternalInvariantError("subresultant final division was not exact")
    return s * t * (num // den)


def _remainder_sequence(a: IntPoly, b: IntPoly) -> list:
    """a, b (deg a >= deg b), then, while the last member has positive
    degree and the remainder of the last two is not zero, a primitive
    positive multiple of minus that remainder.

    The remainder of positive multiples of two members is a positive
    multiple of their remainder, and pseudo_rem(a, b) is lc(b)^(deg a -
    deg b + 1) rem(a, b), so each member is the primitive part of a
    pseudo-remainder with its sign set to that of -rem over Q, and a
    positive multiple of its counterpart in the same sequence over Q.  For
    (f, f') the sequence is f's Sturm chain; the last member is gcd(a, b)
    up to a constant."""
    seq = [a, b]
    while b.degree > 0:
        r = pseudo_rem(a, b)
        if r.is_zero:
            break
        g = r.content() if b.lc < 0 and (a.degree - b.degree) % 2 == 0 else -r.content()
        a, b = b, IntPoly([c // g for c in r.coeffs])
        seq.append(b)
    return seq


def gcd_poly(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd over Z (positive leading coefficient): the last member
    of the remainder sequence, made primitive."""
    a, b = f.primitive(), g.primitive()
    if a.degree < b.degree:
        a, b = b, a
    if b.is_zero:
        return a
    return _remainder_sequence(a, b)[-1].primitive()


def squarefree_part(f: IntPoly) -> IntPoly:
    """Product of the distinct irreducible factors of f, primitive."""
    f = f.primitive()
    if f.degree <= 0:
        return f
    return divmod_exact(f, gcd_poly(f, f.derivative())).primitive()


def squarefree_decomposition(f: IntPoly):
    """Yun's algorithm: [(a_i, i)] with f = +-content * prod a_i^i.

    Each a_i is primitive, squarefree and pairwise coprime with the others;
    entries with a_i = 1 are omitted.
    """
    f = f.primitive()
    if f.degree < 1:
        return []
    df = f.derivative()
    g = gcd_poly(f, df)
    if g.degree == 0:
        return [(f, 1)]
    b = divmod_exact(f, g)
    c = divmod_exact(df, g)
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        a = gcd_poly(b, d)
        if a.degree > 0:
            out.append((a, i))
        b = divmod_exact(b, a)
        c = divmod_exact(d, a)
        d = c - b.derivative()
        i += 1
    return out


def cyclotomic_order(f: IntPoly):
    """d if f is the d-th cyclotomic polynomial, else None.

    Phi_d is monic with constant term +-1, and d is the order of t modulo
    it, so that order is found by repeated t x mod f and only cyclotomic(d)
    is compared with f.  phi(d) >= sqrt(d/2), so deg f = phi(d) forces
    d <= 2 deg^2: a power of t that has not come back to 1 by then never
    gives a cyclotomic f.

    >>> cyclotomic_order(IntPoly('t^2 - t + 1'))
    6
    >>> cyclotomic_order(IntPoly('t^2 - t - 1')) is None
    True
    """
    m = f.degree
    if m < 1 or f.lc != 1 or abs(f.coeff(0)) != 1:
        return None
    x = [1]
    for d in range(1, 2 * m * m + 2):
        x = dense_pseudo_divmod([0] + x, f.coeffs)[1]
        if x == [1]:
            return d if cyclotomic(d) == f else None
    return None


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial, by iterated exact division of t^d - 1.

    >>> cyclotomic(1)
    IntPoly('t - 1')
    >>> cyclotomic(6)
    IntPoly('t^2 - t + 1')
    >>> cyclotomic(12)
    IntPoly('t^4 - t^2 + 1')
    """
    if d < 1:
        raise ValueError("cyclotomic order must be >= 1")
    num = IntPoly([-1] + [0] * (d - 1) + [1])
    if d == 1:
        return num
    for e in range(1, d):
        if d % e == 0:
            num = divmod_exact(num, cyclotomic(e))
    return num


def u_image(p: IntPoly) -> IntPoly:
    """g with p(t) = t^(deg p/2) g(t + t^-1), for self-reciprocal p of even
    degree with p equal to +reverse(p).

    >>> u_image(IntPoly('t^2 - t + 1'))
    IntPoly('t - 1')
    >>> u_image(IntPoly('t^4 - t^3 + t^2 - t + 1'))
    IntPoly('t^2 - t - 1')
    """
    if p.degree % 2 or p.reverse() != p:
        raise ValueError("u-substitution needs a +self-reciprocal even-degree polynomial")
    m = p.degree // 2
    q = {k - m: c for k, c in enumerate(p.coeffs) if c}
    g = [0] * (m + 1)
    for k in range(m, -1, -1):
        c = q.get(k, 0)
        if not c:
            continue
        g[k] = c
        # subtract c * (t + 1/t)^k
        comb = 1
        for i in range(k + 1):
            e = k - 2 * i
            q[e] = q.get(e, 0) - c * comb
            comb = comb * (k - i) // (i + 1)
    if any(q.values()):
        raise InternalInvariantError("u-substitution did not terminate cleanly")
    return IntPoly(g)


def dickson(k: int, u: Fraction) -> Fraction:
    """D_k(u) for k >= 0: D_0 = 2, D_1 = u, D_(j+1) = u D_j - D_(j-1).

    D_k(t + 1/t) = t^k + t^-k, so on the circle the u-coordinate of
    omega^k is D_k of that of omega.

    >>> dickson(3, Fraction(1))
    Fraction(-2, 1)
    """
    if k < 0:
        raise ValueError("Dickson index must be >= 0")
    before, d = Fraction(2), Fraction(u)
    if k == 0:
        return before
    for _ in range(k - 1):
        before, d = d, u * d - before
    return d


# -- Sturm sequences and real root isolation ----------------------------------

def _variations(chain, x: Fraction) -> int:
    signs = [v for v in (_sign(c, x) for c in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@dataclass(frozen=True)
class RootInterval:
    """Isolating data for one real root: the open interval (lo, hi), or an
    exactly-known rational root (lo == hi == exact).  `poly` is a squarefree
    polynomial with that root as a simple root, used for refinement."""

    lo: Fraction
    hi: Fraction
    poly: IntPoly
    exact: Fraction | None = None

    def __post_init__(self):
        if self.exact is None:
            c = self.poly.coeffs
            if _sign(c, self.lo) * _sign(c, self.hi) != -1:
                raise InternalInvariantError("isolating interval lacks a sign change")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def refine(self, width: Fraction) -> "RootInterval":
        """Shrink the isolating interval below `width` by sign bisection.

        The interval is kept as (a/d, b/d) in integers, and each halving
        doubles d: every midpoint and sign is the one Fraction bisection
        would meet."""
        if self.exact is not None:
            return self
        c = self.poly.coeffs
        lo, hi = self.lo, self.hi
        d = lo.denominator * hi.denominator // int_gcd(lo.denominator, hi.denominator)
        a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
        up = _scaled_value(c, a, d) > 0
        wn, wd = width.numerator, width.denominator
        while (b - a) * wd > wn * d:
            mid = a + b
            a, b, d = 2 * a, 2 * b, 2 * d
            v = _scaled_value(c, mid, d)
            if not v:
                return _exact_root(Fraction(mid, d))
            if (v > 0) == up:
                a = mid
            else:
                b = mid
        return RootInterval(Fraction(a, d), Fraction(b, d), self.poly)


def _linear_min_poly(r: Fraction) -> IntPoly:
    return IntPoly([-r.numerator, r.denominator])


def _exact_root(r: Fraction) -> RootInterval:
    return RootInterval(r, r, _linear_min_poly(r), exact=r)


def _isolating(g: IntPoly, a: Fraction, b: Fraction, exact) -> RootInterval:
    """The one root of g in the open interval (a, b), as isolating data.

    An end of (a, b) that is itself an exact root is divided out of g, so
    the polynomial changes sign across (a, b); a linear polynomial gives its
    root exactly."""
    for end in (a, b):
        if end in exact:
            g = divmod_exact(g, _linear_min_poly(end))
    if g.degree == 1:
        return _exact_root(Fraction(-g.coeff(0), g.coeff(1)))
    return RootInterval(a, b, g)


def sturm_isolate(f: IntPoly, lo, hi):
    """Disjoint isolating intervals for the distinct real roots of f in (lo, hi).

    Multiplicities are ignored: f's Sturm chain (its remainder sequence
    with f') ends in gcd(f, f'), and only when that is not constant is one
    chain of the squarefree part g built; g is never divided.  With zeros
    dropped, V(a) - V(b) counts the roots of g in the half-open (a, b], so
    bisection needs no special case: a root met at a bisection point is
    recorded exactly and counted in its left half.  Rational roots found
    that way, and the roots of linear g, come back with `exact` set; the
    intervals touch them only at an end.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    if f.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    g = f.primitive()
    chain = _remainder_sequence(g, g.derivative())
    if chain[-1].degree > 0:
        g = squarefree_part(f)
        chain = _remainder_sequence(g, g.derivative())
    chain = [m.coeffs for m in chain if not m.is_zero]
    exact = {end for end in (lo, hi) if not _sign(g.coeffs, end)}
    out = []
    stack = [(lo, hi, _variations(chain, lo), _variations(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb - (b in exact)  # roots in the open (a, b)
        if n == 1:
            out.append(_isolating(g, a, b, exact))
        elif n > 1:
            mid = (a + b) / 2
            if not _sign(g.coeffs, mid):
                exact.add(mid)
                out.append(_exact_root(mid))
            vm = _variations(chain, mid)
            stack.append((a, mid, va, vm))
            stack.append((mid, b, vm, vb))
    out.sort(key=lambda iv: (iv.lo, iv.hi))
    return out
