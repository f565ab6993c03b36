"""Exact arithmetic in Q[x]/(m) and exact Hermitian signatures on the circle.

A point of the unit circle is given exactly as (q, omega): omega is the image
of t in the cyclotomic field Q(zeta_q) = Q[x]/(Phi_q(x)).  Two families of
point are built:

  * root_of_unity(a/q): omega = x^a = exp(2*pi*i*a/q) in Q(zeta_q);
  * cayley_point(s): omega = (1 + i s)/(1 - i s) for rational s, a rational
    point of the circle in Q(i) = Q(zeta_4), with u = omega + 1/omega =
    2(1 - s^2)/(1 + s^2).  The matrix path of a signature function
    evaluates each of its arcs at one.

A Laurent matrix is evaluated at every point by one evaluator: powers of
omega, with omega^-1 = conj(omega).  No floating point is needed to
diagonalize a Hermitian matrix over the field by congruence, every pivot a
real diagonal entry (a vanishing live diagonal is first made nonzero by one
row and column addition), only to decide the signs of the pivots.  Those
signs are certified with rational interval arithmetic.  The real image of
x^k + x^-k is 2cos(2*pi*k/q), an algebraic number: a root of the u-image of
Phi_q (u = t + 1/t), isolated by Sturm sequences and refined by bisection
exactly as the jumps of a signature function are.  The working precision is raised
until the enclosure excludes zero -- which must happen, because a nonzero
field element has a nonzero image under every embedding.  In Q(i) a real
element is rational and its enclosure is the exact value cos 0 = 1.

A field element is int numerators over one positive int denominator.
Reduction mod m, and each step of an inverse's remainder sequence, is one
call of laurent.dense_pseudo_divmod; the power of lc(m) it scales by goes
into the denominator.  Ranks
"at" a root of an irreducible factor P (each jump's nullity) do not use the
quotient field: rank_over_factor eliminates fraction-free in Z[t] modulo P,
so PolyQuotientField serves only Q(zeta_q).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import InternalInvariantError
from .laurent import _strip, as_fraction, as_laurent, dense_cross, dense_mul, dense_pseudo_divmod
from .intpoly import IntPoly, cyclotomic, sturm_isolate, u_image
from .matrices import _denominator_lcm

__all__ = [
    "CyclotomicField",
    "PolyQuotientField",
    "cayley_point",
    "cos_enclosure",
    "cyclotomic_field",
    "evaluated_hermitian_signature",
    "rank_over_factor",
    "root_of_unity",
]


# -- certified enclosures ------------------------------------------------------

@lru_cache(maxsize=None)
def cos_enclosure(a: Fraction, bits: int):
    """Rational (lo, hi) enclosing cos(2*pi*a), width at most 2**-bits.

    For a = k/q in lowest terms with q >= 3, 2cos(2*pi*k/q) is a root of
    the u-image of Phi_q, whose roots are the 2cos(2*pi*j/q) for the j prime
    to q in [1, q/2), ascending as j falls; that root's isolating interval
    (the roots are isolated once per q) is refined and halved.  Rational cosines (q = 1,
    2, 3, 4, 6) come back exactly as a zero-width interval, so sign
    decisions never stall on an enclosure that straddles the true value.
    """
    a = a - (a.numerator // a.denominator)  # reduce mod 1 into [0, 1)
    k, q = a.numerator, a.denominator
    if q <= 2:
        c = Fraction(1 if q == 1 else -1)
        return c, c
    j = min(k, q - k)
    index = sum(1 for i in range(j + 1, (q + 1) // 2) if gcd(i, q) == 1)
    root = _cos_roots(q)[index].refine(Fraction(2, 2 ** bits))
    return root.lo / 2, root.hi / 2


@lru_cache(maxsize=None)
def _cos_roots(q: int) -> tuple:
    """The roots of the u-image of Phi_q, ascending, isolated once per q
    for every numerator and precision of cos_enclosure."""
    return tuple(sturm_isolate(u_image(cyclotomic(q)), -2, 2))


# -- quotient fields of Q[x] ---------------------------------------------------

def _lowest(nums, den: int) -> tuple:
    """The element nums / den (int numerators, den > 0) in lowest terms."""
    g = gcd(den, *nums)
    return (tuple(nums), den) if g == 1 else (tuple(c // g for c in nums), den // g)


class PolyQuotientField:
    """Q[x]/(m) for an irreducible m with m(0) != 0, so x is invertible.

    An element is a pair (c, d) in lowest terms: c the tuple of the deg m
    int numerators of its reduced coefficients, ascending, over one common
    denominator d > 0, so equal elements are equal pairs.  The field does
    all arithmetic on such pairs in Python ints."""

    def __init__(self, modulus: IntPoly):
        if modulus.degree < 1:
            raise ValueError("modulus must have positive degree")
        if modulus.coeff(0) == 0:
            raise ValueError("modulus must not vanish at 0")
        self.modulus, self.degree = modulus, modulus.degree
        # a positive leading coefficient keeps every denominator positive
        self._mod = modulus.coeffs if modulus.lc > 0 else (-modulus).coeffs

    def _reduce(self, c: list, den: int) -> tuple:
        """The element c / den for a list c of ints: lc(m)^e c = q m + r
        (dense_pseudo_divmod), so it is r / (lc(m)^e den)."""
        r = dense_pseudo_divmod(c, self._mod)[1]
        e = max(len(c) - self.degree, 0)
        return _lowest(r + [0] * (self.degree - len(r)), den * self._mod[-1] ** e)

    def element(self, coeffs) -> tuple:
        """The element an integer polynomial (dense ascending) reduces to."""
        return self._reduce(list(coeffs), 1)

    def add(self, a: tuple, b: tuple) -> tuple:
        return _lowest([x * b[1] + y * a[1] for x, y in zip(a[0], b[0])], a[1] * b[1])

    def sub(self, a: tuple, b: tuple) -> tuple:
        return _lowest([x * b[1] - y * a[1] for x, y in zip(a[0], b[0])], a[1] * b[1])

    def mul(self, a: tuple, b: tuple) -> tuple:
        return self._reduce(dense_mul(a[0], b[0]), a[1] * b[1])

    def inv(self, a: tuple) -> tuple:
        """a^-1 for a = c / d, fraction-free: the pseudo-remainder sequence of
        m and c carries with each member r a u, u c = r mod m, both divided
        by their content, down to a constant k; then a^-1 = d u / k.  From
        lc^e r0 = q r1 + r, with e = len(q), the new u is lc^e u0 - q u1."""
        c, d = a
        if not any(c):
            raise ZeroDivisionError("inverse of zero field element")
        r0, u0, r1, u1 = list(self._mod), [], _strip(list(c)), [1]
        while len(r1) > 1:
            q, r = dense_pseudo_divmod(r0, r1)
            if not r:
                raise InternalInvariantError("modulus was not irreducible")
            u = dense_cross([r1[-1] ** len(q)], u0, q, u1)
            g = gcd(*r, *u)
            r0, u0, r1, u1 = r1, u1, [x // g for x in r], [x // g for x in u]
        u1 += [0] * (self.degree - len(u1))
        return _lowest([d * x if r1[0] > 0 else -d * x for x in u1], abs(r1[0]))


class CyclotomicField(PolyQuotientField):
    """Q(zeta_q) = Q[x]/(Phi_q), with x^q = 1 used to fold Laurent exponents,
    conjugation x -> x^(q-1), and certified signs of real elements.  Phi_q
    is monic, so each x^k and each product of numerators reduces in Z[x]."""

    def __init__(self, q: int):
        if q < 1:
            raise ValueError("root-of-unity order must be >= 1")
        self.q = q
        super().__init__(cyclotomic(q))
        self._xpow = [(1,) + (0,) * (self.degree - 1)]
        for _ in range(q - 1):
            self._xpow.append(self._reduce([0] + list(self._xpow[-1]), 1)[0])  # times x

    def images(self, polys: list, omega: tuple) -> list:
        """Images of the Laurent polynomials under t -> omega = w / d on the
        unit circle, omega^-1 = conj(omega): with omega^k = W_k / d^k, the W_k
        formed once, f(omega) is one integer vector over L d^K, for L the lcm
        of f's denominators and K its largest |exponent|."""
        w, d = omega
        powers, dpow = [self._xpow[0]], [1]
        for _ in range(max([0] + [max(f.max_exp, -f.min_exp) for f in polys if f])):
            powers.append(self._reduce(dense_mul(powers[-1], w), 1)[0])
            dpow.append(dpow[-1] * d)
        inverse = [self.conj((p, 1))[0] for p in powers]
        out = []
        for f in polys:
            terms = f.items()
            top = max([abs(k) for k, _ in terms] + [0])
            den = _denominator_lcm(c for _, c in terms)
            acc = [0] * self.degree
            for k, c in terms:
                scale = c.numerator * (den // c.denominator) * dpow[top - abs(k)]
                for i, x in enumerate(powers[k] if k >= 0 else inverse[-k]):
                    if x:
                        acc[i] += scale * x
            out.append(_lowest(acc, den * dpow[top]))
        return out

    def conj(self, e: tuple) -> tuple:
        """Complex conjugate: x^i -> x^(-i).  It maps Z[zeta_q] onto
        itself, so the numerators keep their content: no reduction."""
        out = [0] * self.degree
        for i, x in enumerate(e[0]):
            if x:
                for j, y in enumerate(self._xpow[-i % self.q]):
                    if y:
                        out[j] += x * y
        return tuple(out), e[1]

    def real_sign(self, e: tuple) -> int:
        """Sign (-1, 0, +1) of the real number e maps to under x -> zeta_q,
        read off the numerators (the denominator is positive).  e must be
        fixed by conjugation; a nonzero element embeds to a nonzero real, so
        refining the enclosure must eventually decide."""
        if not any(e[0]):
            return 0
        if self.conj(e) != e:
            raise ValueError("sign of a non-real element")
        bits = 48
        while bits <= 6144:
            lo = hi = 0
            for i, x in enumerate(e[0]):
                if not x:
                    continue
                clo, chi = cos_enclosure(Fraction(i, self.q), bits)
                if x > 0:
                    lo += x * clo
                    hi += x * chi
                else:
                    lo += x * chi
                    hi += x * clo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2
        raise InternalInvariantError("sign enclosure failed to converge")


@lru_cache(maxsize=None)
def cyclotomic_field(q: int) -> CyclotomicField:
    return CyclotomicField(q)


# -- points of the unit circle ---------------------------------------------------

def root_of_unity(angle) -> tuple:
    """The point exp(2*pi*i*angle), angle taken mod 1: (q, x^a) in Q(zeta_q)
    for the reduced angle a/q.  The angle is exact (int, Fraction or
    numeric string); a float raises TypeError."""
    angle = as_fraction(angle)
    angle -= angle.numerator // angle.denominator
    field = cyclotomic_field(angle.denominator)
    return field.q, field.element([0] * angle.numerator + [1])


def cayley_point(s) -> tuple:
    """The rational point omega = (1 + i s)/(1 - i s) of the unit circle:
    (4, omega) in Q(i) = Q(zeta_4), where for s = n/d
    omega = (d^2 - n^2 + 2 i n d)/(d^2 + n^2).
    s is exact (int, Fraction or numeric string); a float raises TypeError."""
    s = as_fraction(s)
    n, d = s.numerator, s.denominator
    return 4, _lowest([d * d - n * n, 2 * n * d], d * d + n * n)


# -- Hermitian signatures on the circle ----------------------------------------

def _hermitian_signature(field: CyclotomicField, H):
    """(signature, nullity) of a Hermitian matrix of field elements, by
    exact congruence with real diagonal pivots; the kernel is what is left.

    When the live diagonal vanishes but some H[i][j] does not, adding
    H[i][j] times row j to row i and H[j][i] times column j to column i
    makes H[i][i] = 2|H[i][j]|^2, a nonzero real pivot."""
    active = list(range(len(H)))
    pos = neg = 0
    while active:
        k = next((a for a in active if any(H[a][a][0])), None)
        if k is None:
            pair = next(((i, j) for i in active for j in active if i < j and any(H[i][j][0])),
                        None)
            if pair is None:
                break
            k, j = pair
            b, bbar = H[k][j], H[j][k]
            for c in active:
                H[k][c] = field.add(H[k][c], field.mul(b, H[j][c]))
            for r in active:
                H[r][k] = field.add(H[r][k], field.mul(H[r][j], bbar))
        p = H[k][k]
        if field.real_sign(p) > 0:
            pos += 1
        else:
            neg += 1
        active.remove(k)
        rows = [r for r in active if any(H[r][k][0])]
        # a pivot with nothing left to clear (the last of each
        # component, for one) needs no inverse
        pinv = field.inv(p) if rows else None
        for r in rows:
            f = field.mul(H[r][k], pinv)
            for c in active:
                H[r][c] = field.sub(H[r][c], field.mul(f, H[k][c]))
    return pos - neg, len(active)


def evaluated_hermitian_signature(M, point):
    """(signature, nullity) of M(omega) at the point (q, omega) of the unit
    circle, omega in Q(zeta_q), as root_of_unity or cayley_point builds it.

    M is an ExactMatrix (rational or Laurent entries), and the evaluated
    matrix must be Hermitian, which is checked.
    """
    if M.cols != M.rows:
        raise ValueError("square matrix required")
    q, omega = point
    field = cyclotomic_field(q)
    n = M.rows
    flat = field.images([as_laurent(e) for row in M.entries for e in row], omega)
    H = [flat[i * n:(i + 1) * n] for i in range(n)]
    # conj is an involution, so checking (i, j) also checks (j, i)
    for i in range(n):
        for j in range(i, n):
            if field.conj(H[i][j]) != H[j][i]:
                raise ValueError("matrix is not Hermitian at this point")
    return _hermitian_signature(field, H)


def _reduced_row(row, modulus: IntPoly) -> list:
    """lc(P)^e row mod P in Z[t], divided by its integer content: a nonzero
    scalar multiple of the row in Q[t]/(P), every entry of degree below
    deg P.  One exponent e serves the whole row: every entry is padded with
    zeros to the length of the longest, and dense_pseudo_divmod's exponent
    is fixed by the lengths."""
    top = max(len(x) for x in row)
    if top > modulus.degree:
        row = [dense_pseudo_divmod(x + [0] * (top - len(x)), modulus.coeffs)[1] for x in row]
    content = 0
    for x in row:
        for c in x:
            content = gcd(content, c)
    return row if content < 2 else [[c // content for c in x] for x in row]


def rank_over_factor(M, modulus: IntPoly) -> int:
    """Rank of a square Laurent matrix over the field Q[t]/(modulus).

    The modulus must be irreducible with nonzero constant term (so t is a
    unit).  This is the rank of M(omega) for every root omega of the modulus.
    M is eliminated fraction-free in Z[t]: row_r <- p row_r - a row_pivot,
    every row kept reduced modulo the modulus and divided by its content
    (_reduced_row).
    """
    if M.cols != M.rows:
        raise ValueError("square matrix required")
    if modulus.degree < 1:
        raise ValueError("modulus must have positive degree")
    if modulus.coeff(0) == 0:
        raise ValueError("modulus must not vanish at 0")
    # t is a unit modulo the modulus, so the t^s that clears every negative
    # exponent keeps the rank, and so does the integer scale L
    rows = [_reduced_row(r, modulus) for r in M.integer_poly_rows()[0]]
    rank = 0
    for col in range(M.cols):
        pivot = next((r for r in range(rank, M.rows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pivot_row = rows[rank]
        p = pivot_row[col]
        for r in range(rank + 1, M.rows):
            a = rows[r][col]
            if a:
                # row_r <- p row_r - a row_pivot: a nonzero multiple of row_r
                # minus a multiple of the pivot row, so the rank is kept
                rows[r] = _reduced_row(
                    [dense_cross(p, x, a, y) for x, y in zip(rows[r], pivot_row)], modulus)
        rank += 1
        if rank == M.rows:
            break
    return rank
