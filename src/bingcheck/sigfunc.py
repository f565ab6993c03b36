"""Step-function description of omega -> signature B(omega) on the unit circle.

For a Hermitian Laurent matrix B (B(t)^T = B(1/t) entrywise) the signature of
B(e^{2*pi*i*theta}) is constant between consecutive zeros of det B on the
circle.  Writing u = t + t^-1 (so u = 2cos(2*pi*theta) runs over (-2, 2) as
theta runs over the open interval (0, 1/2)), each self-reciprocal irreducible
factor P of det B other than t -+ 1 satisfies P(t) = t^(deg P/2) g(u) for an
integer polynomial g, and the circle zeros of P correspond to the roots of g
in (-2, 2).  The construction therefore:

  1. forms the u-images of the relevant irreducible factors of det B;
  2. isolates their real roots in (-2, 2) with Sturm sequences and refines
     the isolating intervals until pairwise disjoint -- these are the jumps,
     each carrying the nullity of B at the corresponding root (computed as a
     corank over the field Q[t]/(P), which is independent of the choice of
     root of P);
  3. samples one exact rational angle inside each remaining arc -- certified
     by jointly refining the candidate's cosine enclosure and the adjacent
     isolating intervals -- and evaluates the signature there exactly.

Sampling prefers small denominators q because the evaluation works in the
cyclotomic field of degree phi(q).  Values exactly at jump points are not
part of the description; one-sided limits are available from the adjacent
arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import InternalInvariantError
from .intpoly import IntPoly, RootInterval, cyclotomic, sturm_isolate
from .fields import cos_enclosure, evaluated_hermitian_signature, rank_over_factor

__all__ = [
    "Arc",
    "JumpPoint",
    "SignatureFunction",
    "same_step_function",
    "signature_function_of_matrix",
    "u_image",
]

# width of printed isolating intervals for irrational jump locations
_PRINT_WIDTH = Fraction(1, 2 ** 20)
# sampling limits; exceeding them means two circle roots of det B are closer
# than ~2^-100, far beyond anything a small presentation can produce
_SAMPLE_MAX_DEN = 256
_ENCLOSURE_BITS_CAP = 768
_BOUND_WIDTH_CAP = Fraction(1, 2 ** 100)

# angles in (0, 1/2) whose u = 2cos(2*pi*theta) is rational
_EXACT_U = {
    Fraction(1, 3): Fraction(-1),
    Fraction(1, 4): Fraction(0),
    Fraction(1, 6): Fraction(1),
}


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
    q = {k - m: Fraction(c) for k, c in enumerate(p.coeffs) if c}
    g = [Fraction(0)] * (m + 1)
    for k in range(m, -1, -1):
        c = q.get(k, Fraction(0))
        if not c:
            continue
        g[k] = c
        # subtract c * (t + 1/t)^k
        comb = 1
        for i in range(k + 1):
            e = k - 2 * i
            q[e] = q.get(e, Fraction(0)) - c * comb
            comb = comb * (k - i) // (i + 1)
    if any(q.values()):
        raise InternalInvariantError("u-substitution did not terminate cleanly")
    if any(x.denominator != 1 for x in g):
        raise InternalInvariantError("u-image has non-integer coefficients")
    return IntPoly([x.numerator for x in g])


@dataclass(frozen=True)
class JumpPoint:
    """A circle zero of det B: the u-coordinate as certified isolating data
    (width at most 2^-20), the irreducible factor owning it, and the nullity
    of B there."""

    root: RootInterval
    factor: IntPoly
    nullity: int

    @property
    def exact(self):
        return self.root.exact

    def printable_u(self) -> Fraction:
        if self.root.exact is not None:
            return self.root.exact
        return self.root.midpoint()


@dataclass(frozen=True)
class Arc:
    """Maximal open u-interval free of jumps, with the constant signature
    there and the certified rational angle at which it was sampled.

    The printed bounds stand in for the true arc endpoints: exact roots and
    the interval ends -2, 2 are themselves; irrational roots are represented
    by the midpoint of their printed isolating interval.
    """

    u_lo: Fraction
    u_hi: Fraction
    signature: int
    sample_angle: Fraction


@dataclass(frozen=True)
class SignatureFunction:
    """Arcs ascending in u on (-2, 2), separated by the jump points."""

    arcs: tuple
    jumps: tuple
    size: int

    @property
    def is_zero(self) -> bool:
        return all(a.signature == 0 for a in self.arcs)

    def max_abs_signature(self) -> int:
        return max((abs(a.signature) for a in self.arcs), default=0)

    def arc_rows(self):
        """(u_lo, u_hi, signature) rows with printable rational bounds."""
        return [(a.u_lo, a.u_hi, a.signature) for a in self.arcs]

    def jump_rows(self):
        """(u_lo, u_hi, nullity) rows; exact roots give u_lo == u_hi."""
        return [
            (j.exact, j.exact, j.nullity) if j.exact is not None
            else (j.root.lo, j.root.hi, j.nullity)
            for j in self.jumps
        ]


def circle_jump_factors(factors):
    """(factor, u-image) for each self-reciprocal irreducible factor in
    `factors` (pairs (factor, multiplicity)) other than t - 1 and t + 1;
    these are the only factors that can vanish on the open upper semicircle.

    An irreducible factor vanishing at some omega with |omega| = 1 and
    omega != -+1 also vanishes at the distinct root 1/omega = conj(omega),
    so it agrees with its own reciprocal up to sign; the sign is + and the
    degree even, because p(t) = -t^deg p(1/t) would force p(1) = 0.
    """
    out = []
    for p, _mult in factors:
        # degree-1 self-reciprocal factors are t -+ 1 (roots at u = -+2)
        if p.degree % 2 == 0 and p.reverse() == p:
            out.append((p, u_image(p)))
    return out


def _separate_all(items):
    """Refine (RootInterval, payload) pairs with pairwise-distinct roots until
    the intervals are pairwise disjoint; returns them sorted ascending."""
    items = list(items)
    changed = True
    while changed:
        changed = False
        items.sort(key=lambda it: (it[0].lo, it[0].hi))
        for i in range(len(items) - 1):
            (a, pa), (b, pb) = items[i], items[i + 1]
            if a.hi > b.lo:
                a, b = a.separate_from(b)
                items[i], items[i + 1] = (a, pa), (b, pb)
                changed = True
    return items


class _ArcBound:
    """Refinable one-sided bound for an arc endpoint: an exact u-value (the
    interval ends -2, 2 or a rational root) or a shrinking isolating interval
    around an irrational one.  Shared between the two adjacent arcs so
    refinement effort is reused."""

    def __init__(self, value=None, root=None):
        self.value = value
        self.root = None if value is not None else root

    @property
    def lo(self) -> Fraction:
        return self.value if self.value is not None else self.root.lo

    @property
    def hi(self) -> Fraction:
        return self.value if self.value is not None else self.root.hi

    def refine_step(self) -> bool:
        if self.root is None or self.root.width <= _BOUND_WIDTH_CAP:
            return False
        self.root = self.root.refine(self.root.width / 4)
        if self.root.exact is not None:
            self.value, self.root = self.root.exact, None
        return True


@lru_cache(maxsize=None)
def _cos_min_poly(q: int) -> IntPoly:
    """Minimal polynomial of 2cos(2*pi*a/q) over Q for any a with
    gcd(a, q) = 1 and q >= 3: the u-image of the q-th cyclotomic."""
    return u_image(cyclotomic(q))


def _certify_inside(theta: Fraction, left: _ArcBound, right: _ArcBound):
    """True/False when 2cos(2*pi*theta) is certified inside/outside the open
    arc between the bounded roots; None when the candidate's u-value is a
    root of an endpoint's polynomial (it is then an endpoint itself, since
    every root of a jump factor in (-2, 2) is a jump) or, failing that,
    when refinement caps out."""
    exact_u = _EXACT_U.get(theta)
    if exact_u is None:
        minpoly = _cos_min_poly(theta.denominator)
        for bound in (left, right):
            if bound.root is not None and bound.root.poly == minpoly:
                return None
    bits = 48
    while True:
        if exact_u is not None:
            el = eh = exact_u
        else:
            lo, hi = cos_enclosure(theta, bits)
            el, eh = 2 * lo, 2 * hi
        if left.hi < el and eh < right.lo:
            return True
        if eh <= left.lo or el >= right.hi:
            return False
        progressed = False
        if exact_u is None and bits < _ENCLOSURE_BITS_CAP:
            bits *= 2
            progressed = True
        progressed = left.refine_step() or progressed
        progressed = right.refine_step() or progressed
        if not progressed:
            return None


def _sample_angle(left: _ArcBound, right: _ArcBound) -> Fraction:
    """Smallest-denominator reduced angle a/q in (0, 1/2) whose u-value is
    certified inside the open arc (left, right)."""
    for q in range(3, _SAMPLE_MAX_DEN + 1):
        for a in range(1, (q - 1) // 2 + 1):
            if gcd(a, q) != 1:
                continue
            theta = Fraction(a, q)
            if _certify_inside(theta, left, right) is True:
                return theta
    raise InternalInvariantError("no rational angle certified inside the arc")


def signature_function_of_matrix(B, factors) -> SignatureFunction:
    """SignatureFunction of a Hermitian Laurent ExactMatrix B with det != 0,
    given the irreducible factors of det B as factor_rational(det B)[1]
    lists them; t - 1 and t + 1 may be left out, having no root on the arc."""
    n = B.rows
    if n == 0:
        return SignatureFunction(
            arcs=(Arc(Fraction(-2), Fraction(2), 0, Fraction(1, 3)),),
            jumps=(),
            size=0,
        )

    raw = []
    for p, g in circle_jump_factors(factors):
        roots = sturm_isolate(g, Fraction(-2), Fraction(2))
        if not roots:
            continue
        nullity = n - rank_over_factor(B, p)
        if nullity <= 0:
            raise InternalInvariantError("circle factor of det B with full rank")
        for r in roots:
            raw.append((r, (p, nullity)))

    # distinct irreducible factors have disjoint root sets; refine the
    # isolating intervals until pairwise disjoint so the jump order is exact,
    # then down to the printing width
    jumps = tuple(
        JumpPoint(root=r.refine(_PRINT_WIDTH), factor=p, nullity=nul)
        for r, (p, nul) in _separate_all(raw)
    )

    bounds = [_ArcBound(value=Fraction(-2))]
    for j in jumps:
        bounds.append(_ArcBound(value=j.exact, root=j.root))
    bounds.append(_ArcBound(value=Fraction(2)))

    printable = (
        [Fraction(-2)] + [j.printable_u() for j in jumps] + [Fraction(2)]
    )

    arcs = []
    for i in range(len(jumps) + 1):
        theta = _sample_angle(bounds[i], bounds[i + 1])
        sig, nul = evaluated_hermitian_signature(B, theta)
        if nul != 0:
            raise InternalInvariantError("arc sample landed on a singular point")
        arcs.append(Arc(printable[i], printable[i + 1], sig, theta))
    return SignatureFunction(arcs=tuple(arcs), jumps=jumps, size=n)


def same_step_function(f: SignatureFunction, g: SignatureFunction, B_f, B_g) -> bool:
    """Whether two signature step functions agree away from their jumps.

    Both functions are constant on each piece of the common refinement of
    their arc partitions, so comparing one certified sample per refined piece
    decides equality exactly.
    """
    if f is g or (f.is_zero and g.is_zero):
        return True
    # cut points: roots of the distinct jump factors of either function.  The
    # same factor may appear in both; each function carries a complete root
    # isolation for it, so one copy suffices (equal roots cannot be separated).
    roots_by_factor = {}
    for fn in (f, g):
        for j in fn.jumps:
            roots_by_factor.setdefault(j.factor, []).append((id(fn), j.root))
    cuts = []
    for tagged in roots_by_factor.values():
        first = tagged[0][0]
        cuts.extend(r for tag, r in tagged if tag == first)
    cuts = [r for r, _ in _separate_all((r, None) for r in cuts)]

    bounds = [_ArcBound(value=Fraction(-2))]
    for r in cuts:
        bounds.append(_ArcBound(value=r.exact, root=r))
    bounds.append(_ArcBound(value=Fraction(2)))
    for i in range(len(bounds) - 1):
        theta = _sample_angle(bounds[i], bounds[i + 1])
        sf, _ = evaluated_hermitian_signature(B_f, theta)
        sg, _ = evaluated_hermitian_signature(B_g, theta)
        if sf != sg:
            return False
    return True
