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
  3. samples each remaining arc at the rational point
     omega(s) = (1 + i s)/(1 - i s) of the circle, for the simplest rational
     s > 0 whose u(s) = 2(1 - s^2)/(1 + s^2) lies strictly inside the open
     rational gap between the adjacent isolating intervals, and evaluates
     the signature there exactly.

The s with u(s) in a gap (lo, hi) fill the open interval between the
quadratic surds s(hi) and s(lo), s(u) = sqrt((2 - u)/(2 + u)); its simplest
rational comes from their continued fractions (isqrt gives the exact
partial quotients) and is confirmed by one exact comparison of u(s) with
the gap.  B(omega(s)) has entries in Q(i) and rational Hermitian pivots, so
no field of higher degree is needed.
Values exactly at jump points are not part of the description; one-sided
limits are available from the adjacent arcs.

signature_function_of_matrix finds each nullity as a corank over Q[t]/(P)
and each arc value as a Hermitian signature in Q(i); a Witt presentation
calls it only on its bases' forms, each once, by their batteries.  A
presentation is a formal sum of parts (B, k), the block sum of the
substituted forms B(t^k) of a few base forms B (a cable has one part,
J(p, q) three), and pullback_signature_function reads its function off
the bases' own (Litherland, "Signatures of iterated torus knots", 1979):
(B(t^k))(omega) = B(omega^k), and the u-coordinate of omega^k is D_k(u),
with D_k the Dickson polynomial (D_0 = 2, D_1 = u, D_(j+1) = u D_j -
D_(j-1)), so the block sum's function is the sum of the fn_B o D_k.

  * Jumps and samples are found as above, from the block sum's factors.
  * The nullity at the roots of a factor h is given, not computed here:
    B(t^k) has at the roots of h the nullity B has at the roots of the
    factor g of det B with h dividing g(t^k), and the base that factors
    g(t^k) (witt._Base) maps each h to it, summed over the parts.  The
    same map gives h's isolating intervals, which a base isolates once for
    all the k it is substituted at.
  * The value at a sample u adds fn_B(D_k(u)) over the parts.  Each D_k(u)
    is rational: the isolating intervals of B's jumps are refined until it
    lies outside each, which places it in one arc of fn_B (fn_B(2) = 0 is
    the value of the last arc).  A D_k(u) on a jump of B would be a root of
    det, never a sample, so it raises.

The pullback evaluates no form and reduces none over a factor field.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .errors import InternalInvariantError
from .intpoly import RootInterval, dickson, sturm_isolate, u_image
from .fields import cayley_point, evaluated_hermitian_signature, rank_over_factor

__all__ = [
    "Arc",
    "JumpPoint",
    "SignatureFunction",
    "pullback_signature_function",
    "same_step_function",
    "signature_function_of_matrix",
]

# width of printed isolating intervals for irrational jump locations
_PRINT_WIDTH = Fraction(1, 2 ** 20)


class JumpPoint(namedtuple("JumpPoint", "root factor nullity")):
    """A circle zero of det B: `root`, the u-coordinate as a certified
    RootInterval (width at most 2^-20; lo == hi for an exact rational
    root), `factor`, the irreducible IntPoly owning it, and `nullity`, the
    int nullity of B there."""

    __slots__ = ()


class Arc(namedtuple("Arc", "signature sample_angle")):
    """Maximal open u-interval free of jumps, with `signature`, the int
    signature there, and the sample it was evaluated at.

    `sample_angle` holds the Cayley parameter s, a Fraction, of the sample
    point omega(s) = (1 + i s)/(1 - i s), not an angle; the attribute
    keeps the name of the root-of-unity sampler it replaced.  The arc's
    bounds are read off the function's jumps (SignatureFunction.arc_rows).
    """

    __slots__ = ()


class SignatureFunction(namedtuple("SignatureFunction", "arcs jumps")):
    """`arcs`, a tuple of Arcs ascending in u on (-2, 2), separated by
    `jumps`, a tuple of JumpPoints."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return all(a.signature == 0 for a in self.arcs)

    def arc_rows(self):
        """(u_lo, u_hi, signature) rows with printable rational bounds, which
        stand in for the true arc endpoints: the ends -2 and 2 are
        themselves, and a jump is the midpoint of its printed isolating
        interval (an exact root is its own midpoint)."""
        bounds = [Fraction(-2)] + [j.root.midpoint() for j in self.jumps] + [Fraction(2)]
        return [(lo, hi, a.signature) for lo, hi, a in zip(bounds, bounds[1:], self.arcs)]

    def jump_rows(self):
        """(u_lo, u_hi, nullity) rows; exact roots give u_lo == u_hi."""
        return [(j.root.lo, j.root.hi, j.nullity) for j in self.jumps]


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
    the intervals are pairwise disjoint; returns them sorted ascending.

    Each pass halves both intervals of every overlapping pair of neighbours
    (an exact root stays as it is) and sorts again, until no pair overlaps.
    Distinct roots part once the intervals are narrower than their distance."""
    items = list(items)
    changed = True
    while changed:
        changed = False
        items.sort(key=lambda it: (it[0].lo, it[0].hi))
        for i in range(len(items) - 1):
            (a, pa), (b, pb) = items[i], items[i + 1]
            if a.hi > b.lo:
                items[i] = a.refine(a.width / 2), pa
                items[i + 1] = b.refine(b.width / 2), pb
                changed = True
    return items


def _gap(left: RootInterval | None, right: RootInterval | None):
    """Open rational u-interval (lo, hi), nonempty and inside the arc between
    two neighbouring jump roots; None stands for the end -2 or 2.

    Each root lies strictly inside its isolating interval, or is the
    interval when lo == hi, so every u strictly between left.hi and
    right.lo lies in the arc.  Neighbours that touch are refined as copies:
    the jumps keep the intervals they print.
    """
    while True:
        lo = Fraction(-2) if left is None else left.hi
        hi = Fraction(2) if right is None else right.lo
        if lo < hi:
            return lo, hi
        if left is not None:
            left = left.refine(left.width / 2)
        if right is not None:
            right = right.refine(right.width / 2)


def _s_of(u: Fraction):
    """s = sqrt((2 - u)/(2 + u)) >= 0 for -2 < u <= 2, the s with u(s) = u:
    a Fraction when rational, else the surd (P, D, Q) = (P + sqrt D)/Q with
    D not a square, Q > 0 and Q dividing D - P^2."""
    a = (2 - u) / (2 + u)
    d = a.numerator * a.denominator
    r = isqrt(d)
    if r * r == d:
        return Fraction(r, a.denominator)
    return 0, d, a.denominator


def _floor(x) -> int:
    """Floor of a Fraction or of a surd (P + sqrt D)/Q, Q > 0."""
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    p, d, q = x
    # sqrt D lies strictly between isqrt(D) and isqrt(D) + 1
    return (p + isqrt(d)) // q


def _reciprocal_minus(x, a: int):
    """1/(x - a) for x > a, x a Fraction or a surd with floor a.

    A surd stays in the form (P + sqrt D)/Q with Q dividing D - P^2, and Q
    stays positive: for p = P - aQ, x - a > 0 gives -sqrt D < p, and
    P < sqrt D with a >= 0 gives p < sqrt D, so D - p^2 > 0; the new P = -p
    is again below sqrt D, as P = 0 is for s(u)."""
    if isinstance(x, Fraction):
        return 1 / (x - a)
    p, d, q = x
    p -= a * q
    return -p, d, (d - p * p) // q


def _simplest_between(lo, hi) -> Fraction:
    """The rational of least denominator (and then least numerator) strictly
    between lo and hi, 0 <= lo < hi; hi None stands for infinity.

    The least integer above lo if it lies below hi; otherwise lo and hi
    share the integer part a and the answer is a + 1/x for the simplest x
    strictly between 1/(hi - a) and 1/(lo - a), which walks the common
    prefix of their continued fractions.  A surd is never an integer.
    """
    a = _floor(lo)
    if hi is None or _floor(hi) > a + 1 or (_floor(hi) == a + 1 and hi != a + 1):
        return Fraction(a + 1)
    rest = None if lo == a else _reciprocal_minus(lo, a)
    return a + 1 / _simplest_between(_reciprocal_minus(hi, a), rest)


def _cayley_sample(lo: Fraction, hi: Fraction) -> Fraction:
    """The simplest rational s > 0 with u(s) = 2(1 - s^2)/(1 + s^2)
    strictly inside the open interval (lo, hi), -2 <= lo < hi <= 2.

    u(s) falls from 2 to -2 as s runs over (0, infinity), so these s fill
    the open interval (s(hi), s(lo)), s(-2) being infinity.  A u(s) that is
    a jump root lies in that jump's isolating interval, outside (lo, hi).
    """
    s = _simplest_between(_s_of(hi), None if lo == -2 else _s_of(lo))
    # u = omega + 1/omega at omega = cayley_point(s)
    if not lo < 2 * (1 - s * s) / (1 + s * s) < hi:
        raise InternalInvariantError("Cayley sample outside its gap")
    return s


def _step_function(factors, circle, value_at) -> SignatureFunction:
    """The SignatureFunction of a form whose det has the irreducible factors
    `factors` (pairs (factor, multiplicity)): `circle` yields, for each
    circle factor p of `factors` in their order, (p, the form's nullity
    at p's roots, 0 when there are none, the intervals sturm_isolate gives
    for the roots of p's u-image in (-2, 2)), and value_at(s) is the
    form's signature at the Cayley point omega(s), which is not a root of
    det.

    Over the PID Q[t], the nullity of B at the roots of P is at most
    v_P(det B), P's multiplicity; a nullity outside [1, v_P] at a factor
    with roots raises."""
    multiplicity = dict(factors)
    raw = []
    for p, nullity, roots in circle:
        if roots and not 1 <= nullity <= multiplicity[p]:
            raise InternalInvariantError(
                "nullity %d at a circle factor of det B of multiplicity %d"
                % (nullity, multiplicity[p]))
        raw.extend((r, (p, nullity)) for r in roots)

    # distinct irreducible factors have disjoint root sets; refine the
    # isolating intervals until pairwise disjoint so the jump order is exact,
    # then down to the printing width
    jumps = tuple(
        JumpPoint(root=r.refine(_PRINT_WIDTH), factor=p, nullity=nul)
        for r, (p, nul) in _separate_all(raw)
    )

    ends = [None] + [j.root for j in jumps] + [None]
    arcs = []
    for left, right in zip(ends, ends[1:]):
        s = _cayley_sample(*_gap(left, right))
        arcs.append(Arc(value_at(s), s))
    return SignatureFunction(tuple(arcs), jumps)


def signature_function_of_matrix(B, factors) -> SignatureFunction:
    """SignatureFunction of a Hermitian Laurent ExactMatrix B with det != 0,
    given the irreducible factors of det B as factor_rational(det B)[1]
    lists them; t - 1 and t + 1 may be left out, having no root on the arc.
    Each nullity is a corank over Q[t]/(p), each arc value a Hermitian
    signature in Q(i)."""
    n = B.rows

    def value_at(s):
        sig, nul = evaluated_hermitian_signature(B, cayley_point(s))
        if nul != 0:
            raise InternalInvariantError("arc sample landed on a singular point")
        return sig

    def circle():
        for p, g in circle_jump_factors(factors):
            roots = sturm_isolate(g, Fraction(-2), Fraction(2))
            yield p, n - rank_over_factor(B, p) if roots else 0, roots

    return _step_function(factors, circle(), value_at)


def _value_at(fn: SignatureFunction, v: Fraction) -> int:
    """fn at a rational v in [-2, 2]: the value of the arc holding v.  Each
    jump's isolating interval is refined until v lies outside it; v on a
    jump raises.  v = 2 lies in the last arc, whose value is the form's
    signature 0 at t = 1 when the form is that of a Seifert matrix A: near
    1, B(omega)/|1 - omega| tends to a nonsingular multiple of i(A - A^T),
    of signature 0, and B(1) = 0."""
    below = 0
    for j in fn.jumps:
        r = j.root
        while r.lo < v < r.hi:
            r = r.refine(r.width / 2)
        if r.lo == v == r.hi:
            raise InternalInvariantError("pulled-back sample lands on a jump at u = %s" % v)
        if r.hi > v:
            break
        below += 1
    return fn.arcs[below].signature


def pullback_signature_function(parts, factors, jumps) -> SignatureFunction:
    """SignatureFunction of the block sum of the forms B(t^k), from each
    B's own function: (B(t^k))(omega) = B(omega^k), and the u-coordinate of
    omega^k is D_k(u), so the sum's function is the sum of fn_B o D_k.

    `parts` holds (fn_B, k) for k >= 1, fn_B the SignatureFunction of a
    Hermitian Laurent form B with B(1) = 0; `factors` lists the irreducible
    factors of the block sum's det, and `jumps` maps each of its circle
    factors (circle_jump_factors), and no other, to a pair, as the bases
    give it: the block sum's nullity at its roots, and sturm_isolate's
    unrefined isolating intervals of its u-image's roots in (-2, 2).  The
    jumps and samples are those signature_function_of_matrix would find.
    At a sample, part k adds fn_B(D_k(u)); no form is evaluated.
    """

    def value_at(s):
        u = 2 * (1 - s * s) / (1 + s * s)
        return sum(_value_at(fn, dickson(k, u)) for fn, k in parts)

    circle = ((h, *jumps[h]) for h, _ in factors if h in jumps)
    return _step_function(factors, circle, value_at)


def _value_changes(fn: SignatureFunction):
    """[first arc value, ((factor, index), value after) for each jump where
    the value changes]."""
    count = {}
    out = [fn.arcs[0].signature]
    for j, before, after in zip(fn.jumps, fn.arcs, fn.arcs[1:]):
        index = count.get(j.factor, 0)
        count[j.factor] = index + 1
        if after.signature != before.signature:
            out.append(((j.factor, index), after.signature))
    return out


def same_step_function(f: SignatureFunction, g: SignatureFunction) -> bool:
    """Whether two signature step functions agree away from their jumps.

    A jump is named by its factor and its index among that factor's jumps:
    each function isolates every circle root of each factor it jumps at, and
    distinct irreducible factors share no root, so equal names are equal
    points and the names order the same way in both functions.  A step
    function is then determined by its first arc value and the jumps where
    its value changes, with the value after each; no matrix is evaluated.
    """
    return _value_changes(f) == _value_changes(g)
