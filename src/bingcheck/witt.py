"""Witt presentations over the Laurent ring and the Bing-double obstruction
pipeline.

A knot's base is its own record, built on its battery: a Seifert matrix A,
whose flag gives the coefficient ring, Z (integral) or Q, and which stands
for its Seifert form B(t) = (1 - t) A + (1 - 1/t) A^T, a square Laurent
matrix, Hermitian for the involution t -> 1/t (B(t)^T = B(1/t)
entrywise); its signature function; and its order.  A Witt presentation
is a formal sum of parts (base, k), standing for the block sum of the
substituted forms phi_k B = B(t^k).  The paper's argument works on such
sums: the infection J(p, q) of a pattern on a companion K has Witt class
phi_p W(K) + phi_{p+q} W(K) + phi_q W(K).  So phi_n multiplies each k by
n and block sum concatenates the parts; the ring, matrix, order and factor
list are read off the parts, and the signature function is pulled back
from each base's own (sigfunc.pullback_signature_function).  A base
decides what each factor g of its order becomes under t -> t^k: the
factors of g(t^k), and B's nullity at the roots of g, which B(t^k) has at
theirs; the pullback sums those nullities over the parts and builds no
Laurent form.

The obstruction battery collects necessary conditions for algebraic
sliceness -- Fox-Milnor factorization, vanishing signature function, Arf
invariant, squareness of the determinant -- and reports the first failing
one as its certificate.  Its report holds the evidence only: the order,
its factors, the signature function and the Seifert matrix behind a
knot's battery; every test, the certificate and the verdict are read off
them.  A knot's presentation is built on its battery, so obstruction_battery
is the one place where a knot's Delta, factors and function are gathered.
A failing battery on K certifies that the Bing double B(K) is not slice,
since a knot whose Bing double is slice must be algebraically slice.
NO_OBSTRUCTION_FOUND never claims sliceness.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, isqrt
from operator import mul

from .errors import AdmissibilityError, InternalInvariantError
from .laurent import LaurentPoly
from .intpoly import IntPoly, cyclotomic, cyclotomic_order, sturm_isolate
from .factor import factor_rational, merge_factors
from .matrices import ExactMatrix
from .sigfunc import (
    SignatureFunction,
    circle_jump_factors,
    pullback_signature_function,
    same_step_function,
    signature_function_of_matrix,
)
from .seifert import (
    SeifertMatrix,
    _arf_and_determinant,
    _reciprocal_class,
    alexander,
    cayley_signature,
    fox_milnor,
    FoxMilnorResult,
)

__all__ = [
    "BingReport",
    "CrossCheck",
    "NOT_ALG_SLICE",
    "NO_OBSTRUCTION_FOUND",
    "ObstructionReport",
    "WittPresentation",
    "bing_double_verdict",
    "cyclotomic_factors",
    "from_seifert",
    "jpq_presentation",
    "obstruction_battery",
    "phi",
    "presentation_battery",
    "witt_sum",
]

NOT_ALG_SLICE = "NOT_ALG_SLICE"
NO_OBSTRUCTION_FOUND = "NO_OBSTRUCTION_FOUND"

# fixed battery order; the first failing test becomes the certificate
_CERTIFICATE_ORDER = ("fox_milnor", "signature_function", "arf", "determinant_square")

_T_MINUS_ONE, _T_PLUS_ONE = IntPoly([-1, 1]), IntPoly([1, 1])


class _Base:
    """A knot's own record, built once on its battery: the Seifert matrix A
    behind it, which gives the ring, the size and the form B(t) = (1 - t) A
    + (1 - 1/t) A^T, and which the additivity check reads
    (seifert.cayley_signature); the battery's signature function of B; and
    B's order (t - 1)^n Delta, n the size of B (det B is the order up to
    units).

    It decides what each factor g of the order becomes under t -> t^k: the
    factors h of g(t^k), and B's nullity at the roots of g, which is
    B(t^k)'s at the roots of each h.  That nullity is n at the roots of
    t - 1 (B(1) = 0), the jump's at a factor the function jumps at, and
    the nullity of A + A^T at -1 (B(-1) = 2(A + A^T)) when t + 1 divides
    Delta.  Any other g has no root on the circle, nor has any factor of
    g(t^k), so it is given 0.  The cyclotomic order of each g is read
    once, and the factor list and jump map of each order(t^k) are kept
    once computed.  So are the unrefined isolating intervals of each
    circle factor h, isolated on first use: an h of g(t^k) recurs at
    other k (Phi_3 divides both t^3 - 1 and t^6 - 1)."""

    __slots__ = ("seifert", "function", "order", "_owners", "_substituted", "_isolated")

    def __init__(self, battery: ObstructionReport):
        s, n = battery.seifert, battery.seifert.size
        self.seifert, self.function = s, battery.signature
        self.order = _T_MINUS_ONE.to_laurent() ** n * battery.alexander
        factors = merge_factors(battery.factors, [(_T_MINUS_ONE, n)] if n else [])
        nullity = {j.factor: j.nullity for j in self.function.jumps}
        nullity[_T_MINUS_ONE] = n
        if any(g == _T_PLUS_ONE for g, _ in factors):
            nullity[_T_PLUS_ONE] = cayley_signature(s, 0, 1)[1]
        self._owners = [(g, m, cyclotomic_order(g), nullity.get(g, 0)) for g, m in factors]
        self._substituted, self._isolated = {}, {}

    def substituted(self, k: int) -> tuple:
        """(factors, jumps) of B(t^k): factor_rational(order(t^k))[1],
        not recomputed from order(t^k), and the map from each of its circle
        factors h (sigfunc.circle_jump_factors) to B(t^k)'s nullity at
        h's roots and sturm_isolate's intervals of the roots of h's u-image
        in (-2, 2).  Each irreducible factor g of the order, of
        multiplicity m, adds the factors h of g(t^k) with multiplicities
        scaled by m, each h given g's nullity.  Distinct irreducible g have
        no common root, so neither do their g(t^k): the product is never
        factored, and each h has one g."""
        if k not in self._substituted:
            lists, nullities, done = [], {}, {}
            for g, m, d, nul in self._owners:
                # Delta is symmetric: g* owns the reciprocals of g(t^k)'s factors
                rev = _reciprocal_class(g)
                hs = done[g] = (_substituted_factors(g, d, k) if rev not in done else
                                merge_factors([(_reciprocal_class(h), j) for h, j in done[rev]]))
                lists.append([(h, m * j) for h, j in hs])
                nullities.update((h, nul) for h, _ in hs)
            factors = merge_factors(*lists)
            for h, u in circle_jump_factors([f for f in factors if f[0] not in self._isolated]):
                self._isolated[h] = sturm_isolate(u, Fraction(-2), Fraction(2))
            self._substituted[k] = factors, {h: (nullities[h], self._isolated[h])
                                             for h, _ in factors if h in self._isolated}
        return self._substituted[k]


def _substituted_factors(g: IntPoly, d: int | None, n: int):
    """factor_rational(g(t^n))[1] for an irreducible g, given its
    cyclotomic order d (cyclotomic_order(g), None if g is not cyclotomic).

    g(t) is its own list.  A cyclotomic g = Phi_d is not factored: with
    n = n1 n2, every prime of n1 dividing d and n2 prime to d,
    Phi_d(t^n1) = Phi_(d n1), and Phi_(d n1)(t^n2) is the product of the
    Phi_(d n1 e) over e | n2."""
    if n == 1:
        return [(g, 1)]
    if d is None:
        return factor_rational(g.to_laurent().substitute_power(n))[1]
    n1, n2 = 1, n
    while (c := gcd(n2, d)) > 1:
        n1, n2 = n1 * c, n2 // c
    return merge_factors([(cyclotomic(d * n1 * e), 1) for e in range(1, n2 + 1) if n2 % e == 0])


class WittPresentation:
    """The block sum of the phi_k B = B(t^k) over its parts, the (base, k)
    pairs, in order, each base a knot's own record.  The parts are all it
    stores; its ring, size, matrix, order, factor list and signature
    function are read off them.  The matrix, the block sum of the bases'
    seifert_form L B at t^k, is built on each read, which in the package
    is only __eq__ and __hash__.  Only from_seifert, phi, witt_sum, jpq_presentation and
    the Bing verdict build one, and the constructor checks nothing; the
    class stays exported for type use."""

    __slots__ = ("_parts",)

    def __init__(self, parts: tuple):
        self._parts = parts

    @property
    def parts(self) -> tuple:
        return self._parts

    @property
    def ring(self) -> str:
        return "Z" if all(base.seifert.integral for base, _ in self._parts) else "Q"

    @property
    def size(self) -> int:
        return sum(base.seifert.size for base, _ in self._parts)

    @property
    def matrix(self) -> ExactMatrix:
        return reduce(ExactMatrix.block_sum,
                      (base.seifert.seifert_form().substitute_power(k) for base, k in self._parts))

    def order(self) -> LaurentPoly:
        """Normalized determinant: the order of the presented torsion module
        (up to units), the product of the bases' orders at t^k."""
        return reduce(mul, (base.order.substitute_power(k) for base, k in self._parts))

    def factors(self) -> list:
        """The order's irreducible factors with multiplicities, exactly as
        factor_rational(self.order())[1] lists them: the bases' lists at
        t^k, merged."""
        return merge_factors(*(base.substituted(k)[0] for base, k in self._parts))

    def signature_function(self) -> SignatureFunction:
        """Pulled back from the bases' own functions, with the nullity at
        each factor summed over the parts from the bases' maps: no form is
        built, evaluated or reduced over a factor field."""
        jumps = {}
        for base, k in self._parts:
            for h, (nullity, roots) in base.substituted(k)[1].items():
                summed = jumps[h][0] if h in jumps else 0
                jumps[h] = summed + nullity, roots
        return pullback_signature_function(
            [(base.function, k) for base, k in self._parts], self.factors(), jumps)

    def __eq__(self, other):
        if not isinstance(other, WittPresentation):
            return NotImplemented
        return self.matrix == other.matrix and self.ring == other.ring

    def __hash__(self):
        return hash((self.matrix, self.ring))

    def __repr__(self):
        return "WittPresentation(size=%d, ring=%s)" % (self.size, self.ring)


def from_seifert(s: SeifertMatrix) -> WittPresentation:
    """The knot's own presentation, one part (base, 1), its base built on
    the knot's battery: A, standing for B(t) = (1 - t) A + (1 - 1/t) A^T,
    with ring Z (integral) or Q and the battery's signature function.  The
    battery builds the knot's one form B; no presentation holds one.  For
    even size n, det B = (1 - t)^n t^-n Delta: the order is (t - 1)^n Delta
    and its factors are Delta's with (t - 1, n) added.

    >>> str(from_seifert(SeifertMatrix([[-1, 1], [0, -1]])).order())
    't^4 - 3t^3 + 4t^2 - 3t + 1'
    """
    return WittPresentation(((_Base(obstruction_battery(s)), 1),))


def phi(p: WittPresentation, n: int) -> WittPresentation:
    """Substitute t -> t^n (n >= 1): each part (base, k) becomes
    (base, k n).  Additive, preserves Hermitian-ness."""
    if n < 1:
        raise ValueError("phi needs n >= 1")
    if n == 1:
        return p
    return WittPresentation(tuple((base, k * n) for base, k in p.parts))


def witt_sum(p1: WittPresentation, p2: WittPresentation) -> WittPresentation:
    """Block sum, which realizes addition of Witt classes: p1's parts
    followed by p2's.  The ring is Q if either summand's is."""
    return WittPresentation(p1.parts + p2.parts)


def _jpq(knot: WittPresentation, p: int, q: int) -> WittPresentation:
    """phi_p + phi_{p+q} + phi_q of a knot's presentation: the Witt class
    of the infection J(p, q) on that knot."""
    return witt_sum(phi(knot, p), witt_sum(phi(knot, p + q), phi(knot, q)))


def jpq_presentation(s: SeifertMatrix, p: int, q: int) -> WittPresentation:
    """Presentation of the infection J(p, q) on companion S:
    phi_p + phi_{p+q} + phi_q of the knot's presentation."""
    if p < 1 or q < 1:
        raise ValueError("J(p, q) needs p, q >= 1")
    return _jpq(from_seifert(s), p, q)


def cyclotomic_factors(factors):
    """Sorted list of all d with the d-th cyclotomic polynomial among the
    irreducible factors of a polynomial (d = 1 means t - 1; d = 2 means
    t + 1), given its factors as factor_rational lists them.

    >>> from .laurent import parse_poly
    >>> cyclotomic_factors(factor_rational(parse_poly('t^2 - t + 1'))[1])
    [6]
    >>> cyclotomic_factors(factor_rational(parse_poly('t^2 - 3t + 1'))[1])
    []
    """
    return sorted(d for g, _ in factors if (d := cyclotomic_order(g)) is not None)


class ObstructionReport(namedtuple("ObstructionReport",
                                   "name ring alexander factors signature seifert")):
    """Outcome of the algebraic-sliceness battery on one knot/presentation.

    It holds the evidence only: `name` and `ring` ("Z" or "Q"), strs; the
    order `alexander`, a LaurentPoly; `factors`, its factor list as
    factor_rational gives it, a tuple of (IntPoly, int) pairs; `signature`,
    the SignatureFunction; and `seifert`, the SeifertMatrix behind a
    knot's battery (None for a bare presentation).  The Fox-Milnor result,
    the cyclotomic factors, Arf, the determinant, the certificate (the
    first failing test, in the order Fox-Milnor, signature function, Arf,
    determinant-square) and the verdict are read off it on first access
    and kept in the instance's __dict__.  `arf` and `determinant` are None
    unless `seifert` is integral.  t - 1 has no root on the open arc, so
    one factor list serves every test that reads factors."""

    @cached_property
    def fox_milnor(self) -> FoxMilnorResult:
        return fox_milnor(self.alexander, self.factors)

    @cached_property
    def cyclotomic(self) -> tuple:
        return tuple(cyclotomic_factors(self.factors))

    @cached_property
    def _invariants(self) -> tuple:
        s = self.seifert
        return _arf_and_determinant(s) if s is not None and s.integral else (None, None)

    @property
    def arf(self) -> int | None:
        return self._invariants[0]

    @property
    def determinant(self) -> int | None:
        return self._invariants[1]

    @property
    def determinant_is_square(self) -> bool | None:
        d = self.determinant
        return None if d is None else isqrt(d) ** 2 == d

    @cached_property
    def certificate(self) -> str | None:
        failed = (not self.fox_milnor.passes, not self.signature.is_zero,
                  self.arf == 1, self.determinant_is_square is False)
        return next((test for test, f in zip(_CERTIFICATE_ORDER, failed) if f), None)

    @property
    def verdict(self) -> str:
        return NOT_ALG_SLICE if self.certificate else NO_OBSTRUCTION_FOUND


def obstruction_battery(s: SeifertMatrix) -> ObstructionReport:
    """Run every implemented necessary condition for algebraic sliceness on
    a Seifert matrix: the one place where a knot's Delta, its factors and
    its signature function (by the matrix path on its 2g x 2g form, the
    one B(t) built for the knot) are gathered.  Deterministic; Arf and the
    determinant, from one det(A + A^T), are computed on first read."""
    delta = alexander(s)
    factors = factor_rational(delta)[1]
    return ObstructionReport(s.name or "(unnamed)", "Z" if s.integral else "Q", delta,
                             tuple(factors),
                             signature_function_of_matrix(s.seifert_form(), factors), s)


def presentation_battery(p: WittPresentation, name: str = "(presentation)") -> ObstructionReport:
    """The battery applied to a bare presentation: the order det(B) takes
    the Alexander polynomial's role, and with no Seifert matrix behind it
    Arf and determinant do not apply.  The order's factor list is merged
    from the bases' lists, each g(t^k) factored once per base, and the
    signature function is pulled back from the bases' own functions with
    the nullities the bases map their factors to: no form is built,
    evaluated or reduced over a factor field."""
    return ObstructionReport(name, p.ring, p.order(), tuple(p.factors()),
                             p.signature_function(), None)


class CrossCheck(namedtuple("CrossCheck", "p q telescoping")):
    """Checked diagnostics for the pair of ints (p, q): the signature
    additivity of J(p, q), checked at every arc sample of its signature
    function on the parts' own Seifert matrices in integer arithmetic, and
    the telescoping identity phi_{q-1} ~ phi_{q+1}, checked when J(p, q)'s
    battery finds no obstruction (`telescoping`, "verified" or "skipped").
    A failure of either raises, so neither can record one: `additivity` is
    a class attribute, always "pass"."""

    __slots__ = ()
    additivity = "pass"


def _additive_j_battery(knot: WittPresentation, p: int, q: int) -> ObstructionReport:
    """The battery of J(p, q) on the knot's presentation, with its signature
    additivity checked at its own arc samples.  The battery pulls each arc
    value back from the knot's function, as the sum of its values at
    D_k(u), k = p, p + q, q; at each sample omega = (1 + i s)/(1 - i s),
    s = n/d, that sum must equal the sum over J's parts (B, k) of the
    signature of B at omega^k = (x + iy)/(x - iy), (d + i n)^k = x + iy,
    with every B(omega^k) nonsingular (omega^k = 1, where B vanishes, would
    be a root of t^k - 1, a jump of J and never a sample).  Each value is
    cayley_signature's on the part's own Seifert matrix, in integer
    arithmetic: no substituted form is built and nothing is evaluated in
    Q(i)."""
    j = _jpq(knot, p, q)
    report = presentation_battery(j)
    for arc in report.signature.arcs:
        d, n = arc.sample_angle.denominator, arc.sample_angle.numerator
        signature = nullity = 0
        for base, k in j.parts:
            x, y = 1, 0
            for _ in range(k):
                x, y = x * d - y * n, x * n + y * d
            sig, null = cayley_signature(base.seifert, x, y)
            signature, nullity = signature + sig, nullity + null
        if (signature, nullity) != (arc.signature, 0):
            raise InternalInvariantError(
                "J(%d, %d) signature additivity failed at s = %s" % (p, q, arc.sample_angle)
            )
    return report


class BingReport(namedtuple("BingReport", "battery crosschecks check_range")):
    """Verdict about the Bing double B(K): `battery`, the ObstructionReport
    on K, `crosschecks`, a tuple of the machinery's CrossChecks, and
    `check_range`, the int bound on their p and q.  The verdict,
    certificate, conclusion and Arf side-certificate are read off the
    battery."""

    __slots__ = ()

    @property
    def verdict(self) -> str:
        return self.battery.verdict

    @property
    def certificate(self) -> str | None:
        return self.battery.certificate

    @property
    def conclusion(self) -> str | None:
        return "B(K) is not slice" if self.battery.verdict == NOT_ALG_SLICE else None

    @property
    def arf_certificate(self) -> bool:
        return self.battery.arf == 1


def bing_double_verdict(s: SeifertMatrix, check_range: int = 3) -> BingReport:
    """Decide what the implemented obstructions say about the Bing double
    of the knot with Seifert matrix `s` (integral required).

    The verdict is the battery's: a knot whose Bing double is slice is
    algebraically slice, so any failing necessary condition for algebraic
    sliceness certifies that B(K) is not slice, and Arf(K) = 1 is reported
    as an independent secondary certificate.  For 1 <= p, q <= check_range
    the report carries checked diagnostics: the J(p, q) signature
    additivity and, when the J(p, q) battery finds no obstruction, the
    telescoping identity phi_{q-1} ~ phi_{q+1}.  Either failing raises
    InternalInvariantError naming J(p, q); neither adds a certificate.

    The telescoping check cannot fail on correct code.  Suppose J(p, q)'s
    battery passes but sigma_K is not identically 0, and let theta* be the
    first jump where sigma_K leaves 0.  For theta just above
    theta*/(p + q), (p + q) theta lies past theta* while p theta and
    q theta lie below it, so sigma_J = v != 0 there, v the value of
    sigma_K just past theta*: J's battery fails.  Hence a passing J forces
    sigma_K = 0, every phi_k function is zero, and same_step_function
    returns True.

    J(p, q) is built and its battery run once per unordered pair {p, q}.
    Every signature function but K's own is pulled back from K's, which is
    the battery's (battery.signature): only K's 2g x 2g form goes through
    the matrix path, and only it is evaluated in Q(i).  Additivity is
    checked at each J battery's own arc samples: at each Cayley point omega
    the pulled-back arc value must equal the sum over J's parts (B, k) of
    the signature of B at omega^k, which seifert.cayley_signature reads off
    the part's Seifert matrix in integer arithmetic.  The check thus shares
    neither kernel nor points with K's values in Q(i): the pullback reads
    them at D_k(u).  The telescoping functions phi_k are pulled back too;
    phi_0 is the zero pairing, whose function vanishes identically.  K's
    presentation is built on the battery (_Base(battery)): one Alexander
    det, one factoring, one form B(t) and one matrix-path function for
    K, and its nullity at -1 read off A + A^T when t + 1 divides Delta.
    """
    if not s.integral:
        raise AdmissibilityError("the Bing-double verdict needs an integral Seifert matrix")
    if check_range < 1:
        raise ValueError("cross-check range must be >= 1")
    battery = obstruction_battery(s)
    # K's presentation, built on the battery: every function below is
    # pulled back from the battery's
    knot = WittPresentation(((_Base(battery), 1),))
    # signature function of phi_k(K) by k, each built once; B(1) = 0 makes
    # phi_0 the zero pairing, whose function vanishes identically
    phi_functions = {0: pullback_signature_function((), [], {}), 1: battery.signature}

    def phi_function(k):
        if k not in phi_functions:
            phi_functions[k] = phi(knot, k).signature_function()
        return phi_functions[k]

    crosschecks = []
    telescoped = set()  # the q already checked: telescoping does not depend on p
    # J(p, q) and J(q, p) block-sum the same three phi_k in another order and
    # give the same report: one J and one battery per unordered pair
    j_battery_of = {}
    for p in range(1, check_range + 1):
        for q in range(1, check_range + 1):
            pair = (min(p, q), max(p, q))
            if pair not in j_battery_of:
                j_battery_of[pair] = _additive_j_battery(knot, *pair)
            telescoping = "skipped"
            if j_battery_of[pair].verdict == NO_OBSTRUCTION_FOUND:
                if q not in telescoped and \
                        not same_step_function(phi_function(q - 1), phi_function(q + 1)):
                    raise InternalInvariantError(
                        "J(%d, %d) passes its battery, but phi_%d and phi_%d differ"
                        % (p, q, q - 1, q + 1))
                telescoped.add(q)
                telescoping = "verified"
            crosschecks.append(CrossCheck(p, q, telescoping))
    return BingReport(battery=battery, crosschecks=tuple(crosschecks), check_range=check_range)
