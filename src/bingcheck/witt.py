"""Witt presentations over the Laurent ring and the Bing-double obstruction
pipeline.

A Witt presentation is a square Laurent-polynomial matrix B with nonzero
determinant that is Hermitian for the involution t -> 1/t (B(t)^T = B(1/t)
entrywise), together with a coefficient-ring flag, Z (integral) or Q, its
order det B (up to units) and the order's factor list.  The presentation of
a knot is B(t) = (1 - t) A + (1 - 1/t) A^T for a Seifert matrix A.

The maps phi_n substitute t -> t^n; they are additive with respect to block
sum.  The infection construction J(p, q) of a pattern on a companion K has
Witt class phi_p W(K) + phi_{p+q} W(K) + phi_q W(K), realized here as the
block sum of the three substituted presentations.  Each presentation
carries these parts, so its signature function is pulled back from the
knot's own (sigfunc.pullback_signature_function).

The obstruction battery collects necessary conditions for algebraic
sliceness -- Fox-Milnor factorization, vanishing signature function, Arf
invariant, squareness of the determinant -- and reports the first failing
one as its certificate.  A failing battery on K certifies that the Bing
double B(K) is not slice, since a knot whose Bing double is slice must be
algebraically slice.  NO_OBSTRUCTION_FOUND never claims sliceness.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .errors import AdmissibilityError, InternalInvariantError
from .laurent import LaurentPoly
from .intpoly import IntPoly, cyclotomic, cyclotomic_order
from .factor import factor_rational, merge_factors
from .matrices import ExactMatrix
from .fields import cayley_point, evaluated_hermitian_signature
from .sigfunc import (
    SignatureFunction,
    pullback_signature_function,
    same_step_function,
    signature_function_of_matrix,
)
from .seifert import (
    SeifertMatrix,
    _arf_and_determinant,
    alexander,
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


class WittPresentation:
    """Hermitian Laurent presentation with a coefficient-ring flag, its
    order, the factor list of its order and its parts.  Only from_seifert,
    phi, witt_sum and jpq_presentation build one, each deriving the order
    and its factors with no det, so the constructor stores and checks
    nothing.  The class stays exported for type use.

    The parts are (base, k) pairs: the presentation is the block sum of
    phi_k(base) over them, in order, each base a from_seifert presentation,
    whose own parts are ((base, 1),).  presentation_battery reads the
    signature function off the bases' functions through them."""

    __slots__ = ("_b", "_ring", "_order", "_factors", "_parts")

    def __init__(self, b: ExactMatrix, ring: str, order: LaurentPoly, factors: list,
                 parts: tuple = None):
        self._b, self._ring, self._order, self._factors = b, ring, order, factors
        self._parts = ((self, 1),) if parts is None else parts

    @property
    def matrix(self) -> ExactMatrix:
        return self._b

    @property
    def ring(self) -> str:
        return self._ring

    @property
    def size(self) -> int:
        return self._b.rows

    def order(self) -> LaurentPoly:
        """Normalized determinant: the order of the presented torsion module
        (up to units)."""
        return self._order

    def factors(self) -> list:
        """The order's irreducible factors with multiplicities, exactly as
        factor_rational(self.order())[1] lists them."""
        return self._factors

    @property
    def parts(self) -> tuple:
        """(base, k) pairs: the presentation is the block sum of the
        phi_k(base); a from_seifert presentation is its own base, k = 1."""
        return self._parts

    def __eq__(self, other):
        if not isinstance(other, WittPresentation):
            return NotImplemented
        return self._b == other._b and self._ring == other._ring

    def __hash__(self):
        return hash((self._b, self._ring))

    def __repr__(self):
        return "WittPresentation(size=%d, ring=%s)" % (self.size, self._ring)


def from_seifert(s: SeifertMatrix) -> WittPresentation:
    """B(t) = (1 - t) A + (1 - 1/t) A^T with ring Z (integral) or Q.  For
    even size n, det B = (1 - t)^n t^-n Delta: the order is (t - 1)^n Delta
    and its factors are Delta's with (t - 1, n) added.

    >>> str(from_seifert(SeifertMatrix([[-1, 1], [0, -1]])).order())
    't^4 - 3t^3 + 4t^2 - 3t + 1'
    """
    delta = alexander(s)
    return _knot_presentation(s, delta, factor_rational(delta)[1])


def _knot_presentation(s: SeifertMatrix, delta: LaurentPoly, factors) -> WittPresentation:
    """from_seifert(s), given Delta = alexander(s) and its factor list."""
    n, t_minus_one = s.size, IntPoly([-1, 1])
    return WittPresentation(
        s.seifert_form(), "Z" if s.integral else "Q", t_minus_one.to_laurent() ** n * delta,
        merge_factors(factors, [(t_minus_one, n)] if n else []),
    )


def phi(p: WittPresentation, n: int) -> WittPresentation:
    """Substitute t -> t^n (n >= 1).  Additive, preserves Hermitian-ness;
    the order becomes the substituted order up to units, and each part
    (base, k) becomes (base, k n).

    The factor list is derived, not recomputed from the order: each
    irreducible factor g of multiplicity m contributes the factors of
    g(t^n), with multiplicities scaled by m.  Distinct irreducible g have
    no common root, so neither do their g(t^n), and the product of degree
    n * deg(order) is never factored."""
    if n < 1:
        raise ValueError("phi needs n >= 1")
    if n == 1:
        return p
    factors = merge_factors(*(
        [(h, m * k) for h, k in _substituted_factors(g, n)] for g, m in p.factors()
    ))
    return WittPresentation(
        p.matrix.substitute_power(n), p.ring, p.order().substitute_power(n), factors,
        tuple((base, k * n) for base, k in p.parts),
    )


def _substituted_factors(g: IntPoly, n: int):
    """factor_rational(g(t^n))[1] for an irreducible g.

    A cyclotomic g = Phi_d is not factored: with n = n1 n2, every prime of
    n1 dividing d and n2 prime to d, Phi_d(t^n1) = Phi_(d n1), and
    Phi_(d n1)(t^n2) is the product of the Phi_(d n1 e) over e | n2."""
    d = cyclotomic_order(g)
    if d is None:
        return factor_rational(g.to_laurent().substitute_power(n))[1]
    n1, n2 = 1, n
    while (c := gcd(n2, d)) > 1:
        n1, n2 = n1 * c, n2 // c
    return merge_factors([(cyclotomic(d * n1 * e), 1) for e in range(1, n2 + 1) if n2 % e == 0])


def witt_sum(p1: WittPresentation, p2: WittPresentation) -> WittPresentation:
    """Block sum; realizes addition of Witt classes.  The ring flag is Q
    if either summand's is.  The order is the product of the orders, and
    its factor list merges the summands' lists (equal primitive factors add
    their multiplicities), with no factorization.  The parts are p1's
    followed by p2's."""
    ring = "Q" if "Q" in (p1.ring, p2.ring) else "Z"
    return WittPresentation(
        p1.matrix.block_sum(p2.matrix), ring, p1.order() * p2.order(),
        merge_factors(p1.factors(), p2.factors()), p1.parts + p2.parts,
    )


def jpq_presentation(s: SeifertMatrix, p: int, q: int) -> WittPresentation:
    """Presentation of the infection J(p, q) on companion S:
    phi_p + phi_{p+q} + phi_q of the knot's presentation."""
    return _jpq(_phis_of(from_seifert(s)), p, q)


def _phis_of(base: WittPresentation):
    """k -> phi_k(base), each built once, so that each g(t^k) is factored
    once however often k recurs."""
    phis = {1: base}

    def phi_of(k):
        if k not in phis:
            phis[k] = phi(base, k)
        return phis[k]

    return phi_of


def _jpq(phi_of, p: int, q: int) -> WittPresentation:
    """phi_p + phi_{p+q} + phi_q of the companion's presentation, with
    phi_of(k) giving phi_k of it."""
    if p < 1 or q < 1:
        raise ValueError("J(p, q) needs p, q >= 1")
    return witt_sum(phi_of(p), witt_sum(phi_of(p + q), phi_of(q)))


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


@dataclass(frozen=True)
class ObstructionReport:
    """Outcome of the algebraic-sliceness battery on one knot/presentation.

    `arf` and `determinant` are None when not applicable (rational-class
    input, or a bare presentation with no Seifert matrix behind it).
    `factors` is factor_rational's list of `alexander`, read by every test."""

    name: str
    ring: str
    alexander: LaurentPoly
    factors: tuple
    fox_milnor: FoxMilnorResult
    signature: SignatureFunction
    arf: int | None
    determinant: int | None
    cyclotomic: tuple
    verdict: str
    certificate: str | None

    @property
    def determinant_is_square(self):
        if self.determinant is None:
            return None
        r = isqrt(self.determinant)
        return r * r == self.determinant

    def __post_init__(self):
        if self.verdict == NOT_ALG_SLICE and self.certificate is None:
            raise InternalInvariantError("an obstruction verdict needs a certificate")
        if self.verdict == NO_OBSTRUCTION_FOUND and self.certificate is not None:
            raise InternalInvariantError("no certificate without an obstruction")


def _assemble_report(name, ring, order, factors, sigfn, arf_value,
                     det_value) -> ObstructionReport:
    """The battery on `order` and the signature function `sigfn` of a
    presentation whose det is order times +-t^k (t - 1)^m.  `factors` is
    factor_rational(order)[1], which the caller already holds; t - 1 has no
    root on the open arc, so that one list serves every test that reads
    factors."""
    fm = fox_milnor(order, factors)
    failures = {
        "fox_milnor": not fm.passes,
        "signature_function": not sigfn.is_zero,
        "arf": arf_value is not None and arf_value != 0,
        "determinant_square": (
            det_value is not None and isqrt(det_value) ** 2 != det_value
        ),
    }
    certificate = next((k for k in _CERTIFICATE_ORDER if failures[k]), None)
    return ObstructionReport(
        name=name,
        ring=ring,
        alexander=order,
        factors=tuple(factors),
        fox_milnor=fm,
        signature=sigfn,
        arf=arf_value,
        determinant=det_value,
        cyclotomic=tuple(cyclotomic_factors(factors)),
        verdict=NOT_ALG_SLICE if certificate else NO_OBSTRUCTION_FOUND,
        certificate=certificate,
    )


def obstruction_battery(s: SeifertMatrix) -> ObstructionReport:
    """Run every implemented necessary condition for algebraic sliceness on
    a Seifert matrix; deterministic, with the first failing test (in the
    order Fox-Milnor, signature function, Arf, determinant-square) as the
    certificate."""
    arf_value, det_value = _arf_and_determinant(s) if s.integral else (None, None)
    delta = alexander(s)
    factors = factor_rational(delta)[1]
    return _assemble_report(
        s.name or "(unnamed)",
        "Z" if s.integral else "Q",
        delta,
        factors,
        signature_function_of_matrix(s.seifert_form(), factors),
        arf_value,
        det_value,
    )


def _signature_function(p: WittPresentation, functions: dict) -> SignatureFunction:
    """p's signature function, pulled back from its bases' functions; a
    base missing from `functions` gets its own by the matrix path, added
    there."""
    for base, _ in p.parts:
        if base not in functions:
            functions[base] = signature_function_of_matrix(base.matrix, base.factors())
    return pullback_signature_function(
        [(base.matrix, base.factors(), functions[base], k) for base, k in p.parts],
        p.factors(),
    )


def presentation_battery(p: WittPresentation, name: str = "(presentation)",
                         functions: dict = None) -> ObstructionReport:
    """The battery applied to a bare presentation: the order det(B) takes
    the Alexander polynomial's role, Arf and determinant do not apply.  The
    presentation carries its order's factor list, so nothing is factored.

    The signature function is pulled back from the bases' own functions
    (sigfunc.pullback_signature_function): only a base's 2g x 2g form is
    evaluated or reduced over a factor field, never p's matrix.
    `functions` maps a base to its signature function; the bases it lacks
    are added to it, so batteries that share one dict build each base's
    function once."""
    sigfn = _signature_function(p, {} if functions is None else functions)
    return _assemble_report(name, p.ring, p.order(), p.factors(), sigfn, None, None)


@dataclass(frozen=True)
class CrossCheck:
    """Consistency results for one (p, q) pair: the signature additivity of
    J(p, q), checked at every arc sample of its signature function, and the
    telescoping comparison phi_{q-1} ~ phi_{q+1} (verified / violated /
    skipped)."""

    p: int
    q: int
    additivity: str  # always "pass": a mismatch at any arc sample raises
    telescoping: str  # "verified" | "violated" | "skipped"


def _additive_j_battery(phi_of, functions, p: int, q: int) -> ObstructionReport:
    """The battery of J(p, q), with its signature additivity checked at its
    own arc samples.  The battery pulls each arc value back from the
    companion's function, as the sum of its values at D_k(u), k = p, p + q,
    q; at each sample omega = cayley_point(s) that sum must equal the
    signature of J's own matrix, evaluated in Q(i), with J(omega)
    nonsingular."""
    j = _jpq(phi_of, p, q)
    report = presentation_battery(j, functions=functions)
    for arc in report.signature.arcs:
        if evaluated_hermitian_signature(j.matrix, cayley_point(arc.sample_angle)) \
                != (arc.signature, 0):
            raise InternalInvariantError(
                "J(%d, %d) signature additivity failed at s = %s" % (p, q, arc.sample_angle)
            )
    return report


@dataclass(frozen=True)
class BingReport:
    """Verdict about the Bing double B(K): the battery on K, the conclusion
    it supports, the Arf side-certificate, and the machinery cross-checks."""

    battery: ObstructionReport
    conclusion: str | None
    arf_certificate: bool
    crosschecks: tuple
    check_range: int
    verdict: str
    certificate: str | None


def bing_double_verdict(s: SeifertMatrix, check_range: int = 3) -> BingReport:
    """Decide what the implemented obstructions say about the Bing double
    of the knot with Seifert matrix `s` (integral required).

    The battery gives the primary verdict: any failing necessary condition
    for algebraic sliceness certifies that B(K) is not slice (a knot with
    slice Bing double is algebraically slice).  Arf(K) = 1 is reported as an
    independent secondary certificate.  For 1 <= p, q <= check_range the
    J(p, q) signature additivity and, when the J(p, q) battery is wholly
    zero, the telescoping identity phi_{q-1} ~ phi_{q+1} are verified; a
    telescoping violation is itself an obstruction certificate.

    J(p, q) is built and its battery run once per unordered pair {p, q}.
    Every signature function but K's own is pulled back from K's, which is
    the battery's (battery.signature): only K's 2g x 2g form goes through
    the matrix path.  Additivity is checked at each J battery's own arc
    samples: at each Cayley point omega the pulled-back arc value must
    equal the signature of J's matrix at omega, evaluated in Q(i).  The
    telescoping functions phi_k are pulled back too; phi_0 is the zero
    pairing, whose function vanishes identically.  K's presentation reuses
    the battery's Delta and its factors: one Alexander det, one factoring.
    """
    if not s.integral:
        raise AdmissibilityError("the Bing-double verdict needs an integral Seifert matrix")
    if check_range < 1:
        raise ValueError("cross-check range must be >= 1")
    battery = obstruction_battery(s)
    base = _knot_presentation(s, battery.alexander, battery.factors)
    # every function below is pulled back from the battery's, K's own
    functions = {base: battery.signature}
    # the J(p, q) block sums and the telescoping check read one phi_k each
    phi_of = _phis_of(base)
    # signature function of phi_k(base) by k, each built once; B(1) = 0 makes
    # phi_0 the zero pairing, whose function vanishes identically
    phi_functions = {0: pullback_signature_function((), []), 1: battery.signature}

    def phi_function(k):
        if k not in phi_functions:
            phi_functions[k] = _signature_function(phi_of(k), functions)
        return phi_functions[k]

    crosschecks = []
    telescoping_of = {}  # q -> telescoping result, which does not depend on p
    # J(p, q) and J(q, p) block-sum the same three phi_k in another order and
    # give the same report: one J and one battery per unordered pair
    j_battery_of = {}
    for p in range(1, check_range + 1):
        for q in range(1, check_range + 1):
            pair = (min(p, q), max(p, q))
            if pair not in j_battery_of:
                j_battery_of[pair] = _additive_j_battery(phi_of, functions, *pair)
            j_battery = j_battery_of[pair]
            if j_battery.verdict == NO_OBSTRUCTION_FOUND and j_battery.signature.is_zero:
                if q not in telescoping_of:
                    same = same_step_function(phi_function(q - 1), phi_function(q + 1))
                    telescoping_of[q] = "verified" if same else "violated"
                telescoping = telescoping_of[q]
            else:
                telescoping = "skipped"
            crosschecks.append(CrossCheck(p, q, "pass", telescoping))

    verdict = battery.verdict
    certificate = battery.certificate
    telescoping_violation = any(c.telescoping == "violated" for c in crosschecks)
    if verdict == NO_OBSTRUCTION_FOUND and telescoping_violation:
        verdict = NOT_ALG_SLICE
        certificate = "telescoping"
    conclusion = "B(K) is not slice" if verdict == NOT_ALG_SLICE else None
    return BingReport(
        battery=battery,
        conclusion=conclusion,
        arf_certificate=(battery.arf == 1),
        crosschecks=tuple(crosschecks),
        check_range=check_range,
        verdict=verdict,
        certificate=certificate,
    )
