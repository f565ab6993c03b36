"""Factorization of integer and rational Laurent polynomials over Q.

The pipeline is the classical one: Yun's squarefree decomposition, then for
each squarefree part a Zassenhaus factorization -- reduce modulo a small odd
prime p chosen so the image stays squarefree, split the image into monic
irreducibles (distinct-degree then Cantor-Zassenhaus equal-degree splitting),
lift the modular factors with quadratic multifactor Hensel lifting past the
Mignotte coefficient bound, and recombine subsets by exact trial division
over Z.  Everything is deterministic: the equal-degree splitter draws from a
locally seeded generator.

factor_rational is the public entry point.  It takes a Laurent polynomial
with rational coefficients and returns (unit, factors) where unit is a
monomial times a rational and factors is a list of (primitive integer
polynomial, multiplicity) pairs with positive leading coefficients, sorted by
degree and then coefficient tuple, so that

    f == unit * prod(g ** m for g, m in factors)

holds exactly in the Laurent ring.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

from .errors import InternalInvariantError
from .laurent import LaurentPoly, _strip, as_laurent, dense_divmod
from .intpoly import IntPoly, divmod_exact, squarefree_decomposition

__all__ = ["factor_rational", "merge_factors"]


# -- dense arithmetic mod p (lists of ints in [0, p), ascending) ---------------

def _gf_from_int(f: IntPoly, p: int):
    return _strip([c % p for c in f.coeffs])


def _gf_to_int_sym(a, p: int) -> IntPoly:
    half = p // 2
    return IntPoly([c - p if c > half else c for c in a])


def _gf_add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _strip(out)


def _gf_sub(a, b, p):
    return _gf_add(a, [(-c) % p for c in b], p)


def _gf_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _strip(out)


def _gf_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError
    inv = pow(b[-1], p - 2, p)
    rem = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        c = rem[-1] * inv % p
        k = len(rem) - len(b)
        q[k] = c
        for j, y in enumerate(b):
            rem[k + j] = (rem[k + j] - c * y) % p
        rem.pop()
        _strip(rem)
    return _strip(q), rem


def _gf_monic(a, p):
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _gf_gcd(a, b, p):
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    return _gf_monic(a, p)


def _gf_gcdex(a, b, p):
    """(s, t) with s*a + t*b = 1 mod p; requires gcd(a, b) = 1."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_sub(s0, _gf_mul(q, s1, p), p)
        t0, t1 = t1, _gf_sub(t0, _gf_mul(q, t1, p), p)
    if len(r0) != 1:
        raise InternalInvariantError("gcdex arguments were not coprime mod p")
    inv = pow(r0[0], p - 2, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _gf_pow_mod(a, e, m, p):
    out = [1]
    base = _gf_divmod(a, m, p)[1]
    while e:
        if e & 1:
            out = _gf_divmod(_gf_mul(out, base, p), m, p)[1]
        base = _gf_divmod(_gf_mul(base, base, p), m, p)[1]
        e >>= 1
    return out


def _gf_deriv(a, p):
    return _strip([i * c % p for i, c in enumerate(a)][1:])


def _gf_is_squarefree(a, p):
    return len(_gf_gcd(a, _gf_deriv(a, p), p)) == 1


# -- factorization of a monic squarefree polynomial mod an odd prime ----------

def _gf_distinct_degree(f, p):
    """[(product of the irreducible factors of degree d, d)] for monic
    squarefree f."""
    out = []
    x = [0, 1]
    h = list(x)
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _gf_pow_mod(h, p, f, p)
        g = _gf_gcd(_gf_sub(h, x, p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = _gf_divmod(f, g, p)[0]
            h = _gf_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _gf_equal_degree(f, d, p, rng):
    """Split monic squarefree f, all of whose irreducible factors have degree
    d, into those factors (Cantor-Zassenhaus; p odd)."""
    out = []
    stack = [f]
    exponent = (p ** d - 1) // 2
    while stack:
        f = stack.pop()
        n = len(f) - 1
        if n == d:
            out.append(f)
            continue
        while True:
            a = _strip([rng.randrange(p) for _ in range(n)])
            if len(a) < 2:
                continue
            g = _gf_gcd(a, f, p)
            if 1 < len(g) < len(f):
                pass
            else:
                b = _gf_pow_mod(a, exponent, f, p)
                g = _gf_gcd(_gf_sub(b, [1], p), f, p)
                if not 1 < len(g) < len(f):
                    continue
            stack.append(g)
            stack.append(_gf_divmod(f, g, p)[0])
            break
    return out


# -- quadratic multifactor Hensel lifting --------------------------------------

def _trunc_sym(f: IntPoly, m: int) -> IntPoly:
    half = m // 2
    out = []
    for c in f.coeffs:
        c %= m
        if c > half:
            c -= m
        out.append(c)
    return IntPoly(out)


def _hensel_step(m, f, g, h, s, t):
    """One quadratic lift: from f = g h and s g + t h = 1 (mod m), with h
    monic, to the same congruences mod m^2."""
    M = m * m
    e = _trunc_sym(f - g * h, M)
    q, r = dense_divmod((s * e).coeffs, h.coeffs)
    q, r = _trunc_sym(IntPoly(q), M), _trunc_sym(IntPoly(r), M)
    G = _trunc_sym(g + t * e + q * g, M)
    H = _trunc_sym(h + r, M)
    b = _trunc_sym(s * G + t * H - IntPoly([1]), M)
    c, d = dense_divmod((s * b).coeffs, H.coeffs)
    c, d = _trunc_sym(IntPoly(c), M), _trunc_sym(IntPoly(d), M)
    S = _trunc_sym(s - d, M)
    T = _trunc_sym(t - t * b - c * G, M)
    return G, H, S, T


def _hensel_lift(p, f, f_list, l):
    """Lift monic factors f_list of f mod p (f = lc(f) prod f_list mod p) to
    factors mod p^l, symmetric representatives."""
    r = len(f_list)
    lc = f.lc
    if r == 1:
        inv = pow(lc, -1, p ** l)
        return [_trunc_sym(inv * f, p ** l)]
    m = p
    k = r // 2
    steps = (l - 1).bit_length()  # ceil(log2(l)) quadratic lifting steps
    g = [lc % p]
    for fi in f_list[:k]:
        g = _gf_mul(g, fi, p)
    h = [1]
    for fi in f_list[k:]:
        h = _gf_mul(h, fi, p)
    s, t = _gf_gcdex(g, h, p)
    g, h = _gf_to_int_sym(g, p), _gf_to_int_sym(h, p)
    s, t = _gf_to_int_sym(s, p), _gf_to_int_sym(t, p)
    for _ in range(steps):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift(p, g, f_list[:k], l) + _hensel_lift(p, h, f_list[k:], l)


# -- Zassenhaus ---------------------------------------------------------------

def _choose_prime(f: IntPoly):
    """Small odd primes keeping f squarefree; pick one with fewest modular
    factors (ties to the smaller prime), trying at most five candidates.
    Returns the prime, the factor count and the distinct-degree
    factorization of the monic image of f there."""
    best = None
    tried = 0
    p = 3
    while tried < 5:
        is_prime = all(p % q for q in range(3, math.isqrt(p) + 1, 2))
        if is_prime and f.lc % p:
            fp = _gf_monic(_gf_from_int(f, p), p)
            if _gf_is_squarefree(fp, p):
                tried += 1
                ddf = _gf_distinct_degree(fp, p)
                count = sum((len(g) - 1) // d for g, d in ddf)
                # keep the best image only, so one DDF is held at a time
                if best is None or count < best[1]:
                    best = p, count, ddf
        p += 2
    return best


def _zassenhaus(f: IntPoly):
    """Irreducible factors over Q of a primitive squarefree f, deg f >= 1,
    lc f > 0.  Returned factors are primitive with positive leading
    coefficients; their product is f.

    f must be squarefree, which is not checked: _choose_prime looks for
    primes that keep f squarefree, and for f with a square factor there is
    none, so the search never ends.  factor_rational passes only the
    squarefree parts of Yun's decomposition."""
    n = f.degree
    if n == 1:
        return [f]
    A = max(abs(c) for c in f.coeffs)
    b = f.lc
    sq = math.isqrt(n + 1)
    if sq * sq < n + 1:
        sq += 1
    B = sq * 2 ** n * A * b
    p, count, ddf = _choose_prime(f)
    if count == 1:
        return [f]
    rng = random.Random(p * 0x9E3779B1 + n)
    f_list = [h for g, d in ddf for h in _gf_equal_degree(g, d, p, rng)]
    l = 1
    while p ** l <= 2 * B:
        l += 1
    g_list = _hensel_lift(p, f, f_list, l)
    pl = p ** l
    T = list(range(len(g_list)))
    factors = []
    s = 1
    while 2 * s <= len(T):
        found = False
        for S in combinations(T, s):
            G = IntPoly([b])
            for i in S:
                G = _trunc_sym(G * g_list[i], pl)
            G = G.primitive()
            try:
                q = divmod_exact(f, G)
            except ValueError:
                continue
            factors.append(G)
            f = q
            b = f.lc
            T = [i for i in T if i not in S]
            found = True
            break
        if not found:
            s += 1
    if f.degree > 0:
        factors.append(f.primitive())
    return factors


def _factor_key(gm):
    return gm[0].degree, gm[0].coeffs


def merge_factors(*lists):
    """The factor list of a product, given its factors' lists as
    factor_rational gives them: the multiplicities of equal factors add,
    and the result is sorted as factor_rational sorts, so it equals
    factor_rational(product)[1].

    >>> a = factor_rational(LaurentPoly.from_coeffs([-1, 0, 1]))[1]
    >>> b = factor_rational(LaurentPoly.from_coeffs([1, 1]))[1]
    >>> print("; ".join(f"({g})^{m}" for g, m in merge_factors(a, b)))
    (t - 1)^1; (t + 1)^2
    """
    total = {}
    for factors in lists:
        for g, m in factors:
            total[g] = total.get(g, 0) + m
    return sorted(total.items(), key=_factor_key)


def factor_rational(f):
    """Factor a rational Laurent polynomial (or IntPoly, or a number) over Q.

    Returns (unit, factors): unit is a LaurentPoly of the form (rational) *
    t^k, factors a sorted list of (irreducible primitive IntPoly with positive
    leading coefficient, multiplicity), with f == unit * prod g^m exactly.

    >>> unit, fs = factor_rational(LaurentPoly.from_coeffs([2, -5, 2], -1))
    >>> print(unit, "|", "; ".join(f"({g})^{m}" for g, m in fs))
    t^-1 | (t - 2)^1; (2t - 1)^1
    """
    f = f.to_laurent() if isinstance(f, IntPoly) else as_laurent(f)
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    shift = f.min_exp
    content = f.content()
    coeffs, _ = f.coeff_list()
    ints = [int(c / content) for c in coeffs]
    F = IntPoly(ints)
    sign = 1
    if F.lc < 0:
        sign = -1
        F = -F
    unit = LaurentPoly({shift: sign * content})
    factors = []
    for part, mult in squarefree_decomposition(F):
        for g in _zassenhaus(part):
            factors.append((g, mult))
    factors.sort(key=_factor_key)
    check = unit
    for g, m in factors:
        check = check * g.to_laurent() ** m
    if check != f:
        raise InternalInvariantError("factorization failed to reconstruct input")
    return unit, factors
