"""Factorization of integer and rational Laurent polynomials over Q.

The pipeline is the classical one.  The squarefree part of f gets a
Zassenhaus factorization: reduce modulo a small odd prime p chosen so the
image stays squarefree, split the image into monic irreducibles
(distinct-degree then Cantor-Zassenhaus equal-degree splitting), lift the
modular factors with quadratic multifactor Hensel lifting past the
Mignotte coefficient bound, and recombine subsets by exact trial division
over Z.  Each factor's multiplicity is the number of times it divides f.
Everything is deterministic: the equal-degree splitter draws from a
locally seeded generator.  The degrees that the distinct-degree
factorizations modulo several primes allow are intersected first (Musser,
J. ACM 25, 1978): when only 0 and deg f are left, f is irreducible and
nothing is split or lifted, and recombination tries only subsets of an
allowed degree.

Arithmetic mod p runs on lists of ints.  A product is Kronecker-packed:
each list becomes one int with a 64-bit slot per coefficient, one big-int
product gives every coefficient at once, and each is reduced mod p once.
Powers modulo a monic m of degree n reduce each product with a table of
the packed x^j mod m, j = n .. 2n - 2, built once per modulus.

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
import struct
from itertools import combinations

from .errors import InternalInvariantError
from .laurent import LaurentPoly, _strip, as_laurent, dense_pseudo_divmod
from .intpoly import IntPoly, divmod_exact, squarefree_part

__all__ = ["factor_rational", "merge_factors"]


# -- dense arithmetic mod p (lists of ints in [0, p), ascending) ---------------

def _gf_from_int(f: IntPoly, p: int):
    return _strip([c % p for c in f.coeffs])


def _gf_sub(a, b, p):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _strip(out)


def _pack(a) -> int:
    """The int with a's entries in its 64-bit slots, entry i in bits
    64 i to 64 i + 63."""
    return int.from_bytes(struct.pack("<%dQ" % len(a), *a), "little")


def _slots(x: int, n: int) -> tuple:
    """The n low 64-bit slots of x, low first; x < 2^(64 n)."""
    return struct.unpack("<%dQ" % n, x.to_bytes(8 * n, "little"))


def _gf_mul(a, b, p):
    """The product mod p, Kronecker-packed: one big-int product gives every
    coefficient, each reduced mod p once.  A slot holds each coefficient
    of the product over Z while min(len a, len b) (p - 1)^2 < 2^64, which
    _choose_prime checks for its primes."""
    if not a or not b:
        return []
    return _strip([c % p for c in _slots(_pack(a) * _pack(b), len(a) + len(b) - 1)])


def _gf_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError
    inv = pow(b[-1], p - 2, p)
    n = len(b) - 1
    rem = list(a)
    q = [0] * max(len(a) - n, 0)
    # each digit is reduced when it is read, each remainder entry at the end
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + n] % p * inv % p
        if c:
            q[k] = c
            for j in range(n):
                rem[k + j] -= c * b[j]
    return _strip(q), _strip([c % p for c in rem[:n]])


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


def _gf_modulus(m, p) -> tuple:
    """What _gf_mulmod reads to reduce modulo the monic m of degree n >= 1,
    built once per modulus: n, the mask of n slots, and x^j mod m for
    j = n .. 2n - 2, packed (x^n = -(m - x^n), then one shift and one
    subtraction of m per power)."""
    n = len(m) - 1
    power = [(-c) % p for c in m[:n]]
    table = []
    for _ in range(n - 1):
        table.append(_pack(power))
        top = power[-1]
        power = [0] + power[:-1]
        if top:
            power = [(x - top * y) % p for x, y in zip(power, m)]
    return n, (1 << 64 * n) - 1, table


def _gf_mulmod(a, b, modulus, p):
    """a b mod the monic m, for a and b reduced mod m; modulus is
    _gf_modulus(m, p).  The packed product's slots from n up each add
    their multiple of the packed x^j mod m to its low n slots, so each
    coefficient is reduced mod p once.  A slot holds every sum while
    2 (n + 1) (p - 1)^2 < 2^64, which _choose_prime checks."""
    n, mask, table = modulus
    packed = _pack(a)
    product = packed * packed if a is b else packed * _pack(b)
    k = len(a) + len(b) - 1
    if k <= n:
        return _strip([c % p for c in _slots(product, k)])
    total = product & mask
    for c, power in zip(_slots(product >> 64 * n, k - n), table):
        c %= p
        if c:
            total += c * power
    return _strip([c % p for c in _slots(total, n)])


def _gf_pow_mod(a, e, modulus, p):
    """a^e mod the monic m, for a reduced mod m and e >= 1; modulus is
    _gf_modulus(m, p), built once per modulus by the caller."""
    out = [1]
    while True:
        if e & 1:
            out = _gf_mulmod(out, a, modulus, p)
        e >>= 1
        if not e:
            return out
        a = _gf_mulmod(a, a, modulus, p)


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
    modulus = _gf_modulus(f, p)
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _gf_pow_mod(h, p, modulus, p)
        g = _gf_gcd(_gf_sub(h, x, p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = _gf_divmod(f, g, p)[0]
            h = _gf_divmod(h, f, p)[1]
            modulus = _gf_modulus(f, p)
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
        modulus = _gf_modulus(f, p)
        while True:
            a = _strip([rng.randrange(p) for _ in range(n)])
            if len(a) < 2:
                continue
            g = _gf_gcd(a, f, p)
            if 1 < len(g) < len(f):
                pass
            else:
                b = _gf_pow_mod(a, exponent, modulus, p)
                g = _gf_gcd(_gf_sub(b, [1], p), f, p)
                if not 1 < len(g) < len(f):
                    continue
            stack.append(g)
            stack.append(_gf_divmod(f, g, p)[0])
            break
    return out


# -- quadratic multifactor Hensel lifting --------------------------------------

def _trunc_sym(f: IntPoly, m: int) -> IntPoly:
    """f with its coefficients reduced mod m into (-m/2, m/2]."""
    return IntPoly([c % m - m if c % m > m // 2 else c % m for c in f.coeffs])


def _hensel_step(m, f, g, h, s, t):
    """One quadratic lift: from f = g h and s g + t h = 1 (mod m), with h
    monic, to the same congruences mod m^2.  h and H are monic, so
    pseudo-division by them is division in Z[t]."""
    M = m * m
    e = _trunc_sym(f - g * h, M)
    q, r = dense_pseudo_divmod((s * e).coeffs, h.coeffs)
    q, r = _trunc_sym(IntPoly(q), M), _trunc_sym(IntPoly(r), M)
    G = _trunc_sym(g + t * e + q * g, M)
    H = _trunc_sym(h + r, M)
    b = _trunc_sym(s * G + t * H - IntPoly([1]), M)
    c, d = dense_pseudo_divmod((s * b).coeffs, H.coeffs)
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
    g, h, s, t = (_trunc_sym(IntPoly(a), p) for a in (g, h, s, t))
    for _ in range(steps):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift(p, g, f_list[:k], l) + _hensel_lift(p, h, f_list[k:], l)


# -- Zassenhaus ---------------------------------------------------------------

def _choose_prime(f: IntPoly):
    """The degrees a factor of f over Q can have, and a prime to lift from.

    Each small odd prime p that keeps f squarefree, five at most, gives the
    degrees of f's irreducible factors mod p (distinct-degree
    factorization).  A factor of f over Q is a product of some of them mod
    p, so its degree is a subset sum of theirs.  The sums are a bitmask,
    intersected over the primes.  Returns None as soon as only 0 and deg f
    are left: f is irreducible.  Else returns (p, ddf, mask): the prime
    with the fewest modular factors (ties to the smaller), the
    distinct-degree factorization of f's monic image there, and the
    intersected mask."""
    n = f.degree
    irreducible = 1 | 1 << n
    mask = (1 << (n + 1)) - 1
    best = None
    tried = 0
    p = 3
    while tried < 5:
        is_prime = all(p % q for q in range(3, math.isqrt(p) + 1, 2))
        if is_prime and f.lc % p:
            fp = _gf_monic(_gf_from_int(f, p), p)
            if _gf_is_squarefree(fp, p):
                if 2 * (n + 1) * (p - 1) ** 2 >> 64:
                    raise InternalInvariantError("products mod %d overflow a 64-bit slot" % p)
                tried += 1
                ddf = _gf_distinct_degree(fp, p)
                sums, count = 1, 0
                for g, d in ddf:
                    for _ in range((len(g) - 1) // d):
                        sums |= sums << d
                        count += 1
                mask &= sums
                if mask == irreducible:
                    return None
                # keep the best image only, so one DDF is held at a time
                if best is None or count < best[1]:
                    best = p, count, ddf
        p += 2
    return best[0], best[2], mask


def _zassenhaus(f: IntPoly):
    """Irreducible factors over Q of a primitive squarefree f, deg f >= 1,
    lc f > 0.  Returned factors are primitive with positive leading
    coefficients; their product is f.

    f must be squarefree, which is not checked: _choose_prime looks for
    primes that keep f squarefree, and for f with a square factor there is
    none, so the search never ends.  factor_rational passes only a
    squarefree part (intpoly.squarefree_part).  A subset of the lifted
    factors is tried only when its degree is one the primes allow.  A
    quadratic splits iff its discriminant is a square, into the factors of
    its roots (-b +- r) / 2a."""
    n = f.degree
    if n == 1:
        return [f]
    if n == 2:
        c, b, a = f.coeffs
        r = math.isqrt(max(b * b - 4 * a * c, 0))
        if r * r != b * b - 4 * a * c:
            return [f]
        return [IntPoly([b - r, 2 * a]).primitive(), IntPoly([b + r, 2 * a]).primitive()]
    A = max(abs(c) for c in f.coeffs)
    b = f.lc
    sq = math.isqrt(n + 1)
    if sq * sq < n + 1:
        sq += 1
    B = sq * 2 ** n * A * b
    chosen = _choose_prime(f)
    if chosen is None:
        return [f]
    p, ddf, mask = chosen
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
            if not mask >> sum(g_list[i].degree for i in S) & 1:
                continue
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


def _divide_out(f: IntPoly, g: IntPoly) -> tuple:
    """(f / g^m, m) for the largest m with g^m dividing f in Z[t]."""
    m = 0
    while True:
        try:
            f = divmod_exact(f, g)
        except ValueError:
            return f, m
        m += 1


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
    content, ints, shift = f.split_content()
    F = IntPoly(ints)
    sign = 1
    if F.lc < 0:
        sign = -1
        F = -F
    unit = LaurentPoly({shift: sign * content})
    factors = []
    if F.degree > 0:
        rest = F
        for g in _zassenhaus(squarefree_part(F)):
            rest, mult = _divide_out(rest, g)
            factors.append((g, mult))
    factors.sort(key=_factor_key)
    product = IntPoly([1])
    for g, m in factors:
        product = product * g ** m
    if LaurentPoly.from_coeffs([sign * content * c for c in product.coeffs], shift) != f:
        raise InternalInvariantError("factorization failed to reconstruct input")
    return unit, factors
