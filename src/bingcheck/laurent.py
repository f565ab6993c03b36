"""Exact Laurent polynomials in one variable over the rationals.

A Laurent polynomial is a finite sum of terms c * t^k with k any integer
(negative exponents allowed) and c a nonzero rational.  Terms are stored as an
exponent -> coefficient mapping with no zero coefficients; the zero polynomial
is the empty mapping.  Stored coefficients are fractions.Fraction throughout,
so all arithmetic is exact; nothing in this module touches floating point.

Products run on dense coefficient lists (dense_mul) in which integral
coefficients are Python ints, so an integer Laurent product builds no
Fraction until it is stored.  Division runs in Z[t] on int lists only, in
two kernels, and nothing divides digit by digit over Q:

  * dense_exact_div, the exact quotient, which stops at the first digit
    that is not an integer: Bareiss determinants, trial division in
    factoring, and LaurentPoly.exact_div on the primitive parts (Gauss's
    lemma);
  * dense_pseudo_divmod, pseudo-division lc^e num = quot den + rem with e
    fixed by the lengths: every remainder of the package -- resultants and
    remainder sequences, reduction and inverses in a quotient field, ranks
    over a factor field, Hensel lifting, the order of t modulo f.

dense_cross (a b - c d) is the cross-multiplication of fraction-free
elimination.

Units of Z[t, 1/t] are +-t^k.  normalize_unit picks the canonical associate:
minimum exponent 0 and positive coefficient there.

Textual syntax (round-trips through parse_poly / str): terms like
``t^-2 - 3 + t^2`` or ``2t^2 - 5t + 2``; coefficients are integers or
fractions ``a/b``; ``*`` between coefficient and ``t`` is optional.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import ParseError

__all__ = [
    "Fraction",
    "LaurentPoly",
    "T",
    "as_fraction",
    "as_laurent",
    "dense_cross",
    "dense_exact_div",
    "dense_mul",
    "dense_pseudo_divmod",
    "normalize_unit",
    "parse_poly",
]


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction, or numeric string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _strip(c):
    """Drop the trailing zeros of a dense coefficient list in place; return it."""
    while c and c[-1] == 0:
        c.pop()
    return c


def dense_mul(a, b):
    """Product of dense ascending coefficient lists over Q.

    Entries may be ints or Fractions, and integer input keeps integer
    entries.  The product of two lists without trailing zeros has none.

    >>> dense_mul([1, 1], [-1, 1])               # (1 + t)(t - 1) = t^2 - 1
    [-1, 0, 1]
    """
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def dense_cross(a, b, c, d):
    """a b - c d for dense ascending coefficient lists, without trailing
    zeros: the cross-multiplication of fraction-free elimination.

    >>> dense_cross([1, 1], [1, 1], [0, 1], [0, 1])   # (1 + t)^2 - t^2
    [1, 2]
    """
    out = [0] * (max(len(a) + len(b), len(c) + len(d)) - 1)
    if b:
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
    if d:
        for i, x in enumerate(c):
            if x:
                for j, y in enumerate(d):
                    out[i + j] -= x * y
    return _strip(out)


def dense_exact_div(num, den):
    """The quotient of dense ascending int lists that divide exactly in Z[t].

    Runs in ints only: raises ValueError at the first quotient digit that
    is not an integer, or on a nonzero remainder, and ZeroDivisionError on
    an empty den.  den must end in a nonzero entry.

    >>> dense_exact_div([-1, 0, 0, 1], [-1, 1])
    [1, 1, 1]
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(den) - 1
    lc = den[-1]
    rem = list(num)
    quot = [0] * max(len(rem) - n, 0)
    for k in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem[k + n], lc)
        if r:
            raise ValueError("division is not exact")
        if q:
            quot[k] = q
            for j in range(n):
                rem[k + j] -= q * den[j]
    if any(rem[:n]):
        raise ValueError("division is not exact")
    return _strip(quot)


def dense_pseudo_divmod(num, den):
    """Pseudo-division of dense ascending int lists (Knuth, TAOCP vol. 2,
    4.6.1, Algorithm R): (quot, rem) with lc^e num = quot den + rem and
    len(rem) < len(den), both without trailing zeros, for lc the last entry
    of den and e = len(num) - len(den) + 1 (0 if num is shorter).

    Each step multiplies what is left of num by lc and takes off a multiple
    a t^k den, so a's quotient digit is a lc^k, written once.  A monic den
    scales nothing: the result is division in Z[t].  den must end in a
    nonzero entry; an empty den raises ZeroDivisionError.

    >>> dense_pseudo_divmod([1, 0, 1], [1, 2])    # 4(t^2 + 1) = (2t - 1)(2t + 1) + 5
    ([-1, 2], [5])
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(den) - 1
    lc = den[-1]
    rem = list(num)
    quot = [0] * max(len(rem) - n, 0)
    for k in range(len(quot) - 1, -1, -1):
        a = rem.pop()
        if lc != 1:
            rem = [lc * x for x in rem]
        if a:
            quot[k] = a * lc**k
            for j in range(n):
                rem[k + j] -= a * den[j]
    return _strip(quot), _strip(rem)


class LaurentPoly:
    """Immutable exact Laurent polynomial over Q."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, c in terms.items():
                c = as_fraction(c)
                if c:
                    clean[int(k)] = c
        self._terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def from_coeffs(cls, coeffs, min_exp=0) -> "LaurentPoly":
        """Build from a dense ascending coefficient list starting at min_exp."""
        out = cls.__new__(cls)
        out._terms = {min_exp + i: f for i, c in enumerate(coeffs) if (f := as_fraction(c))}
        out._hash = None
        return out

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, exp) -> Fraction:
        return self._terms.get(exp, Fraction(0))

    def items(self):
        return sorted(self._terms.items())

    @property
    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    @property
    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    def coeff_list(self):
        """Dense ascending coefficients from min_exp, plus min_exp itself.

        Integral coefficients, and the zeros between terms, are ints; the
        others are Fractions.  This is the input of dense_mul."""
        lo, hi = self.min_exp, self.max_exp
        out = [0] * (hi - lo + 1)
        for k, c in self._terms.items():
            out[k - lo] = c.numerator if c.denominator == 1 else c
        return out, lo

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for k, c in other._terms.items():
            s = terms.get(k, Fraction(0)) + c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = terms
        out._hash = None
        return out

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {k: -c for k, c in self._terms.items()}
        out._hash = None
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return LaurentPoly.zero()
        a, alo = self.coeff_list()
        b, blo = other.coeff_list()
        return LaurentPoly.from_coeffs(dense_mul(a, b), alo + blo)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @staticmethod
    def _coerce(x):
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentPoly({0: x})
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant hashes as the number it equals
        if self._hash is None:
            terms = self._terms
            if terms.keys() <= {0}:
                self._hash = hash(terms.get(0, 0))
            else:
                self._hash = hash(tuple(sorted(terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self._terms)

    # -- substitution and evaluation ---------------------------------------

    def substitute_power(self, n: int) -> "LaurentPoly":
        """The image of f(t) under t -> t^n, n a nonzero integer.

        >>> parse_poly("t^2 - t + 1").substitute_power(2)
        LaurentPoly('t^4 - t^2 + 1')
        """
        if n == 0:
            raise ValueError("substitute_power requires a nonzero exponent")
        return LaurentPoly({k * n: c for k, c in self._terms.items()})

    def __call__(self, value) -> Fraction:
        """Exact evaluation at a nonzero rational (t is a unit, so 0 is out)."""
        value = as_fraction(value)
        if value == 0:
            raise ValueError("cannot evaluate a Laurent polynomial at 0")
        total = Fraction(0)
        for k, c in self._terms.items():
            total += c * value**k
        return total

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly({e + k: c for e, c in self._terms.items()})

    # -- normalization -----------------------------------------------------

    def normalize_unit(self) -> "LaurentPoly":
        """Canonical associate under units +-t^k.

        Shifts so the minimum exponent is 0 and flips sign so the coefficient
        there is positive.

        >>> parse_poly("-t^-1 + 3 - t").normalize_unit()
        LaurentPoly('t^2 - 3t + 1')
        """
        if not self._terms:
            raise ValueError("the zero polynomial has no unit normalization")
        lo = self.min_exp
        f = self.shift(-lo)
        if f.coeff(0) < 0:
            f = -f
        return f

    def split_content(self):
        """(c, coeffs, lo) with self = c t^lo (coeffs[0] + coeffs[1] t + ...):
        c the positive rational content, coeffs a primitive dense int list.

        >>> parse_poly("3/2t - 9/4").split_content()
        (Fraction(3, 4), [-3, 2], 0)
        """
        if not self._terms:
            raise ValueError("the zero polynomial has no content")
        num, den = 0, 1
        for c in self._terms.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        lo = self.min_exp
        coeffs = [0] * (self.max_exp - lo + 1)
        for k, c in self._terms.items():
            coeffs[k - lo] = c.numerator * (den // c.denominator) // num
        return Fraction(num, den), coeffs, lo

    def exact_div(self, other) -> "LaurentPoly":
        """Exact quotient self / other; ValueError if the division is not
        exact.  By Gauss's lemma it is the quotient of the primitive parts in
        Z[t] (dense_exact_div) times the ratio of the contents."""
        other = self._coerce(other)
        if other is NotImplemented or other.is_zero:
            raise ZeroDivisionError("Laurent polynomial division by zero")
        if self.is_zero:
            return LaurentPoly.zero()
        cn, num, nlo = self.split_content()
        cd, den, dlo = other.split_content()
        ratio = cn / cd
        return LaurentPoly.from_coeffs([ratio * c for c in dense_exact_div(num, den)], nlo - dlo)

    # -- text --------------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for k in sorted(self._terms, reverse=True):
            c = self._terms[k]
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else ("-" + body))
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"LaurentPoly('{self}')"


T = LaurentPoly({1: 1})


def as_laurent(x) -> LaurentPoly:
    """x itself if a LaurentPoly, else the constant polynomial x (an int,
    Fraction or numeric string)."""
    return x if isinstance(x, LaurentPoly) else LaurentPoly({0: x})


_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<sign>[+-])"
    r"|(?P<num>[0-9]+(?:/0*[1-9][0-9]*)?)"
    r"|(?P<var>t(?:\^(?P<exp>[+-]?[0-9]+))?)"
    r"|(?P<star>\*)"
    r"|(?P<bad>.)"
)


def normalize_unit(f) -> LaurentPoly:
    """Canonical associate of f under units +-t^k (see the method); a
    number is read as a constant polynomial.

    >>> normalize_unit(parse_poly("-t^-1 + 3 - t"))
    LaurentPoly('t^2 - 3t + 1')
    """
    return as_laurent(f).normalize_unit()


def parse_poly(text: str) -> LaurentPoly:
    """Parse the textual polynomial syntax.

    >>> parse_poly("t^-2 - 3 + t^2")
    LaurentPoly('t^2 - 3 + t^-2')
    >>> parse_poly("0")
    LaurentPoly('0')
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        tag = m.lastgroup if m.lastgroup != "exp" else "var"
        if tag == "ws":
            continue
        if tag == "bad":
            raise ParseError(f"unexpected character {m.group()!r} in polynomial", col=m.start() + 1)
        tokens.append((tag, m))
    if not tokens:
        raise ParseError("empty polynomial")

    result = LaurentPoly.zero()
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i][0] == "sign":
            if tokens[i][1].group() == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ParseError("dangling sign at end of polynomial", col=tokens[-1][1].start() + 1)
        tag, m = tokens[i]
        coeff = Fraction(1)
        exp = 0
        if tag == "num":
            coeff = Fraction(m.group("num"))
            i += 1
            if i < n and tokens[i][0] == "star":
                i += 1
                if i >= n or tokens[i][0] != "var":
                    raise ParseError("expected t after '*'", col=m.end() + 1)
            if i < n and tokens[i][0] == "var":
                tag, m = tokens[i]
                exp = int(m.group("exp")) if m.group("exp") is not None else 1
                i += 1
        elif tag == "var":
            exp = int(m.group("exp")) if m.group("exp") is not None else 1
            i += 1
        else:
            raise ParseError(f"unexpected {m.group()!r} in polynomial", col=m.start() + 1)
        result = result + LaurentPoly({exp: sign * coeff})
        if i < n and tokens[i][0] not in ("sign",):
            tag, m = tokens[i]
            raise ParseError(f"expected '+' or '-' before {m.group()!r}", col=m.start() + 1)
    return result
