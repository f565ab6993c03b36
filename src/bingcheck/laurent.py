"""Exact Laurent polynomials in one variable over the rationals.

A Laurent polynomial is a finite sum of terms c * t^k with k any integer
(negative exponents allowed) and c a nonzero rational.  Terms are stored as an
exponent -> coefficient mapping with no zero coefficients; the zero polynomial
is the empty mapping.  Stored coefficients are fractions.Fraction throughout,
so all arithmetic is exact; nothing in this module touches floating point.

Products and exact quotients run on dense coefficient lists (dense_mul,
dense_divmod) in which integral coefficients are Python ints: an integer
Laurent product, or the exact quotient of one integer Laurent polynomial by
another, is computed without building a Fraction until it is stored.

Units of Z[t, 1/t] are +-t^k.  normalize_unit picks the canonical associate:
minimum exponent 0 and positive coefficient there.

Textual syntax (round-trips through parse_poly / str): terms like
``t^-2 - 3 + t^2`` or ``2t^2 - 5t + 2``; coefficients are integers or
fractions ``a/b``; ``*`` between coefficient and ``t`` is optional.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

__all__ = [
    "Fraction",
    "LaurentPoly",
    "T",
    "as_fraction",
    "dense_divmod",
    "dense_mul",
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


def dense_divmod(num, den):
    """Long division of dense ascending coefficient lists over Q.

    Returns (quot, rem) with num == quot * den + rem and len(rem) < len(den),
    both as lists without trailing zeros.  den must end in a nonzero entry.
    Entries may be ints or Fractions.  Each digit is divided by the leading
    coefficient of den unless that is 1; an int digit over an int leading
    coefficient stays an int when the division is exact and becomes a
    Fraction otherwise.  So an exact division of int lists whose quotient is
    integral runs in ints throughout.

    >>> dense_divmod([-1, 0, 0, 1], [-1, 1])      # t^3 - 1 = (t^2 + t + 1)(t - 1)
    ([1, 1, 1], [])
    >>> dense_divmod([1, 0, 1], [1, 2])           # t^2 + 1 = (t/2 - 1/4)(2t + 1) + 5/4
    ([Fraction(-1, 4), Fraction(1, 2)], [Fraction(5, 4)])
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(den) - 1
    lc = den[-1]
    monic = lc == 1
    int_lc = type(lc) is int
    rem = list(num)
    quot = [0] * max(len(rem) - n, 0)
    for k in range(len(quot) - 1, -1, -1):
        q = rem[k + n]
        if not q:
            continue
        if monic:
            pass
        elif int_lc and type(q) is int:
            # an int / int digit would be a float
            q = q // lc if not q % lc else Fraction(q, lc)
        else:
            q = q / lc
        quot[k] = q
        for j, d in enumerate(den):
            rem[k + j] -= q * d
    return _strip(quot), _strip(rem[:n])


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
        others are Fractions.  This is the input of dense_mul and
        dense_divmod."""
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
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._terms.items())))
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

    def content(self) -> Fraction:
        """Positive rational c with f = c * (primitive integer Laurent poly)."""
        if not self._terms:
            raise ValueError("the zero polynomial has no content")
        from math import gcd

        num = 0
        den = 1
        for c in self._terms.values():
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def exact_div(self, other) -> "LaurentPoly":
        """Exact quotient self / other; raises if the division is not exact."""
        other = self._coerce(other)
        if other is NotImplemented or other.is_zero:
            raise ZeroDivisionError("Laurent polynomial division by zero")
        if self.is_zero:
            return LaurentPoly.zero()
        num, nlo = self.coeff_list()
        den, dlo = other.coeff_list()
        quot, rem = dense_divmod(num, den)
        if rem:
            raise ValueError("division is not exact")
        return LaurentPoly.from_coeffs(quot, nlo - dlo)

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


_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<sign>[+-])"
    r"|(?P<num>[0-9]+(?:/0*[1-9][0-9]*)?)"
    r"|(?P<var>t(?:\^(?P<exp>[+-]?[0-9]+))?)"
    r"|(?P<star>\*)"
    r"|(?P<bad>.)"
)


def normalize_unit(f: LaurentPoly) -> LaurentPoly:
    """Canonical associate of f under units +-t^k (see the method).

    >>> normalize_unit(parse_poly("-t^-1 + 3 - t"))
    LaurentPoly('t^2 - 3t + 1')
    """
    return f.normalize_unit()


def parse_poly(text: str) -> LaurentPoly:
    """Parse the textual polynomial syntax.

    >>> parse_poly("t^-2 - 3 + t^2")
    LaurentPoly('t^2 - 3 + t^-2')
    >>> parse_poly("0")
    LaurentPoly('0')
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup if m.lastgroup != "exp" else "var"
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r} in polynomial", col=m.start() + 1)
        tokens.append((kind, m))
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
        kind, m = tokens[i]
        coeff = Fraction(1)
        exp = 0
        if kind == "num":
            coeff = Fraction(m.group("num"))
            i += 1
            if i < n and tokens[i][0] == "star":
                i += 1
                if i >= n or tokens[i][0] != "var":
                    raise ParseError("expected t after '*'", col=m.end() + 1)
            if i < n and tokens[i][0] == "var":
                kind, m = tokens[i]
                exp = int(m.group("exp")) if m.group("exp") is not None else 1
                i += 1
        elif kind == "var":
            exp = int(m.group("exp")) if m.group("exp") is not None else 1
            i += 1
        else:
            raise ParseError(f"unexpected {m.group()!r} in polynomial", col=m.start() + 1)
        result = result + LaurentPoly({exp: sign * coeff})
        if i < n and tokens[i][0] not in ("sign",):
            kind, m = tokens[i]
            raise ParseError(f"expected '+' or '-' before {m.group()!r}", col=m.start() + 1)
    return result
