"""Exact scalar arithmetic for the two acting domains.

Modules in this package are acted on either by the ring of integers or by a
univariate polynomial ring over a prime field.  Both domains are Euclidean,
so gcds, lcms, canonical residues and irreducibility tests are exact and
always terminate.

Representation conventions:

* integers are plain Python ints (arbitrary precision, no overflow);
* a polynomial over F_p is a tuple of coefficients in ``range(p)``, lowest
  degree first, with no trailing zeros; the zero polynomial is ``()``.

Canonical associates are nonnegative integers and monic polynomials.  Every
operation that is only defined up to units (gcd, lcm, residue class
representatives) normalizes to the canonical associate, so results are
single valued and deterministic across runs.

All values are immutable and every function is pure.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass


class ScalarError(ValueError):
    """Invalid scalar value or scalar operation."""


class DomainMismatch(ScalarError):
    """Operands belong to different scalar domains."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class ScalarDomain:
    """The acting domain: the integers, or F_p[x] for a prime p."""

    kind: str  # "int" or "poly"
    char: int = 0  # the prime p when kind == "poly"

    def __post_init__(self):
        if self.kind not in ("int", "poly"):
            raise ScalarError(f"unknown domain kind {self.kind!r}")
        if self.kind == "poly" and not is_prime(self.char):
            raise ScalarError(
                f"polynomial domains need a prime characteristic, got {self.char}"
            )
        if self.kind == "int" and self.char != 0:
            raise ScalarError("the integer domain has no characteristic parameter")

    def __str__(self):
        return "Z" if self.kind == "int" else f"F{self.char}[x]"


INTEGERS = ScalarDomain("int")


def poly_domain(p: int) -> ScalarDomain:
    return ScalarDomain("poly", p)


# -- polynomial helpers (coefficient tuples over F_p, low degree first) --


def ptrim(c) -> tuple:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def pdeg(c) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(c) - 1


def padd(c, d, p):
    n = max(len(c), len(d))
    c = tuple(c) + (0,) * (n - len(c))
    d = tuple(d) + (0,) * (n - len(d))
    return ptrim(tuple((x + y) % p for x, y in zip(c, d)))


def pneg(c, p):
    return tuple((-x) % p for x in c)


def pmul(c, d, p):
    if not c or not d:
        return ()
    out = [0] * (len(c) + len(d) - 1)
    for i, x in enumerate(c):
        if x:
            for j, y in enumerate(d):
                out[i + j] = (out[i + j] + x * y) % p
    return ptrim(tuple(out))


def pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = [x % p for x in a]
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        coef = a[i]
        if coef:
            c = (coef * inv) % p
            q[i - db] = c
            for j, y in enumerate(b):
                a[i - db + j] = (a[i - db + j] - c * y) % p
    return ptrim(tuple(q)), ptrim(tuple(a))


def pmonic(c, p):
    if not c or c[-1] == 1:
        return tuple(c)
    inv = pow(c[-1], p - 2, p)
    return tuple((x * inv) % p for x in c)


def pgcd(a, b, p):
    a, b = tuple(a), tuple(b)
    while b:
        a, b = b, pdivmod(a, b, p)[1]
    return pmonic(a, p)


def monic_polys(p: int, deg: int):
    """All monic polynomials of exact degree ``deg`` over F_p."""
    for tail in itertools.product(range(p), repeat=deg):
        yield tail + (1,)


# -- scalars --


@dataclass(frozen=True)
class Scalar:
    """An element of a ScalarDomain, stored in canonical form."""

    domain: ScalarDomain
    value: object  # int, or a coefficient tuple

    def is_zero(self) -> bool:
        return self.value == 0 if self.domain.kind == "int" else not self.value

    def is_unit(self) -> bool:
        if self.domain.kind == "int":
            return self.value in (1, -1)
        return len(self.value) == 1

    def sort_key(self):
        if self.domain.kind == "int":
            return (abs(self.value), self.value)
        return (len(self.value), self.value)

    def __str__(self):
        return format_scalar(self)


def scalar(domain: ScalarDomain, value) -> Scalar:
    """Build a Scalar, canonicalizing the representation."""
    if domain.kind == "int":
        if not isinstance(value, int):
            raise ScalarError(f"integer scalar expected, got {value!r}")
        return Scalar(domain, value)
    if isinstance(value, int):
        value = (value,)
    coeffs = ptrim(tuple(int(x) % domain.char for x in value))
    return Scalar(domain, coeffs)


def _same_domain(a: Scalar, b: Scalar):
    if a.domain != b.domain:
        raise DomainMismatch(f"mixed scalar domains {a.domain} and {b.domain}")


def normalize(a: Scalar) -> Scalar:
    """Canonical associate: nonnegative integer, monic polynomial."""
    if a.domain.kind == "int":
        return Scalar(a.domain, abs(a.value))
    return Scalar(a.domain, pmonic(a.value, a.domain.char))


def scalar_gcd(a: Scalar, b: Scalar) -> Scalar:
    _same_domain(a, b)
    if a.is_zero() and b.is_zero():
        raise ScalarError("gcd(0, 0) is undefined")
    if a.domain.kind == "int":
        return Scalar(a.domain, math.gcd(a.value, b.value))
    return Scalar(a.domain, pgcd(a.value, b.value, a.domain.char))


def scalar_lcm(a: Scalar, b: Scalar) -> Scalar:
    _same_domain(a, b)
    if a.is_zero() or b.is_zero():
        raise ScalarError("lcm of zero is undefined")
    g = scalar_gcd(a, b)
    if a.domain.kind == "int":
        return Scalar(a.domain, abs(a.value * b.value) // g.value)
    q = pdivmod(b.value, g.value, a.domain.char)[0]
    return normalize(Scalar(a.domain, pmul(a.value, q, a.domain.char)))


def is_irreducible(a: Scalar) -> bool:
    """Whether a has no proper nonunit divisor.

    Integers use trial division; polynomials trial-divide by every monic
    polynomial of degree at most deg(a)/2, which is exhaustive and exact at
    the sizes this package works with.
    """
    if a.is_zero() or a.is_unit():
        raise ScalarError("irreducibility is undefined for zero and units")
    if a.domain.kind == "int":
        return is_prime(abs(a.value))
    p = a.domain.char
    f = a.value
    for d in range(1, pdeg(f) // 2 + 1):
        for g in monic_polys(p, d):
            if not pdivmod(f, g, p)[1]:
                return False
    return True


def reduce_mod(a: Scalar, m: Scalar) -> Scalar:
    """Canonical representative of a modulo m.

    Integers land in [0, |m|); polynomials are the remainder by the monic
    associate of m, so the result has degree < deg(m).
    """
    _same_domain(a, m)
    if m.is_zero() or m.is_unit():
        raise ScalarError("reduction modulo zero or a unit is undefined")
    if a.domain.kind == "int":
        return Scalar(a.domain, a.value % abs(m.value))
    p = a.domain.char
    return Scalar(a.domain, pdivmod(a.value, pmonic(m.value, p), p)[1])


# -- literal grammar --
#
# integers: optional sign + decimal digits
# polynomials: sums of terms  c | x | x^k | c*x^k | cx^k  with coefficients
# reduced mod p; "-" is accepted and folded into the coefficient.

_INT_RE = re.compile(r"[+-]?\d+\Z")
_TERM_RE = re.compile(r"(\d+)?\*?(x(?:\^(\d+))?)?\Z")


def parse_scalar(text: str, domain: ScalarDomain) -> Scalar:
    s = text.replace(" ", "")
    if not s:
        raise ScalarError("empty scalar literal")
    if domain.kind == "int":
        if not _INT_RE.match(s):
            raise ScalarError(f"bad integer literal {text!r}")
        return Scalar(domain, int(s))
    return Scalar(domain, _parse_poly(s, domain.char))


def _parse_poly(s: str, p: int) -> tuple:
    terms = re.findall(r"[+-]?[^+-]+", s)
    if not terms or "".join(terms) != s:
        raise ScalarError(f"bad polynomial literal {s!r}")
    coeffs: dict[int, int] = {}
    for term in terms:
        sign = 1
        body = term
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m or not body:
            raise ScalarError(f"bad polynomial term {term!r} in {s!r}")
        cs, xs, es = m.groups()
        if xs is None:
            if cs is None:
                raise ScalarError(f"bad polynomial term {term!r} in {s!r}")
            c, k = int(cs), 0
        else:
            c = int(cs) if cs is not None else 1
            k = int(es) if es is not None else 1
        coeffs[k] = coeffs.get(k, 0) + sign * c
    vec = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        vec[k] = c % p
    return ptrim(tuple(vec))


def format_poly(c: tuple) -> str:
    if not c:
        return "0"
    parts = []
    for k in range(len(c) - 1, -1, -1):
        coef = c[k]
        if not coef:
            continue
        if k == 0:
            parts.append(str(coef))
        elif coef == 1:
            parts.append("x" if k == 1 else f"x^{k}")
        else:
            parts.append(f"{coef}*x" if k == 1 else f"{coef}*x^{k}")
    return "+".join(parts)


def format_scalar(a: Scalar) -> str:
    if a.domain.kind == "int":
        return str(a.value)
    return format_poly(a.value)
