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


class SizeCapExceeded(RuntimeError):
    """The operation would exceed its documented size cap: a ring's order,
    a module's element count, the submodule lattice, the oracle, or the
    degree of a polynomial literal."""


# 2^256 has 78 digits: an integer literal longer than that, wherever a spec
# holds one but in a coefficient, puts the order far past every size cap
# (see ``read_int``)
LONG_DIGITS = len(str(2**256))


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


def proper_divisors(domain: ScalarDomain, d) -> list:
    """(u, d/u) for each canonical divisor u != d of a canonical nonunit
    d != 0, in increasing order: by value over Z, by degree and then
    coefficients over F_p[x] (the order of residues).  Over Z trial
    division runs up to sqrt(d), and every divisor past that is the
    cofactor of one below it.  Over F_p[x] the divisors are the products
    of the prime powers of d (``pfactor``), each with the complementary
    powers as its cofactor."""
    if domain.kind == "int":
        low = [u for u in range(1, math.isqrt(d) + 1) if not d % u]
        high = [d // u for u in reversed(low[1:]) if u * u != d]
        return [(u, d // u) for u in low + high]
    # the divisors run like ``itertools.product`` over the exponents of
    # the primes, so the one with the complementary exponents, the
    # cofactor, sits at the mirrored index
    p, divisors = domain.char, [(1,)]
    for prime, e in pfactor(d, p):
        powers = [(1,), prime]
        while len(powers) <= e:
            powers.append(pmul(powers[-1], prime, p))
        divisors = [
            pmul(u, powers[k], p) if k else u for u in divisors for k in range(e + 1)
        ]
    pairs = sorted(
        zip(divisors, reversed(divisors)), key=lambda pair: (len(pair[0]), pair[0])
    )
    # d itself, the one divisor of its degree, comes last
    return pairs[:-1]


def pfactor(d, p) -> list:
    """[(prime, exponent)] for a monic d over F_p: each monic u in order of
    degree is divided out of what is left as often as it divides it, so a
    u that divides is prime (its prime factors, of lower degree, are gone),
    and what is left once its degree is below 2 deg u is 1 or prime."""
    factors, k = [], 1
    while 2 * k <= pdeg(d):
        for u in monic_polys(p, k):
            e = 0
            while True:
                q, r = pdivmod(d, u, p)
                if r:
                    break
                d, e = q, e + 1
            if e:
                factors.append((u, e))
            if 2 * k > pdeg(d):
                break
        k += 1
    if pdeg(d) > 0:
        factors.append((d, 1))
    return factors


def inverse_mod(domain: ScalarDomain, a, m):
    """The inverse of a mod m, for canonical a and m coprime, m a nonunit:
    ``pow`` over Z; over F_p[x] the extended Euclidean algorithm, which
    keeps r_i = s_i*a mod m for each remainder r_i, down to the last
    nonzero one, a constant c, so that s*c^-1 is the inverse."""
    if domain.kind == "int":
        return pow(a, -1, m)
    p = domain.char
    r0, r1, s0, s1 = m, pdivmod(a, m, p)[1], (), (1,)
    while r1:
        q, r = pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, padd(s0, tuple(-c % p for c in pmul(q, s1, p)), p)
    return pdivmod(pmul(s0, (pow(r0[0], p - 2, p),), p), m, p)[1]


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


# -- literal grammar --
#
# integers: optional sign + ASCII decimal digits
# polynomials: sums of terms  c | x | x^k | c*x^k | cx^k  with coefficients
# reduced mod p; "-" is accepted and folded into the coefficient.

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_TERM_RE = re.compile(r"([^*x]+)?\*?(x(?:\^(.+))?)?\Z")

# int() refuses more than 4,300 digits, so a literal read mod p is reduced
# in chunks of this many
_CHUNK = 1000


def read_int(text: str, what: str, cap=None, mod: int = 0) -> int:
    """The value of an integer literal in a spec; ``what`` names it in
    errors (``"a modulus"``).

    A literal is ASCII decimal digits with an optional sign: no ``_`` and no
    digits of other scripts, which ``int()`` also reads.  One of more than
    ``LONG_DIGITS`` digits is refused on its digit count, before ``int()``,
    with a message that names ``cap`` (every size cap if None) and not the
    literal.  With ``mod``, the value mod ``mod`` is read a chunk at a time
    instead, at any length."""
    if not _INT_RE.match(text):
        raise ScalarError(f"bad integer literal {text!r} for {what}")
    sign = -1 if text[0] == "-" else 1
    digits = text.lstrip("+-").lstrip("0")
    if mod:
        out = 0
        for start in range(0, len(digits), _CHUNK):
            chunk = digits[start : start + _CHUNK]
            out = (out * 10 ** len(chunk) + int(chunk)) % mod
        return sign * out % mod
    if len(digits) > LONG_DIGITS:
        limit = f"the cap {cap}" if cap is not None else "every size cap"
        raise SizeCapExceeded(f"{what} of {len(digits)} digits exceeds {limit}")
    return sign * int(digits or "0")


def parse_scalar(text: str, domain: ScalarDomain, check_degree=None) -> Scalar:
    """The scalar a literal names; see ``parse_poly`` for ``check_degree``."""
    s = text.replace(" ", "")
    if not s:
        raise ScalarError("empty scalar literal")
    if domain.kind == "int":
        return Scalar(domain, read_int(s, "an integer"))
    return Scalar(domain, parse_poly(s, domain.char, check_degree))


def parse_poly(text: str, p: int, check_degree=None) -> tuple:
    """The coefficient tuple of a polynomial literal over F_p.  The terms
    are read sparsely, and ``check_degree``, if given, is called with the
    degree before one entry per exponent is allocated, so that a caller can
    refuse x^1000000 first.  Coefficients and exponents are read by
    ``read_int``: a coefficient mod p at any length, an exponent of more
    than ``LONG_DIGITS`` digits refused by its length alone."""
    s = text.replace(" ", "")
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
        cs, xs, es = m.groups() if m else (None, None, None)
        if cs is None and xs is None:
            raise ScalarError(f"bad polynomial term {term!r} in {s!r}")
        c = 1 if cs is None else read_int(cs, "a coefficient", mod=p)
        k = 0 if xs is None else 1 if es is None else read_int(es, "an exponent")
        coeffs[k] = coeffs.get(k, 0) + sign * c
    degree = max((k for k, c in coeffs.items() if c % p), default=-1)
    if check_degree is not None:
        check_degree(degree)
    vec = [0] * (degree + 1)
    for k, c in coeffs.items():
        if k <= degree:
            vec[k] = c % p
    return tuple(vec)


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
