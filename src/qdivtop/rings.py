"""Finite commutative rings with identity, built from a small constructor
catalog.

Every ring enumerates its elements as hashable canonical values:

* ``Zn(n)``       integers ``0..n-1`` with arithmetic mod n;
* ``GF(p,f)``     residues mod f as coefficient tuples over F_p (any
                  nonconstant modulus is accepted; the result is a field
                  exactly when f is irreducible; ``GF(p)`` is sugar for
                  ``Zn(p)`` with p prime);
* ``Trunc(p,k)``  the local algebra with basis 1, x_1, ..., x_k over F_p in
                  which every product of two basis generators vanishes;
                  elements are (k+1)-coefficient tuples;
* ``Prod(R,S)``   componentwise pairs;
* ``Ideal(R,d)``  the ring on R x R^d with the product
                  (a1,m1)(a2,m2) = (a1*a2, a1*m2 + a2*m1).

Quotients by an ideal (used when deriving modules) represent each coset by
its least member under the parent's element order.

Every ring names ``additive_generators()``: elements whose sums give every
element (1 for ``Zn``; 1, x, ..., x^(d-1) for ``GF(p,f)`` with d = deg f;
1, x_1, ..., x_k for ``Trunc``; the factors' generators, embedded, for
``Prod`` and ``Ideal``; the coset representatives of the parent's
generators for a quotient).  So a principal ideal rR, and any cyclic
submodule Rx of an R-module, is the additive span of the products g*x.

Every catalog ring also has a ``digit_layout()``: its additive group is a
product of cyclic groups, and element i has a mixed-radix code whose
digits add independently (``Zn``: one digit mod n; ``GF(p,f)``: the
coefficients as base-p digits; ``Trunc``: the coefficients; ``Prod`` and
``Ideal``: the factors' digits side by side, in element order).  Modules
over a ring add through that code instead of through ring values.
Quotients have no layout and add through their parent.

Commutativity and the identity laws are checked exhaustively on
construction for the composite constructors up to order 64; the
associativity/distributivity sweeps live in the test suite.  Element order
is lexicographic on canonical coordinates, so every derived set (units,
radicals, ideals) is deterministic.  Rings are immutable and all
operations are pure.
"""

from __future__ import annotations

import itertools
import math

from . import scalars
from .scalars import Scalar, is_prime, pdeg, pgcd, pmonic, ptrim


class RingError(ValueError):
    """Invalid ring construction or ring operation."""


class RingCapExceeded(RuntimeError):
    """Construction would exceed the supported order cap."""


ORDER_CAP = 4096
CONSTRUCTION_CHECK_CAP = 64

# classification outcomes for quasi second rings
QS_LOCAL_SQUARE_ZERO = "LocalSquareZeroMax"
QS_TWO_FIELDS = "ProductOfTwoFields"
NOT_QS = "NotQuasiSecond"


class FiniteRing:
    """Base class: a finite commutative ring with identity."""

    spec: str
    order: int

    def _enumerate(self):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def units(self) -> frozenset:
        raise NotImplementedError

    def additive_generators(self) -> tuple:
        """Elements whose sums give every element of the ring."""
        raise NotImplementedError

    def digit_layout(self):
        """(codes, radices): element i has the mixed-radix code codes[i]
        whose digits, least significant first, add mod the radices; None
        when the ring adds only through values."""
        return None

    def sort_key(self, x):
        raise NotImplementedError

    def format_element(self, x) -> str:
        raise NotImplementedError

    # shared machinery -------------------------------------------------

    def _init_common(self, validate: bool):
        if self.order > ORDER_CAP:
            raise RingCapExceeded(
                f"{self.spec}: order {self.order} exceeds the cap {ORDER_CAP}"
            )
        self._elements = None
        self._index = None
        self._units = None
        self._divisor_list = None
        if validate and self.order <= CONSTRUCTION_CHECK_CAP:
            self._check_commutative_with_identity()

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            self._elements = tuple(sorted(self._enumerate(), key=self.sort_key))
        return self._elements

    def index(self, x) -> int:
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self.elements)}
        try:
            return self._index[x]
        except KeyError:
            raise RingError(f"{x!r} is not an element of {self.spec}") from None

    def __contains__(self, x):
        if self._index is None:
            self.index(self.elements[0])
        return x in self._index

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def divisor(self, r):
        """An element d with r = d*u for a unit u, so that r and d generate
        the same ideal: gcd(r, n) over A/(n) for A = Z or F_p[x], the
        factors' divisors over a product, and otherwise one for a unit and
        r itself for a nonunit."""
        return self.one if r in self.units() else r

    def divisors(self) -> tuple:
        """The distinct divisors of the elements, in element order."""
        if self._divisor_list is None:
            self._divisor_list = tuple(
                dict.fromkeys(self.divisor(r) for r in self.elements)
            )
        return self._divisor_list

    def is_unit(self, x) -> bool:
        return x in self.units()

    def is_field(self) -> bool:
        return len(self.units()) == self.order - 1

    def principal_ideal(self, a) -> frozenset:
        return frozenset(self.mul(r, a) for r in self.elements)

    def idempotents(self) -> frozenset:
        return frozenset(x for x in self.elements if self.mul(x, x) == x)

    def is_local(self):
        """(True, maximal ideal) when nonunits form an ideal, else (False, None)."""
        nonunits = [x for x in self.elements if not self.is_unit(x)]
        nonunit_set = frozenset(nonunits)
        for x in nonunits:
            for y in nonunits:
                if self.add(x, y) not in nonunit_set:
                    return False, None
        return True, nonunit_set

    def _check_commutative_with_identity(self):
        elems = self.elements
        zero, one = self.zero, self.one
        for x in elems:
            if self.add(x, zero) != x or self.mul(x, one) != x:
                raise RingError(f"{self.spec}: identity laws fail at {x!r}")
            if self.add(x, self.neg(x)) != zero:
                raise RingError(f"{self.spec}: negation fails at {x!r}")
        for x in elems:
            for y in elems:
                if self.mul(x, y) != self.mul(y, x):
                    raise RingError(f"{self.spec}: multiplication is not commutative")
                if self.add(x, y) != self.add(y, x):
                    raise RingError(f"{self.spec}: addition is not commutative")

    def __eq__(self, other):
        return isinstance(other, FiniteRing) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"<FiniteRing {self.spec} order={self.order}>"


class _EuclideanQuotient(FiniteRing):
    """A/(n) for A = Z or F_p[x]: one gcd per element gives its divisor,
    and the units are the elements whose divisor is one."""

    def _gcd(self, r):
        raise NotImplementedError

    def divisor(self, r):
        g = self._divisors.get(r)
        if g is None:
            self.index(r)
            g = self._divisors[r] = self._gcd(r)
        return g

    def units(self):
        if self._units is None:
            one = self.one
            self._units = frozenset(r for r in self.elements if self.divisor(r) == one)
        return self._units


class ZnRing(_EuclideanQuotient):
    def __init__(self, n: int):
        if n < 2:
            raise RingError(f"Zn needs a modulus of at least 2, got {n}")
        self.n = n
        self.order = n
        self.spec = f"Zn({n})"
        self.zero = 0
        self.one = 1
        self._divisors = {}
        self._init_common(validate=False)

    def _enumerate(self):
        return range(self.n)

    def add(self, x, y):
        return (x + y) % self.n

    def mul(self, x, y):
        return (x * y) % self.n

    def neg(self, x):
        return (-x) % self.n

    def sort_key(self, x):
        return x

    def format_element(self, x):
        return str(x)

    def _gcd(self, r):
        return math.gcd(r, self.n) % self.n

    def additive_generators(self):
        return (1,)

    def digit_layout(self):
        return range(self.n), (self.n,)


class QuotPolyRing(_EuclideanQuotient):
    """F_p[x]/(f) for a nonconstant modulus f, normalized monic."""

    def __init__(self, p: int, modulus):
        if not is_prime(p):
            raise RingError(f"characteristic {p} is not prime")
        if isinstance(modulus, Scalar):
            modulus = modulus.value
        modulus = pmonic(ptrim(tuple(c % p for c in modulus)), p)
        if pdeg(modulus) < 1:
            raise RingError("the polynomial modulus must be nonconstant")
        self.p = p
        self.modulus = modulus
        self.order = p ** pdeg(modulus)
        self.spec = f"GF({p},{scalars.format_poly(modulus)})"
        self.zero = ()
        self.one = (1,)
        self._mul_cache = {}
        self._divisors = {}
        self._init_common(validate=False)

    def _enumerate(self):
        d = pdeg(self.modulus)
        for coeffs in itertools.product(range(self.p), repeat=d):
            yield ptrim(coeffs)

    def add(self, x, y):
        return scalars.padd(x, y, self.p)

    def mul(self, x, y):
        key = (x, y)
        out = self._mul_cache.get(key)
        if out is None:
            out = scalars.pdivmod(scalars.pmul(x, y, self.p), self.modulus, self.p)[1]
            self._mul_cache[key] = out
        return out

    def neg(self, x):
        return scalars.pneg(x, self.p)

    def sort_key(self, x):
        return (len(x), x)

    def format_element(self, x):
        return scalars.format_poly(x)

    def _gcd(self, r):
        g = pgcd(r, self.modulus, self.p)
        return self.zero if g == self.modulus else g

    def additive_generators(self):
        return tuple((0,) * k + (1,) for k in range(pdeg(self.modulus)))

    def digit_layout(self):
        p = self.p
        codes = [sum(c * p**k for k, c in enumerate(x)) for x in self.elements]
        return codes, (p,) * pdeg(self.modulus)


class TruncRing(FiniteRing):
    """F_p[x_1..x_k]/(x_1..x_k)^2: coefficients (c0, c1, ..., ck) on the
    basis 1, x_1, ..., x_k; products of two generators vanish."""

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise RingError(f"characteristic {p} is not prime")
        if k < 1:
            raise RingError("Trunc needs at least one generator")
        self.p = p
        self.k = k
        self.order = p ** (k + 1)
        self.spec = f"Trunc({p},{k})"
        self.zero = (0,) * (k + 1)
        self.one = (1,) + (0,) * k
        self._init_common(validate=True)

    def _enumerate(self):
        return itertools.product(range(self.p), repeat=self.k + 1)

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def mul(self, x, y):
        p = self.p
        c0 = (x[0] * y[0]) % p
        return (c0,) + tuple(
            (x[0] * y[i] + y[0] * x[i]) % p for i in range(1, self.k + 1)
        )

    def neg(self, x):
        return tuple((-a) % self.p for a in x)

    def sort_key(self, x):
        return x

    def format_element(self, x):
        parts = []
        if x[0]:
            parts.append(str(x[0]))
        for i in range(1, self.k + 1):
            if x[i] == 1:
                parts.append(f"x{i}")
            elif x[i]:
                parts.append(f"{x[i]}*x{i}")
        return "+".join(parts) if parts else "0"

    def units(self):
        if self._units is None:
            self._units = frozenset(x for x in self.elements if x[0] != 0)
        return self._units

    def additive_generators(self):
        k = self.k
        return tuple((0,) * i + (1,) + (0,) * (k - i) for i in range(k + 1))

    def digit_layout(self):
        # the element order is lexicographic on the coefficients
        return range(self.order), (self.p,) * (self.k + 1)


class ProdRing(FiniteRing):
    def __init__(self, r1: FiniteRing, r2: FiniteRing):
        self.r1 = r1
        self.r2 = r2
        self.order = r1.order * r2.order
        self.spec = f"Prod({r1.spec},{r2.spec})"
        self.zero = (r1.zero, r2.zero)
        self.one = (r1.one, r2.one)
        self._init_common(validate=True)

    def _enumerate(self):
        return itertools.product(self.r1.elements, self.r2.elements)

    def add(self, x, y):
        return (self.r1.add(x[0], y[0]), self.r2.add(x[1], y[1]))

    def mul(self, x, y):
        return (self.r1.mul(x[0], y[0]), self.r2.mul(x[1], y[1]))

    def neg(self, x):
        return (self.r1.neg(x[0]), self.r2.neg(x[1]))

    def sort_key(self, x):
        return (self.r1.sort_key(x[0]), self.r2.sort_key(x[1]))

    def format_element(self, x):
        return f"({self.r1.format_element(x[0])},{self.r2.format_element(x[1])})"

    def units(self):
        if self._units is None:
            self._units = frozenset(
                itertools.product(self.r1.units(), self.r2.units())
            )
        return self._units

    def divisor(self, r):
        return (self.r1.divisor(r[0]), self.r2.divisor(r[1]))

    def additive_generators(self):
        r1, r2 = self.r1, self.r2
        return tuple((g, r2.zero) for g in r1.additive_generators()) + tuple(
            (r1.zero, g) for g in r2.additive_generators()
        )

    def digit_layout(self):
        # element (x, y) sits at index(x) * |R2| + index(y)
        codes1, radices1 = self.r1.digit_layout()
        codes2, radices2 = self.r2.digit_layout()
        n2 = self.r2.order
        return [a * n2 + b for a in codes1 for b in codes2], radices2 + radices1


class IdealizeRing(FiniteRing):
    """R x R^d with product (a1,m1)(a2,m2) = (a1*a2, a1*m2 + a2*m1)."""

    def __init__(self, base: FiniteRing, d: int):
        if d < 1:
            raise RingError("idealization needs at least one module copy")
        self.base = base
        self.d = d
        self.order = base.order ** (d + 1)
        self.spec = f"Ideal({base.spec},{d})"
        self.zero = (base.zero, (base.zero,) * d)
        self.one = (base.one, (base.zero,) * d)
        self._init_common(validate=True)

    def _enumerate(self):
        base = self.base.elements
        for a in base:
            for ms in itertools.product(base, repeat=self.d):
                yield (a, ms)

    def add(self, x, y):
        b = self.base
        return (b.add(x[0], y[0]), tuple(b.add(m, n) for m, n in zip(x[1], y[1])))

    def mul(self, x, y):
        b = self.base
        a1, m1 = x
        a2, m2 = y
        return (
            b.mul(a1, a2),
            tuple(b.add(b.mul(a1, n), b.mul(a2, m)) for m, n in zip(m1, m2)),
        )

    def neg(self, x):
        b = self.base
        return (b.neg(x[0]), tuple(b.neg(m) for m in x[1]))

    def sort_key(self, x):
        return (self.base.sort_key(x[0]), tuple(self.base.sort_key(m) for m in x[1]))

    def format_element(self, x):
        ms = ",".join(self.base.format_element(m) for m in x[1])
        return f"({self.base.format_element(x[0])},({ms}))"

    def units(self):
        # (a, m) is invertible iff a is: the inverse is (a^-1, -a^-2 m)
        if self._units is None:
            base_units = self.base.units()
            self._units = frozenset(x for x in self.elements if x[0] in base_units)
        return self._units

    def additive_generators(self):
        b, d = self.base, self.d
        zeros = (b.zero,) * d
        gens = tuple((g, zeros) for g in b.additive_generators())
        for j in range(d):
            gens += tuple(
                (b.zero, zeros[:j] + (g,) + zeros[j + 1 :])
                for g in b.additive_generators()
            )
        return gens

    def digit_layout(self):
        # the element order is lexicographic on the d + 1 base coordinates
        base_codes, base_radices = self.base.digit_layout()
        n = self.base.order
        codes = [0]
        for _ in range(self.d + 1):
            codes = [x * n + c for x in codes for c in base_codes]
        return codes, base_radices * (self.d + 1)


class QuotientRing(FiniteRing):
    """Quotient of a finite ring by an ideal, on least coset representatives."""

    def __init__(self, parent: FiniteRing, ideal):
        ideal = frozenset(ideal)
        if parent.zero not in ideal:
            raise RingError("an ideal must contain zero")
        for i in ideal:
            for j in ideal:
                if parent.add(i, j) not in ideal:
                    raise RingError("the given set is not closed under addition")
        for r in parent.elements:
            for i in ideal:
                if parent.mul(r, i) not in ideal:
                    raise RingError("the given set does not absorb multiplication")
        self.parent = parent
        self.ideal = ideal
        self._rep = {}
        reps = []
        for e in parent.elements:
            if e in self._rep:
                continue
            reps.append(e)
            for i in ideal:
                self._rep[parent.add(e, i)] = e
        self.order = len(reps)
        label = ",".join(parent.format_element(i) for i in sorted(ideal, key=parent.sort_key))
        self.spec = f"{parent.spec}/<{label}>"
        self.zero = self._rep[parent.zero]
        self.one = self._rep[parent.one]
        self._reps = tuple(reps)
        # commutativity and identity are inherited from the parent; the
        # rep-map size check above already caught non-ideals
        self._init_common(validate=False)

    def _enumerate(self):
        return self._reps

    def add(self, x, y):
        return self._rep[self.parent.add(x, y)]

    def mul(self, x, y):
        return self._rep[self.parent.mul(x, y)]

    def neg(self, x):
        return self._rep[self.parent.neg(x)]

    def sort_key(self, x):
        return self.parent.sort_key(x)

    def format_element(self, x):
        return self.parent.format_element(x)

    def units(self):
        # units of a finite commutative ring lift modulo any ideal, so the
        # units here are the images of the parent's units
        if self._units is None:
            self._units = frozenset(self._rep[u] for u in self.parent.units())
        return self._units

    def additive_generators(self):
        return tuple(
            dict.fromkeys(self._rep[g] for g in self.parent.additive_generators())
        )


# -- catalog operations ------------------------------------------------


def ring_arith(ring: FiniteRing, op: str, x, y=None):
    """Checked arithmetic: validates membership before dispatching."""
    ring.index(x)
    if op == "neg":
        return ring.neg(x)
    ring.index(y)
    if op == "add":
        return ring.add(x, y)
    if op == "mul":
        return ring.mul(x, y)
    raise RingError(f"unknown ring operation {op!r}")


def principal_ideal(ring: FiniteRing, a) -> frozenset:
    ring.index(a)
    return ring.principal_ideal(a)


def _is_field_factor(ring: FiniteRing, e) -> bool:
    """Whether the factor eR (with identity e) is a field."""
    part = ring.principal_ideal(e)
    nonzero = [x for x in part if x != ring.zero]
    if not nonzero:
        return False
    return all(any(ring.mul(x, y) == e for y in part) for x in nonzero)


def classify_quasi_second_ring(ring: FiniteRing) -> str:
    """Structural classification: local with square-zero maximal ideal, a
    product of two fields, or neither."""
    local, maximal = ring.is_local()
    if local:
        zero = ring.zero
        if all(ring.mul(x, y) == zero for x in maximal for y in maximal):
            return QS_LOCAL_SQUARE_ZERO
        return NOT_QS
    one, zero = ring.one, ring.zero
    for e in sorted(ring.idempotents(), key=ring.sort_key):
        if e in (zero, one):
            continue
        f = ring.sub(one, e)
        if _is_field_factor(ring, e) and _is_field_factor(ring, f):
            return QS_TWO_FIELDS
    return NOT_QS


# -- construction grammar ----------------------------------------------
#
#   Zn(8) | GF(2) | GF(2,x^2+x+1) | Trunc(2,3) | Prod(expr,expr) | Ideal(expr,d)
#
# whitespace-insensitive, nesting allowed.


def build_ring(text: str) -> FiniteRing:
    s = text.replace(" ", "")
    ring, pos = _parse_ring(s, 0)
    if pos != len(s):
        raise RingError(f"trailing input at position {pos} in {text!r}")
    return ring


def _parse_ring(s: str, pos: int):
    start = pos
    while pos < len(s) and (s[pos].isalnum() or s[pos] == "_"):
        pos += 1
    name = s[start:pos]
    if pos >= len(s) or s[pos] != "(":
        raise RingError(f"expected '(' at position {pos} in {s!r}")
    args, pos = _parse_args(s, pos)
    if name == "Zn":
        if len(args) != 1:
            raise RingError("Zn takes one argument")
        return ZnRing(_arg_int(args[0], start)), pos
    if name == "GF":
        if len(args) == 1:
            p = _arg_int(args[0], start)
            if not is_prime(p):
                raise RingError(f"GF({p}): {p} is not prime")
            return ZnRing(p), pos
        if len(args) == 2:
            p = _arg_int(args[0], start)
            if not is_prime(p):
                raise RingError(f"GF({p},...): {p} is not prime")
            poly = scalars.parse_scalar(args[1], scalars.poly_domain(p))
            return QuotPolyRing(p, poly.value), pos
        raise RingError("GF takes one or two arguments")
    if name == "Trunc":
        if len(args) != 2:
            raise RingError("Trunc takes two arguments")
        return TruncRing(_arg_int(args[0], start), _arg_int(args[1], start)), pos
    if name == "Prod":
        if len(args) != 2:
            raise RingError("Prod takes two arguments")
        r1, end1 = _parse_ring(args[0], 0)
        r2, end2 = _parse_ring(args[1], 0)
        if end1 != len(args[0]) or end2 != len(args[1]):
            raise RingError(f"bad Prod arguments near position {start}")
        return ProdRing(r1, r2), pos
    if name == "Ideal":
        if len(args) != 2:
            raise RingError("Ideal takes two arguments")
        base, end = _parse_ring(args[0], 0)
        if end != len(args[0]):
            raise RingError(f"bad Ideal argument near position {start}")
        return IdealizeRing(base, _arg_int(args[1], start)), pos
    raise RingError(f"unknown ring constructor {name!r} at position {start}")


def _parse_args(s: str, pos: int):
    # pos points at '('; returns the comma-split args at depth 0
    depth = 0
    args = []
    current = []
    for i in range(pos, len(s)):
        ch = s[i]
        if ch == "(":
            depth += 1
            if depth > 1:
                current.append(ch)
        elif ch == ")":
            depth -= 1
            if depth == 0:
                args.append("".join(current))
                return args, i + 1
            current.append(ch)
        elif ch == "," and depth == 1:
            args.append("".join(current))
            current = []
        else:
            current.append(ch)
    raise RingError(f"unbalanced parentheses starting at position {pos} in {s!r}")


def _arg_int(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise RingError(f"expected an integer near position {pos}, got {text!r}") from None
