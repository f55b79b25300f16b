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

Every catalog ring has a ``DigitLayout``: its additive group is a product
of cyclic groups, and element i has a mixed-radix code whose digits add
independently (``Zn``: one digit mod n; ``GF(p,f)``: the coefficients as
base-p digits; ``Trunc``: the coefficients; ``Prod`` and ``Ideal``: the
factors' digits side by side, in element order).  The elements with one
digit 1 and the rest 0 are the ring's ``additive_generators()``: 1 for
``Zn``; 1, x, ..., x^(d-1) for ``GF(p,f)`` with d = deg f; x_k, ..., x_1, 1
for ``Trunc``; the factors' generators, embedded, for ``Prod`` and
``Ideal``.  Multiplication by t is additive, so its action on the elements
(``mul_row``) is fixed by the products of t with the generators, one per
digit; a principal ideal rR, and any cyclic submodule Rx of an R-module,
is the additive span of the products g*x.  Modules over a ring add through
the layout instead of through ring values.

A ``Trunc``, ``Prod`` or ``Ideal`` ring of order at most 64
(``CONSTRUCTION_CHECK_CAP``) builds its add, mul and neg tables on element
indices once, at construction: ``Trunc`` from its value arithmetic on every
pair, ``Prod`` and ``Ideal`` from their factors' tables (a factor without
tables of its own gets them from its value arithmetic on every pair).  The
identity, negation and commutativity laws are checked exhaustively on
those tables, and the ring's ``add``, ``mul``, ``neg`` and ``mul_row`` then
read them, so the check covers the operations in use.  Larger rings keep
their value arithmetic.  The associativity/distributivity sweeps live in
the test suite.  Element order is lexicographic on canonical coordinates,
so every derived set (units, radicals, ideals) is deterministic.  Rings
are immutable and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
from array import array

from . import scalars
from .scalars import Scalar, is_prime, pdeg, pgcd, pmonic, ptrim


class RingError(ValueError):
    """Invalid ring construction or ring operation."""


class SizeCapExceeded(RuntimeError):
    """The operation would exceed its documented size cap: a ring's order,
    a module's element count, the submodule lattice or the oracle."""


ORDER_CAP = 4096
CONSTRUCTION_CHECK_CAP = 64

# classification outcomes for quasi second rings
QS_LOCAL_SQUARE_ZERO = "LocalSquareZeroMax"
QS_TWO_FIELDS = "ProductOfTwoFields"
NOT_QS = "NotQuasiSecond"


def _mixed_radix(sizes, parts) -> list:
    """Combine per-factor values like ``itertools.product`` combines the
    factors: entry k is sum(part_j[digit_j(k)] * stride_j)."""
    out = [0]
    for n, part in zip(sizes, parts):
        out = [x * n + c for x in out for c in part]
    return out


class DigitLayout:
    """A finite abelian group as a product of cyclic groups, on element
    indices.  Element i has the mixed-radix code ``codes[i]``, whose digits,
    least significant first, add mod ``radices``; ``index_of`` inverts
    ``codes``.  ``places`` are the codes with one digit 1 and the rest 0, so
    their elements generate the group.  ``add`` adds two indices.  A product
    layout remembers its factors' orders (``sizes``, most significant
    first) to ``join`` per-factor index lists."""

    def __init__(self, codes, radices, sizes=None):
        self.codes = array("H", codes)
        self.radices = tuple(radices)
        self.sizes = sizes or (len(self.codes),)
        index_of = array("H", self.codes)
        for i, c in enumerate(self.codes):
            index_of[c] = i
        self.index_of = index_of
        places, place = [], 1
        for radix in self.radices:
            places.append(place)
            place *= radix
        self.places = tuple(places)
        self.add = self._adder()

    def _adder(self):
        code, index_of = self.codes, self.index_of
        if all(radix == 2 for radix in self.radices):
            # binary digits add without carries: exclusive or

            def add(i, j):
                return index_of[code[i] ^ code[j]]

        else:
            digits = tuple(zip(self.radices, self.places))

            def add(i, j):
                u, v, w = code[i], code[j], 0
                for radix, place in digits:
                    w += (u // place + v // place) % radix * place
                return index_of[w]

        return add

    @classmethod
    def product(cls, layouts) -> "DigitLayout":
        """The layout of a direct product whose elements run like
        ``itertools.product`` over the factors' elements: the last factor's
        digits are the least significant."""
        sizes = tuple(len(layout.codes) for layout in layouts)
        codes = _mixed_radix(sizes, [layout.codes for layout in layouts])
        radices = tuple(r for layout in reversed(layouts) for r in layout.radices)
        return cls(codes, radices, sizes)

    def join(self, parts) -> list:
        """The index list of the product whose entry at (x_1, ..., x_k) is
        (parts[0][x_1], ..., parts[k-1][x_k]), for per-factor index lists."""
        return _mixed_radix(self.sizes, parts)

    def linear_row(self, images) -> list:
        """The additive map sending the element at each place to the given
        image index, as a list over element indices.  Codes fill in
        increasing order: a code c > 0 whose top nonzero digit sits at
        place p is (c - p) + p, so its image is p's image added to the
        image of the smaller code c - p.  With a single digit the image of
        c is c times the image of 1, mod the radix."""
        code, index_of = self.codes, self.index_of
        if len(self.radices) == 1:
            n, v = self.radices[0], code[images[0]]
            return [index_of[c * v % n] for c in code]
        add = self.add
        by_code = [index_of[0]]
        for image, radix in zip(images, self.radices):
            place = len(by_code)
            for c in range(place, place * radix):
                by_code.append(add(by_code[c - place], image))
        return [by_code[c] for c in code]


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

    @property
    def layout(self):
        """The ring's ``DigitLayout``."""
        if self._layout is None:
            self._layout = self._make_layout()
        return self._layout

    def additive_generators(self) -> tuple:
        """Elements whose sums give every element of the ring: the elements
        at the places of the layout."""
        elems, index_of = self.elements, self.layout.index_of
        return tuple(elems[index_of[place]] for place in self.layout.places)

    def mul_row(self, t) -> list:
        """Multiplication by t, element index -> element index.  It is
        additive, so one product per digit fixes it."""
        index = self.index
        return self.layout.linear_row(
            [index(self.mul(t, g)) for g in self.additive_generators()]
        )

    def _make_tables(self):
        """(add, mul, neg) on element indices, from the value operations:
        entry i*n + j of add and mul is the index of x_i + x_j and of
        x_i * x_j, entry i of neg the index of -x_i."""
        elems, index = self.elements, self.index
        add, mul = array("H"), array("H")
        for x in elems:
            add.extend(index(self.add(x, y)) for y in elems)
            mul.extend(index(self.mul(x, y)) for y in elems)
        return add, mul, array("H", (index(self.neg(x)) for x in elems))

    def index_tables(self) -> tuple:
        """The ring's (add, mul, neg) tables on element indices; see
        ``_make_tables``."""
        if self._tables is None:
            self._tables = self._make_tables()
        return self._tables

    def sort_key(self, x):
        raise NotImplementedError

    def format_element(self, x) -> str:
        raise NotImplementedError

    # shared machinery -------------------------------------------------

    def _init_common(self, validate: bool):
        if self.order > ORDER_CAP:
            raise SizeCapExceeded(
                f"{self.spec}: order {self.order} exceeds the cap {ORDER_CAP}"
            )
        self._elements = None
        self._index = None
        self._units = None
        self._divisor_list = None
        # caches exist from construction on: an attribute first set later
        # slows every attribute read on the ring (``self.n`` in ``add``)
        self._layout = None
        self._tables = None
        if validate and self.order <= CONSTRUCTION_CHECK_CAP:
            tables = self.index_tables()
            self._check_tables(*tables)
            self._read_tables(*tables)

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

    def is_field(self) -> bool:
        return len(self.units()) == self.order - 1

    def is_maximal(self, ideal) -> bool:
        """Whether the ideal I is maximal, that is R/I is a field: I is
        proper, and every x outside I has a y with x*y in 1 + I.  A unit
        has one, its inverse, so only nonunits are searched."""
        if self.one in ideal:
            return False
        units = self.units()
        coset = {self.index(self.add(self.one, i)) for i in ideal}
        return all(
            not coset.isdisjoint(self.mul_row(x))
            for x in self.elements
            if x not in ideal and x not in units
        )

    def principal_ideal(self, a) -> frozenset:
        return frozenset(self.mul(r, a) for r in self.elements)

    def idempotents(self) -> frozenset:
        return frozenset(x for x in self.elements if self.mul(x, x) == x)

    def is_local(self):
        """(True, maximal ideal) when nonunits form an ideal, else (False, None).
        A finite commutative ring is local exactly when 0 and 1 are its only
        idempotents."""
        if self.idempotents() - {self.zero, self.one}:
            return False, None
        units = self.units()
        return True, frozenset(x for x in self.elements if x not in units)

    def _check_tables(self, add, mul, neg):
        n, elems = self.order, self.elements
        zero, one = self.index(self.zero), self.index(self.one)
        for i, x in enumerate(elems):
            if add[i * n + zero] != i or mul[i * n + one] != i:
                raise RingError(f"{self.spec}: identity laws fail at {x!r}")
            if add[i * n + neg[i]] != zero:
                raise RingError(f"{self.spec}: negation fails at {x!r}")
        # row i right of the diagonal against column i below it: every
        # unordered pair once, and x*x = x*x holds
        for i in range(n - 1):
            right = slice(i * n + i + 1, (i + 1) * n)
            below = slice((i + 1) * n + i, n * n, n)
            if mul[right] != mul[below]:
                raise RingError(f"{self.spec}: multiplication is not commutative")
            if add[right] != add[below]:
                raise RingError(f"{self.spec}: addition is not commutative")

    def _read_tables(self, add_t, mul_t, neg_t):
        """Point add, mul, neg and mul_row at the checked index tables, so
        that the construction check covers the operations in use."""
        n, elems = self.order, self.elements
        self.index(self.zero)  # builds the value -> index map
        index = self._index

        def add(x, y):
            return elems[add_t[index[x] * n + index[y]]]

        def mul(x, y):
            return elems[mul_t[index[x] * n + index[y]]]

        def neg(x):
            return elems[neg_t[index[x]]]

        def mul_row(t):
            k = index[t] * n
            return mul_t[k : k + n].tolist()

        self.add, self.mul, self.neg, self.mul_row = add, mul, neg, mul_row

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

    def reduce(self, r):
        """The residue mod n of r, a value of A or a residue mod a multiple
        of n."""
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

    def reduce(self, r):
        return r % self.n

    def _make_layout(self):
        return DigitLayout(range(self.n), (self.n,))


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

    def reduce(self, r):
        return scalars.pdivmod(r, self.modulus, self.p)[1]

    def _make_layout(self):
        # a residue's code reads its coefficients as base-p digits
        p = self.p
        codes = [sum(c * p**k for k, c in enumerate(x)) for x in self.elements]
        return DigitLayout(codes, (p,) * pdeg(self.modulus))


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

    def _make_layout(self):
        # the element order is lexicographic on the coefficients
        return DigitLayout(range(self.order), (self.p,) * (self.k + 1))


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

    def _make_layout(self):
        # element (x, y) sits at index(x) * |R2| + index(y)
        return DigitLayout.product([self.r1.layout, self.r2.layout])

    def _make_tables(self):
        # row (x1, x2) of a table joins row x1 of R1's with row x2 of R2's
        join = self.layout.join
        n1, n2 = self.r1.order, self.r2.order

        def combine(t1, t2):
            out = array("H")
            for i1 in range(n1):
                row1 = t1[i1 * n1 : (i1 + 1) * n1]
                for i2 in range(n2):
                    out.extend(join([row1, t2[i2 * n2 : (i2 + 1) * n2]]))
            return out

        (add1, mul1, neg1), (add2, mul2, neg2) = (
            self.r1.index_tables(),
            self.r2.index_tables(),
        )
        return combine(add1, add2), combine(mul1, mul2), array("H", join([neg1, neg2]))


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

    def _make_layout(self):
        # the element order is lexicographic on the d + 1 base coordinates
        return DigitLayout.product([self.base.layout] * (self.d + 1))

    def _make_tables(self):
        # element (a, m_1..m_d) has the base indices as its base-|R| digits
        b_add, b_mul, b_neg = self.base.index_tables()
        nb, join = self.base.order, self.layout.join
        coords = list(itertools.product(range(nb), repeat=self.d + 1))
        add, mul = array("H"), array("H")
        for x in coords:
            add.extend(join([b_add[c * nb : (c + 1) * nb] for c in x]))
            row1, m1 = x[0] * nb, x[1:]
            for a2, *m2 in coords:
                # (a1*a2, a1*m2 + a2*m1), one base digit at a time
                code, row2 = b_mul[row1 + a2], a2 * nb
                for u, v in zip(m1, m2):
                    code = code * nb + b_add[b_mul[row1 + v] * nb + b_mul[row2 + u]]
                mul.append(code)
        return add, mul, array("H", join([b_neg] * (self.d + 1)))


# -- catalog operations ------------------------------------------------


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
        # x*y = y*x, so each unordered pair of the maximal ideal is tested once
        pairs = itertools.combinations_with_replacement(maximal, 2)
        if all(ring.mul(x, y) == zero for x, y in pairs):
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
