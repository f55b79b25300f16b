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
                  it is ``Ideal(Zn(p),k)`` under its own name and labels,
                  c0 + c1*x_1 + ... + ck*x_k being (c0, (c1, ..., ck));
* ``Prod(R,S)``   componentwise pairs;
* ``Ideal(R,d)``  the ring on R x R^d with the product
                  (a1,m1)(a2,m2) = (a1*a2, a1*m2 + a2*m1).

Every catalog ring has a ``DigitLayout``: its additive group is a product
of cyclic groups, and element i has a mixed-radix code whose digits add
independently (``Zn``: one digit mod n; ``GF(p,f)``: the coefficients as
base-p digits; ``Prod`` and ``Ideal``, and so ``Trunc``: the factors'
digits side by side, in element order).  The indices of the elements
with one digit 1 and the rest 0 are the ring's ``additive_generators()``:
1 for ``Zn``; 1, x, ..., x^(d-1) for ``GF(p,f)`` with d = deg f; x_k, ...,
x_1, 1 for ``Trunc``; the factors' generators, embedded, for ``Prod`` and
``Ideal``.  Multiplication by t is additive, so its action on the elements
(``mul_row``) is fixed by the products of t with the generators, one per
digit (``generator_products`` of ``Zn`` and ``GF(p,f)``), and a cyclic
submodule Rx of an R-module is the additive span of the products g*x,
grown one coset at a time by ``DigitLayout.span``, the one span loop.  A
principal ideal rR (``ideal_mask``) needs no row: over A/(n) it is read
off the divisor sieve, as the multiples of gcd(r, n), ``Prod`` joins its
factors' ideals, and ``Ideal`` reads it off its base.  Ideals and other
element sets are bit masks over the element indices (``_mask``,
``_bits``, ``_flags``), and a product of rings joins its factors' masks
(``DigitLayout.join_mask``) as it joins their index lists.

Every ring maps each element index to the index of its divisor d, an
element with r = d*u for a unit u, in one ``array('H')`` built once in
bulk (``divisor_table``), the one divisor API: ``Zn`` and ``GF(p,f)``
sieve it from the divisors of the modulus, ``Prod`` joins its factors'
tables, and ``Ideal`` maps each block of units to one and every nonunit
to itself.  The units and the distinct divisors (``divisors``) are read
off it.

Each constructor lists its idempotents without squaring every element:
``Zn`` and ``GF(p,f)`` square only the residues whose divisor is a unitary
divisor of the modulus; ``Prod`` pairs its factors' idempotents;
``Ideal`` has (e, 0) for each idempotent e of the base, so ``Trunc`` has
0 and 1 alone.  A finite ring is local exactly when 0 and 1 are its only
idempotents.  The quasi-second classification of a local ring asks whether
its maximal ideal m has m*m = 0.  The product is additive in each factor,
so it suffices that g*h = 0 for every pair of additive generators g, h of
m, found in one walk over m whose span grows by ``DigitLayout.span``
(``_square_zero``): 11 generators and 66 products for ``Trunc(2,11)``,
against about 2.1 million pairs of m.

Every ring adds and negates on its layout (``FiniteRing.add`` and
``FiniteRing.neg``), ``Zn`` included.  It multiplies through its rows
(``mul_row``) and its constructor's value ``mul``, which the semiprime,
idempotent and square-zero tests call once per product, where a row
would cost one pass over the ring.  A ``Prod`` or ``Ideal`` ring
(``Trunc`` included) of order at most 64 (``CONSTRUCTION_CHECK_CAP``)
builds its add, mul and neg tables on element indices once, at
construction, and so does each factor of such a ``Prod`` ring, for the
tables of the ring over it.  ``Prod`` builds its add and mul tables from
its factors' in one big-integer sum per table, over one-byte lanes
(``_product_table``); every other ring, ``Zn``, ``GF(p,f)`` and
``Ideal``, from its rows and its layout's addition
(``FiniteRing._make_tables``).  Every ring's neg table is its layout's
negation.  The identity, negation and commutativity laws, and the
distributive law x*(x + 1) = x*x + x, which reads each diagonal entry,
are checked exhaustively on those tables, and the ring's ``add``, ``mul``
and ``mul_row`` then read them, so the check covers the operations in
use: the rows each ring runs at every order, an ``Ideal`` ring's row
join among them, and the negation on its layout.  A ``Zn`` or
``GF(p,f)`` factor's value ``mul``, which no table reads, is compared
with the literal product in the test suite.  A larger ``Prod`` or
``Ideal`` ring joins each row from its factors' rows, with no ring
product (``mul_row``).  ``GF(p,f)`` multiplies on element indices
through one multiply-by-x step (see ``QuotPolyRing``) at every
order.  The associativity/distributivity sweeps live in the test suite.
Each constructor lists its elements in one order, with no sort (``Zn``
by value, ``GF(p,f)`` by length, then by coefficients, ``Prod`` and
``Ideal`` lexicographically on their coordinates), and the element index
is that order, so every derived set (units, radicals, ideals) is
deterministic.  Each prints its elements in bulk, once (``labels``).
Rings are immutable and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array

from . import scalars
from .scalars import (
    ScalarDomain,
    SizeCapExceeded,
    is_prime,
    pdeg,
    pmonic,
    ptrim,
)


class RingError(ValueError):
    """Invalid ring construction or ring operation."""


ORDER_CAP = 4096
# Prod and Ideal rings, Trunc among them, up to this order check their
# tables at construction, and read them after: Prod builds them from its
# factors' tables, Ideal from its own rows, joined from its base's, and a
# Zn or GF(p,f) factor of a Prod builds its own for it from its rows.  At
# most 256: the tables of a checked Prod ring are summed in one-byte lanes
# (``_product_table``)
CONSTRUCTION_CHECK_CAP = 64
# every ring has order >= 2 and each Prod or Ideal level at least doubles
# it, so a spec nested deeper than this exceeds ORDER_CAP
NESTING_CAP = ORDER_CAP.bit_length()

# classification outcomes for quasi second rings
QS_LOCAL_SQUARE_ZERO = "LocalSquareZeroMax"
QS_TWO_FIELDS = "ProductOfTwoFields"
NOT_QS = "NotQuasiSecond"


def capped_order(factors, describe) -> int:
    """The product of base**exp over the (base, exp) factors, each base at
    least 2, or ``SizeCapExceeded(describe(order))`` past ORDER_CAP.  A
    product of more than 256 bits is far past the cap, so it is neither
    computed nor printed in decimal: describe gets the text b^e*...."""
    if sum(exp * base.bit_length() for base, exp in factors) > 256:
        order = "*".join(f"{b}^{e}" if e != 1 else str(b) for b, e in factors)
    elif (order := math.prod(b**e for b, e in factors)) <= ORDER_CAP:
        return order
    raise SizeCapExceeded(describe(order))


def _mixed_radix(sizes, parts) -> list:
    """Combine per-factor values like ``itertools.product`` combines the
    factors: entry k is sum(part_j[digit_j(k)] * stride_j)."""
    out = [0]
    for n, part in zip(sizes, parts):
        out = [x * n + c for x in out for c in part]
    return out


# a byte per index, 0 or 1, to and from the digits of a base-2 numeral
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _flags(mask: int) -> bytes:
    """Byte i is bit i of the mask, 0 or 1: its base-2 numeral, reversed."""
    return bin(mask)[:1:-1].encode().translate(_FLAGS)


def _flag_mask(flags) -> int:
    """The mask with bit i set where the byte flags[i] is 1, read as one
    base-2 numeral."""
    return int(flags[::-1].translate(_DIGITS), 2)


def _bits(mask: int):
    """The indices of the set bits of mask, in increasing order.  Clearing
    the low bit costs a pass over the mask's words, so a mask past 64 bits
    with more than one bit in 16 set is read off its flags, in one pass,
    instead."""
    if mask >= 1 << 64 and mask.bit_count() > mask.bit_length() >> 4:
        yield from itertools.compress(itertools.count(), _flags(mask))
        return
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(indices, size: int) -> int:
    """The mask of a list, array or range of indices, each below size.
    Each index ORed in costs a pass over the mask's words, and flags a pass
    over size bytes, so up to max(16, size/16) indices are ORed in and more
    are set as flags (``fill``), with no big-integer step per index."""
    k = len(indices)
    if k <= 16 or k << 4 <= size:
        mask = 0
        for i in indices:
            mask |= 1 << i
        return mask
    flags = bytearray(size)
    fill(flags, indices, b"\1")
    return _flag_mask(flags)


class DigitLayout:
    """A finite abelian group as a product of cyclic groups, on element
    indices.  Element i has the mixed-radix code ``codes[i]``, whose digits,
    least significant first, add mod ``radices``; ``index_of`` inverts
    ``codes``.  ``places`` are the codes with one digit 1 and the rest 0, so
    their elements generate the group.  ``add`` adds two indices, and
    ``neg`` negates one.  A product
    layout remembers its factors' orders (``sizes``, most significant
    first) to ``join`` per-factor index lists.

    Binary codes add by exclusive or, and one-digit codes mod the radix.
    Any other pair of codes adds in two table lookups.  Digits below r add
    to at most 2r - 2, so two codes re-read with each digit in the wide
    radix 2r - 1 add as integers with no carry, and the digit-wise sums
    can be read back mod r off a table with one entry per wide code.  A
    table over every digit would be larger than the group, so the digits
    are split into a low and a high half (codes mod and div ``split``),
    each with its own wide re-reading and table (``_digit_sums``): 243 and
    1,701 entries for the 4,096 elements of ``Prod(Zn(4),Trunc(2,9))``,
    built with no work per element."""

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
        self.binary = all(radix == 2 for radix in self.radices)
        self.add = self._adder()

    def _adder(self):
        code, index_of = self.codes, self.index_of
        if self.binary:
            # binary digits add without carries: exclusive or

            def add(i, j):
                return index_of[code[i] ^ code[j]]

        elif len(self.radices) == 1:
            # one digit: the codes add mod the radix
            (n,) = self.radices

            def add(i, j):
                return index_of[(code[i] + code[j]) % n]

        else:
            # two halves, each added in its wide radix (see the docstring)
            half = len(self.radices) // 2
            split = self.places[half]
            lo_w, lo_t = _digit_sums(self.radices[:half], 1)
            hi_w, hi_t = _digit_sums(self.radices[half:], split)

            def add(i, j):
                u, v = code[i], code[j]
                return index_of[
                    lo_t[lo_w[u % split] + lo_w[v % split]]
                    + hi_t[hi_w[u // split] + hi_w[v // split]]
                ]

        return add

    def neg(self, i) -> int:
        """The index of -x_i: each digit of its code negated mod its radix."""
        code, digits = self.codes[i], zip(self.places, self.radices)
        return self.index_of[sum(-(code // p) % radix * p for p, radix in digits)]

    @classmethod
    def product(cls, layouts) -> "DigitLayout":
        """The layout of a direct product whose elements run like
        ``itertools.product`` over the factors' elements: the last factor's
        digits are the least significant.  One factor's is its own."""
        if len(layouts) == 1:
            return layouts[0]
        sizes = tuple(len(layout.codes) for layout in layouts)
        codes = _mixed_radix(sizes, [layout.codes for layout in layouts])
        radices = tuple(r for layout in reversed(layouts) for r in layout.radices)
        return cls(codes, radices, sizes)

    def join(self, parts) -> list:
        """The index list of the product whose entry at (x_1, ..., x_k) is
        (parts[0][x_1], ..., parts[k-1][x_k]), for per-factor index lists.
        One factor's is its own list."""
        if len(parts) == 1:
            return parts[0]
        return _mixed_radix(self.sizes, parts)

    def join_mask(self, masks) -> int:
        """The mask of the product of per-factor masks: bit (x_1, ..., x_k)
        is set when bit x_j of masks[j] is, for every j.  Built from the
        last factor up, one shifted copy of the product so far per bit of
        the next mask; the copies do not overlap, so they add.  One
        factor's is its own mask, and no factors' the one element, at
        index 0."""
        if len(masks) == 1:
            return masks[0]
        out, tail = (masks[-1], self.sizes[-1]) if masks else (1, 1)
        for mask, size in zip(masks[-2::-1], self.sizes[-2::-1]):
            out = sum(out << (i * tail) for i in _bits(mask))
            tail *= size
        return out

    def span(self, ys, mask=None) -> int:
        """Mask of the subgroup generated by the subgroup mask (zero when
        None) and the indices ys.  Joining y to a subgroup M adds the cosets
        M + y, M + 2y, ... up to the first multiple of y in M, which is the
        first one already covered."""
        add = self.add
        if mask is None:
            mask = 1 << self.index_of[0]
        for y in ys:
            if (mask >> y) & 1:
                continue
            base = list(_bits(mask))
            z = y
            while not (mask >> z) & 1:
                for i in base:
                    mask |= 1 << add(i, z)
                z = add(z, y)
        return mask

    def linear_images(self, images) -> list:
        """Under the additive map sending the element at place k to the
        index images[k], the image of each code below the product of the
        first len(images) radices, by code.  Codes fill in increasing
        order: a code c > 0 whose top nonzero digit sits at place p is
        (c - p) + p, so its image is p's image added to the image of the
        smaller code c - p."""
        code, index_of = self.codes, self.index_of
        if self.binary:
            # the same on codes, whose binary digits add by exclusive or
            sums = [0]
            for image in images:
                v = code[image]
                sums += [u ^ v for u in sums]
            return [index_of[u] for u in sums]
        add = self.add
        by_code = [index_of[0]]
        for image, radix in zip(images, self.radices):
            place = len(by_code)
            for c in range(place, place * radix):
                by_code.append(add(by_code[c - place], image))
        return by_code

    def linear_row(self, images) -> list:
        """The additive map sending the element at each place to the given
        image index, as a list over element indices: ``linear_images`` read
        at every code.  With a single digit the image of c is c times the
        image of 1, mod the radix."""
        code, index_of = self.codes, self.index_of
        if len(self.radices) == 1:
            n, v = self.radices[0], code[images[0]]
            return [index_of[c * v % n] for c in code]
        by_code = self.linear_images(images)
        return [by_code[c] for c in code]


def _digit_sums(radices, place) -> tuple:
    """(wide, table) for digits of the given radices whose lowest sits at
    ``place``: ``wide[c]`` re-reads the code c of these digits with each
    digit r in radix 2r - 1, and ``table[s]`` is the code, at ``place``,
    of the wide code s with each digit taken mod its r."""
    top = radices[::-1]
    wide = _mixed_radix([2 * r - 1 for r in top], [range(r) for r in top])
    table = _mixed_radix(top, [[d % r * place for d in range(2 * r - 1)] for r in top])
    return wide, table


def _product_table(t1, n1, t2, n2) -> array:
    """The table of a product ring, on its element indices, from the same
    table of each factor (t1 on n1 elements, t2 on n2): entry
    ((i1, i2), (j1, j2)), at ((i1*n2 + i2)*n1 + j1)*n2 + j2, is
    t1[i1, j1]*n2 + t2[i2, j2].

    It is one big-integer sum, with no step per entry.  t1 and t2 are laid
    out over the product's positions, one byte per position (a lane): the
    high summand holds t1[i1, j1] in each lane, from t1 with each entry
    stretched over the n2 values of j2 and each row repeated for the n2
    values of i2; the low one holds t2[i2, j2], from each row of t2 tiled
    over j1 and the whole repeated for i1.  Read base 256, with
    coefficients a_k <= n1 - 1 and b_k <= n2 - 1, high*n2 + low is the sum
    of (a_k*n2 + b_k)*256^k, and a_k*n2 + b_k <= (n1 - 1)*n2 + n2 - 1 =
    n1*n2 - 1.  So for a product of at most 256 elements no lane carries
    into the next, and the bytes of the sum are the entries.  A larger
    product would carry, and is refused."""
    n = n1 * n2
    if n > 256:
        raise RingError(f"a product table on {n} elements does not fit one-byte lanes")
    entries1, stretched = bytes(t1.tolist()), bytearray(n1 * n)
    for j2 in range(n2):
        stretched[j2::n2] = entries1
    high = b"".join(stretched[i1 * n : (i1 + 1) * n] * n2 for i1 in range(n1))
    low = b"".join(bytes(t2[i2 * n2 : (i2 + 1) * n2].tolist()) * n1 for i2 in range(n2))
    total = int.from_bytes(high, "big") * n2 + int.from_bytes(low * n1, "big")
    # widen each byte to an "H" item, low byte first in the native order
    wide = bytearray(2 * n * n)
    wide[sys.byteorder == "big" :: 2] = total.to_bytes(n * n, "big")
    return array("H", wide)


def fill(buffer, indices, item) -> None:
    """buffer[i] = item[0] for each index i, item being a one-entry sequence
    of the buffer's type: one slice assignment when the indices are a range,
    else one store per index."""
    if isinstance(indices, range):
        buffer[indices.start : indices.stop : indices.step] = item * len(indices)
    else:
        (value,) = item
        for i in indices:
            buffer[i] = value


class FiniteRing:
    """Base class: a finite commutative ring with identity."""

    spec: str
    order: int
    # the printed domain the ring is a quotient of: any finite commutative
    # ring is a quotient of a polynomial domain over Z
    domain_label = "Z[x1,x2,...]"

    def _enumerate(self):
        """The elements, in the constructor's order (see the module
        docstring): the element index is this order."""
        raise NotImplementedError

    def add(self, x, y):
        """x + y, added on the layout."""
        index = self.index
        return self.elements[self.layout.add(index(x), index(y))]

    def mul(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        """-x, negated on the layout."""
        return self.elements[self.layout.neg(self.index(x))]

    @property
    def layout(self):
        """The ring's ``DigitLayout``."""
        if self._layout is None:
            self._layout = self._make_layout()
        return self._layout

    def additive_generators(self) -> tuple:
        """Indices of elements whose sums give every element of the ring:
        the elements at the places of the layout."""
        index_of = self.layout.index_of
        return tuple(index_of[place] for place in self.layout.places)

    def reduce(self, r):
        """The element of this ring that r stands for: r itself here, and
        for A/(n) the residue of a value of A or of a residue mod a
        multiple of n."""
        return r

    def _make_tables(self):
        """(add, mul, neg) on element indices: entry i*n + j of add and mul
        is the index of x_i + x_j and of x_i * x_j, entry i of neg the index
        of -x_i.  Row i of mul is ``mul_row(x_i)``, and add and neg are the
        layout's."""
        n, layout = self.order, self.layout
        mul = array("H")
        for x in self.elements:
            mul.extend(self.mul_row(x))
        return (
            array("H", [layout.add(i, j) for i in range(n) for j in range(n)]),
            mul,
            array("H", map(layout.neg, range(n))),
        )

    def index_tables(self) -> tuple:
        """The ring's (add, mul, neg) tables on element indices; see
        ``_make_tables``."""
        if self._tables is None:
            self._tables = self._make_tables()
        return self._tables

    @property
    def labels(self) -> tuple:
        """The printed form of each element, by index, built once in bulk
        by each constructor (``_make_labels``)."""
        if self._labels is None:
            self._labels = self._make_labels()
        return self._labels

    def _make_labels(self) -> tuple:
        raise NotImplementedError

    # shared machinery -------------------------------------------------

    def _set_order(self, *factors):
        """The order, checked against the cap before anything it sizes is built."""
        self.order = capped_order(
            factors, lambda n: f"{self.spec}: order {n} exceeds the cap {ORDER_CAP}"
        )

    def _init_common(self, validate: bool):
        self._elements = None
        self._index = None
        self._units = None
        self._divisor_table = None
        self._divisors = None
        # caches exist from construction on: an attribute first set later
        # slows every attribute read on the ring (``self._index`` in ``index``)
        self._layout = None
        self._tables = None
        self._labels = None
        self._maximal = {}
        if validate and self.order <= CONSTRUCTION_CHECK_CAP:
            tables = self.index_tables()
            self._check_tables(*tables)
            self._read_tables(*tables[:2])

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            self._elements = tuple(self._enumerate())
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

    def divisor_table(self) -> array:
        """Element index -> the index of its divisor d, an element with
        r = d*u for a unit u, so that r and d generate the same ideal; built
        once in bulk by each constructor (``_make_divisor_table``)."""
        if self._divisor_table is None:
            self._divisor_table = self._make_divisor_table()
        return self._divisor_table

    def _make_divisor_table(self) -> array:
        raise NotImplementedError

    def units(self) -> frozenset:
        """The elements whose divisor is one, built once."""
        if self._units is None:
            one = self.index(self.one)
            self._units = frozenset(
                itertools.compress(self.elements, map(one.__eq__, self.divisor_table()))
            )
        return self._units

    def divisors(self) -> dict:
        """{divisor index: the first element index with that divisor}, in
        order of first appearance in ``divisor_table``, built once; callers
        only read it."""
        if self._divisors is None:
            table = self.divisor_table()
            # the last write of the reversed table is the first index
            first = dict(zip(reversed(table), range(len(table) - 1, -1, -1)))
            self._divisors = {g: first[g] for g in dict.fromkeys(table)}
        return self._divisors

    def is_field(self) -> bool:
        return len(self.units()) == self.order - 1

    def is_maximal(self, ideal: int) -> bool:
        """Whether the ideal I, a mask over the element indices, is maximal,
        decided once per distinct ideal (``_decide_maximal``)."""
        known = self._maximal.get(ideal)
        if known is None:
            known = self._maximal[ideal] = self._decide_maximal(ideal)
        return known

    def _decide_maximal(self, ideal: int) -> bool:
        """Whether R/I is a field: I is proper, and every x outside I has a
        y with x*y in 1 + I.  A unit has one, its inverse, so only nonunits
        are searched."""
        one = self.index(self.one)
        if (ideal >> one) & 1:
            return False
        add, elems = self.layout.add, self.elements
        coset = {add(one, i) for i in _bits(ideal)}
        return all(
            not coset.isdisjoint(self.mul_row(elems[i]))
            for i, g in enumerate(self.divisor_table())
            if g != one and not (ideal >> i) & 1
        )

    def ideal_mask(self, a) -> int:
        """Mask of the principal ideal aR over the element indices, built by
        each constructor with no row of the ring."""
        raise NotImplementedError

    def idempotents(self) -> frozenset:
        """The elements e with e*e = e, read off the constructor."""
        raise NotImplementedError

    def is_local(self):
        """(True, maximal ideal) when nonunits form an ideal, else (False, None).
        A finite commutative ring is a product of local rings, whose
        idempotents are those of the factors, so it is local exactly when 0
        and 1 are its only idempotents (Atiyah-Macdonald, Thm 8.7)."""
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
        # x*(x + 1) = x*x + x, the one law here that reads the diagonal
        # entries x*x: no other law reads those off 0 and 1
        for i, x in enumerate(elems):
            k = i * n
            if mul[k + add[k + one]] != add[mul[k + i] * n + i]:
                raise RingError(f"{self.spec}: distributivity fails at {x!r}")

    def _read_tables(self, add_t, mul_t):
        """Point add, mul and mul_row at the checked index tables, so that
        the construction check covers the operations in use: a ``Prod``
        ring's add table comes from its factors' tables, not its layout.
        ``neg`` already reads the layout, whose negation the neg table
        is."""
        n, elems = self.order, self.elements
        self.index(self.zero)  # builds the value -> index map
        index = self._index

        def add(x, y):
            return elems[add_t[index[x] * n + index[y]]]

        def mul(x, y):
            return elems[mul_t[index[x] * n + index[y]]]

        def mul_row(t):
            k = index[t] * n
            return mul_t[k : k + n].tolist()

        self.add, self.mul, self.mul_row = add, mul, mul_row

    def __eq__(self, other):
        return isinstance(other, FiniteRing) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"<FiniteRing {self.spec} order={self.order}>"


class _EuclideanQuotient(FiniteRing):
    """A/(n) for A = Z or F_p[x], with n canonical (``modulus``).  A is a
    principal ideal domain, so r and gcd(r, n) generate the same ideal:
    gcd(r, n) is the divisor of r, and the units are the residues whose
    divisor is one.

    The divisor table is a sieve over every residue at once, from the
    proper divisors of n, which are few: each proper divisor g, in
    increasing order, is written on the indices of its multiples
    (``multiples``, one slice assignment for ``Zn``), so the last one
    written on r is gcd(r, n), since every divisor of n that divides r
    divides gcd(r, n).  Zero's divisor is zero.  The multiples of g are
    the ideal gA/(n), so they are also the image of g on a module whose
    elements are these residues.  An idempotent e other than 0 and 1 with
    g = gcd(e, n) is 0 mod g and 1 mod n/g, so gcd(g, n/g) = 1: only
    residues whose divisor is such a unitary divisor are squared to find
    the idempotents.

    The unitary divisors are read off the divisor table: for g | n and
    h = n/g, gcd(g, h) = 1 exactly when g + h is a unit mod n, that is
    when its divisor is one.  A prime dividing g and h divides g + h and
    n.  Conversely a prime dividing n = gh and g + h divides g or h, and
    so the other, as it divides their sum."""

    domain: ScalarDomain
    modulus: object

    def _init_quotient(self, domain, modulus):
        self.domain = domain
        self.modulus = modulus
        self._pairs = None
        self._init_common(validate=False)

    def multiples(self, g):
        """The element indices of gA/(n), the multiples of a nonzero
        divisor g of n."""
        raise NotImplementedError

    def ideal_mask(self, a) -> int:
        # aA/(n) = gA/(n) for the divisor g of a: its multiples
        g = self.divisor_table()[self.index(a)]
        if g == self.index(self.zero):
            return 1 << g
        return _mask(self.multiples(self.elements[g]), self.order)

    def divisor_pairs(self) -> list:
        """(g, n/g) for each canonical divisor g != n of n, in increasing
        order (``scalars.proper_divisors``)."""
        if self._pairs is None:
            self._pairs = scalars.proper_divisors(self.domain, self.modulus)
        return self._pairs

    def _make_divisor_table(self):
        index = self.index
        table = array("H", [index(self.one)]) * self.order
        for g, _ in self.divisor_pairs()[1:]:
            fill(table, self.multiples(g), array("H", [index(g)]))
        zero = index(self.zero)
        table[zero] = zero
        return table

    def mul_row(self, t) -> list:
        return self.layout.linear_row(self.generator_products(self.index(t)))

    def idempotents(self):
        # g is unitary when g + n/g is a unit (see the class docstring)
        index, table = self.index, self.divisor_table()
        unitary = {
            index(g)
            for g, h in self.divisor_pairs()[1:]
            if table[index(self.add(g, h))] == index(self.one)
        }
        candidates = itertools.compress(
            self.elements, map(unitary.__contains__, table)
        )
        squares = [x for x in candidates if self.mul(x, x) == x]
        return frozenset([self.zero, self.one, *squares])


class ZnRing(_EuclideanQuotient):
    domain_label = "Z"

    def __init__(self, n: int):
        if n < 2:
            raise RingError(f"Zn needs a modulus of at least 2, got {n}")
        self.n = n
        self.spec = f"Zn({n})"
        self._set_order((n, 1))
        self.zero = 0
        self.one = 1
        self._init_quotient(scalars.INTEGERS, n)

    def _enumerate(self):
        return range(self.n)

    def mul(self, x, y):
        return (x * y) % self.n

    def _make_labels(self):
        return tuple(map(str, range(self.n)))

    def generator_products(self, i):
        # the one generator is 1, and t*1 = t
        return [i]

    def multiples(self, g):
        # residue r sits at index r
        return range(0, self.n, g)

    def reduce(self, r):
        return r % self.n

    def _make_layout(self):
        return DigitLayout(range(self.n), (self.n,))


class QuotPolyRing(_EuclideanQuotient):
    """F_p[x]/(f) for a nonconstant modulus f, normalized monic, of degree
    d.  Elements are coefficient tuples, but the arithmetic runs on their
    element indices and layout codes (c_0 + c_1 p + ... + c_(d-1) p^(d-1)),
    through one map: multiplication by x (``_times_x``).  It is additive,
    and a residue with code low + top*p^(d-1) goes to low*p, the code of
    its other digits moved up one place, plus top*(x^d mod f), where
    x^d = -(f - x^d) mod f (``_x_wraps``).

    * ``mul_row(t)`` is the additive map with images t, x*t, ...,
      x^(d-1)*t on the places 1, x, ..., x^(d-1): d - 1 steps of x.
    * ``reduce(r)`` and ``mul(s, t)`` are Horner's rule on indices, in one
      loop (``_horner``): from the top coefficient c down, i <- x*i + c
      (constants have their value as code) or x*i + c*s.  ``reduce``
      starts from r's top d coefficients, already a residue.

    The ring keeps nothing but ``_times_x``.  A checked ``Prod`` ring over
    this one builds its tables from this ring's, which are its rows and its
    layout's addition and negation (``FiniteRing._make_tables``), and a
    checked ``Ideal`` ring joins its rows from this ring's rows, so either
    ring's construction check tests ``mul_row`` against the ring laws."""

    def __init__(self, p: int, modulus):
        # a p past the cap fails the order check below, before any trial
        # division
        if p <= ORDER_CAP and not is_prime(p):
            raise RingError(f"characteristic {p} is not prime")
        modulus = pmonic(ptrim(tuple(c % p for c in modulus)), p)
        if pdeg(modulus) < 1:
            raise RingError("the polynomial modulus must be nonconstant")
        self.p = p
        self.domain_label = f"F{p}[x]"
        self.spec = f"GF({p},{scalars.format_poly(modulus)})"
        self.degree = pdeg(modulus)
        self._set_order((p, self.degree))
        self.zero = ()
        self.one = (1,)
        self._times_x = None
        self._init_quotient(scalars.poly_domain(p), modulus)

    def _enumerate(self):
        # zero, then each length in turn, the top coefficient nonzero
        p = self.p
        yield ()
        for length in range(1, self.degree + 1):
            yield from itertools.product(*[range(p)] * (length - 1), range(1, p))

    def _x_wraps(self) -> list:
        """Entry top is the index of top*(x^d mod f) = -top*(f - x^d), for
        top = 0..p-1."""
        p, low = self.p, self.modulus[:-1]
        index_of = self.layout.index_of
        return [
            index_of[sum(-top * c % p * p**k for k, c in enumerate(low))]
            for top in range(self.p)
        ]

    def _x_step(self) -> list:
        """Multiplication by x, element index -> element index (see the
        class docstring), built on first use."""
        if self._times_x is None:
            p, layout = self.p, self.layout
            index_of, add, wraps = layout.index_of, layout.add, self._x_wraps()
            top_place = p ** (self.degree - 1)
            self._times_x = [
                add(index_of[c % top_place * p], wraps[c // top_place])
                for c in layout.codes
            ]
        return self._times_x

    def mul(self, x, y):
        # Horner's rule on y's coefficients, with the addends c*x
        if not y:
            return self.zero
        add = self.layout.add
        multiples = [self.layout.index_of[0], self.index(x)]
        while len(multiples) < self.p:
            multiples.append(add(multiples[-1], multiples[1]))
        return self._horner(multiples[y[-1]], y[:-1], multiples)

    def _horner(self, i, coefficients, addends):
        """From index i, i <- x*i + addends[c] for each coefficient c, top
        down: the element at the end."""
        step, add = self._x_step(), self.layout.add
        for c in reversed(coefficients):
            i = step[i]
            if c:
                i = add(i, addends[c])
        return self.elements[i]

    def generator_products(self, i) -> list:
        # t, x*t, ..., x^(d-1)*t: d - 1 steps of x
        step = self._x_step()
        images = [i]
        for _ in range(self.degree - 1):
            i = step[i]
            images.append(i)
        return images

    def _make_labels(self):
        # in the order of ``_make_layout``: rest holds the printed terms of
        # all coefficient tuples of length k ("" for zero)
        p, labels, rest = self.p, ["0"], [""]
        for k in range(self.degree):
            terms = [""] + [scalars.format_poly((0,) * k + (c,)) for c in range(1, p)]
            labels += [
                f"{terms[top]}+{r}" if r else terms[top]
                for r in rest
                for top in range(1, p)
            ]
            rest = [f"{t}+{r}" if t and r else t or r for r in rest for t in terms]
        return tuple(labels)

    def multiples(self, g):
        # the multiples g*q for deg q < deg n - deg g are the first residues
        # in element order, and x^k*g needs no reduction
        m, index = self.degree - pdeg(g), self.index
        return self.layout.linear_images([index((0,) * k + g) for k in range(m)])

    def reduce(self, r):
        # r is canonical: its top d coefficients end in a nonzero one, so
        # they are a residue, and a shorter r is one already
        d = self.degree
        if len(r) <= d:
            return r
        return self._horner(self.index(r[-d:]), r[:-d], self.layout.index_of)

    def _make_layout(self):
        # a residue's code reads its coefficients as base-p digits, in the
        # order of ``_enumerate``: block holds the codes of all coefficient
        # tuples of length k, and length k + 1 adds a nonzero top digit
        p, codes, block = self.p, [0], [0]
        for k in range(self.degree):
            place = p**k
            codes += [c + top * place for c in block for top in range(1, p)]
            block = [c + digit * place for c in block for digit in range(p)]
        return DigitLayout(codes, (p,) * self.degree)


class ProdRing(FiniteRing):
    def __init__(self, r1: FiniteRing, r2: FiniteRing):
        self.r1 = r1
        self.r2 = r2
        self.spec = f"Prod({r1.spec},{r2.spec})"
        self._set_order((r1.order, 1), (r2.order, 1))
        self.zero = (r1.zero, r2.zero)
        self.one = (r1.one, r2.one)
        self._init_common(validate=True)

    def _enumerate(self):
        return itertools.product(self.r1.elements, self.r2.elements)

    def mul(self, x, y):
        return (self.r1.mul(x[0], y[0]), self.r2.mul(x[1], y[1]))

    def _make_labels(self):
        return tuple(f"({a},{b})" for a in self.r1.labels for b in self.r2.labels)

    def _make_divisor_table(self):
        # (x1, x2) = (d1*u1, d2*u2) = (d1, d2)(u1, u2), a unit exactly when
        # u1 and u2 are: the factors' tables side by side
        tables = [self.r1.divisor_table(), self.r2.divisor_table()]
        return array("H", self.layout.join(tables))

    def mul_row(self, t) -> list:
        # (t1, t2)(x1, x2) = (t1*x1, t2*x2): the factors' rows side by side
        return self.layout.join([self.r1.mul_row(t[0]), self.r2.mul_row(t[1])])

    def ideal_mask(self, a) -> int:
        # (a1, a2)(x1, x2) = (a1*x1, a2*x2), so (a1, a2)R = a1R1 x a2R2
        return self.layout.join_mask([self.r1.ideal_mask(a[0]), self.r2.ideal_mask(a[1])])

    def idempotents(self):
        # (e1, e2)^2 = (e1^2, e2^2), so both components are idempotent
        return frozenset(
            itertools.product(self.r1.idempotents(), self.r2.idempotents())
        )

    def _make_layout(self):
        # element (x, y) sits at index(x) * |R2| + index(y)
        return DigitLayout.product([self.r1.layout, self.r2.layout])

    def _make_tables(self):
        n1, n2 = self.r1.order, self.r2.order
        (add1, mul1, _), (add2, mul2, _) = self.r1.index_tables(), self.r2.index_tables()
        return (
            _product_table(add1, n1, add2, n2),
            _product_table(mul1, n1, mul2, n2),
            array("H", map(self.layout.neg, range(self.order))),
        )


class IdealizeRing(FiniteRing):
    """R x R^d with product (a1,m1)(a2,m2) = (a1*a2, a1*m2 + a2*m1)."""

    def __init__(self, base: FiniteRing, d: int):
        if d < 1:
            raise RingError("idealization needs at least one module copy")
        self.spec = f"Ideal({base.spec},{d})"
        self._set_order((base.order, d + 1))
        self._idealize(base, d)

    def _idealize(self, base, d):
        """All of the construction but the spec and the order check, which
        the caller does first: ``TruncRing`` under its own name."""
        self.base = base
        self.d = d
        self.zero = (base.zero, (base.zero,) * d)
        self.one = (base.one, (base.zero,) * d)
        self._base_rows = {}
        self._init_common(validate=True)

    def _enumerate(self):
        base = self.base.elements
        for a in base:
            for ms in itertools.product(base, repeat=self.d):
                yield (a, ms)

    def mul(self, x, y):
        b = self.base
        a1, m1 = x
        a2, m2 = y
        return (
            b.mul(a1, a2),
            tuple(b.add(b.mul(a1, n), b.mul(a2, m)) for m, n in zip(m1, m2)),
        )

    def _make_labels(self):
        base = self.base.labels
        ms = [",".join(m) for m in itertools.product(base, repeat=self.d)]
        return tuple(f"({a},({m}))" for a in base for m in ms)

    def _make_divisor_table(self):
        # (a, m) is invertible iff a is, the inverse being (a^-1, -a^-2 m),
        # and a nonunit is its own divisor.  The elements with base
        # coordinate a are one block, so a unit's block maps to one
        base, table = self.base, array("H", range(self.order))
        block = self.order // base.order
        ones = array("H", [self.index(self.one)]) * block
        unit = base.index(base.one)
        for a, g in enumerate(base.divisor_table()):
            if g == unit:
                table[a * block : (a + 1) * block] = ones
        return table

    def idempotents(self):
        # (a, m)^2 = (a^2, 2am) = (a, m) gives a^2 = a and m = 2am, so
        # am = a(2am) = 2a^2m = 2am, hence am = 0 and m = 2am = 0
        zeros = self.zero[1]
        return frozenset((e, zeros) for e in self.base.idempotents())

    def mul_row(self, t) -> list:
        # (a, m)(b, n) = (ab, a*n_k + b*m_k): over the elements with first
        # coordinate b, coordinate k runs over a's base row translated by
        # b*m_k, one block of base digits per b
        base, join, row = self.base, self.layout.join, []
        a_row, add = base.mul_row(t[0]), base.layout.add
        m_rows = [base.mul_row(m) for m in t[1]]
        for b, ab in enumerate(a_row):
            shifted = [[add(x, m_row[b]) for x in a_row] for m_row in m_rows]
            row += join([[ab], *shifted])
        return row

    def ideal_mask(self, t) -> int:
        # (a, m)(b, n) = (ab, bm) + (0, an): the multiples b(a, m), off the
        # base's rows, plus (0, (aR)^d) from the base's ideal, zero if a is
        base, rows, n = self.base, self._base_rows, self.base.order
        for x in (t[0], *t[1]):
            rows[x] = rows.get(x) or base.mul_row(x)
        multiples = rows[t[0]]
        for m in t[1]:
            multiples = [i * n + j for i, j in zip(multiples, rows[m])]
        if t[0] == base.zero:
            return _mask(multiples, self.order)
        inner = [1 << base.index(base.zero), *[base.ideal_mask(t[0])] * self.d]
        return self.layout.span(multiples, self.layout.join_mask(inner))

    def _make_layout(self):
        # the element order is lexicographic on the d + 1 base coordinates
        return DigitLayout.product([self.base.layout] * (self.d + 1))


class TruncRing(IdealizeRing):
    """F_p[x_1..x_k]/(x_1..x_k)^2, the idealization of F_p = Zn(p) with
    d = k: c0 + c1*x_1 + ... + ck*x_k is the pair (c0, (c1, ..., ck)), and
    since x_i*x_j = 0, (a1,m1)(a2,m2) = (a1*a2, a1*m2 + a2*m1).  It keeps
    only what it prints: its spec, p and k, and its labels."""

    def __init__(self, p: int, k: int):
        # a p past the cap fails the order check below, before any trial
        # division; the check names Trunc(p,k), so it runs before Zn(p) is
        # built
        if p <= ORDER_CAP and not is_prime(p):
            raise RingError(f"characteristic {p} is not prime")
        if k < 1:
            raise RingError("Trunc needs at least one generator")
        self.p = p
        self.k = k
        self.domain_label = f"F{p}[x1..x{k}]"
        self.spec = f"Trunc({p},{k})"
        self._set_order((p, k + 1))
        self._idealize(ZnRing(p), k)

    def _make_labels(self):
        # from the last coordinate up: tail holds the printed terms of the
        # coordinates from i on, in element order; coordinate i is 0 on the
        # first block, which is the old tail
        p, tail = self.p, [""]
        for i in reversed(range(self.k + 1)):
            if i == 0:
                terms = [str(c) for c in range(1, p)]
            else:
                terms = [f"x{i}"] + [f"{c}*x{i}" for c in range(2, p)]
            tail = tail + [f"{t}+{r}" if r else t for t in terms for r in tail]
        return tuple(r or "0" for r in tail)


# -- catalog operations ------------------------------------------------


def _is_field_factor(ring: FiniteRing, e) -> bool:
    """Whether the factor eR (with identity e) is a field.  Over a product,
    (e1, e2)R = e1R1 x e2R2 is one exactly when one part is 0 and the other
    a field: two nonzero parts give zero divisors (e1, 0)(0, e2).

    Otherwise no inverse is searched for.  With f = 1 - e, also
    idempotent, and ef = 0, x -> (ex, fx) is a ring isomorphism
    R -> eR x fR, inverse to (a, b) -> a + b, with e and f the identities
    of the factors.  A pair is a unit exactly when both parts are, and f
    is a unit of fR, so x in eR is a unit of eR exactly when x + f is a
    unit of R: one addition and one set lookup per element of eR."""
    if e == ring.one:
        return ring.is_field()
    if isinstance(ring, ProdRing):
        (e1, e2), r1, r2 = e, ring.r1, ring.r2
        if e1 == r1.zero:
            return _is_field_factor(r2, e2)
        return e2 == r2.zero and _is_field_factor(r1, e1)
    if e == ring.zero:
        return False
    units, f = ring.units(), ring.sub(ring.one, e)
    elems, zero = ring.elements, ring.index(ring.zero)
    return all(
        ring.add(elems[i], f) in units for i in _bits(ring.ideal_mask(e)) if i != zero
    )


def _square_zero(ring: FiniteRing, ideal) -> bool:
    """Whether I*I = 0 for the ideal I, a set of elements.  The product is
    additive in each factor, so I*I = 0 exactly when g*h = 0 for every pair
    of additive generators g, h of I.  The elements are walked in element
    order, and one of I outside the span of the generators so far becomes
    a generator; its products with them and with itself are tested before
    the span grows, so a nonzero product ends the walk early."""
    zero, layout, size = ring.zero, ring.layout, len(ideal)
    span, gens = layout.span(()), []
    for i, x in enumerate(ring.elements):
        if span.bit_count() == size:
            break
        if (span >> i) & 1 or x not in ideal:
            continue
        gens.append(x)
        if any(ring.mul(x, g) != zero for g in gens):
            return False
        span = layout.span([i], span)
    return True


def classify_quasi_second_ring(ring: FiniteRing) -> str:
    """Structural classification: local with square-zero maximal ideal
    (decided on the maximal ideal's additive generators, ``_square_zero``),
    a product of two fields eR x (1-e)R for a nontrivial idempotent e
    (``_is_field_factor``), or neither."""
    local, maximal = ring.is_local()
    if local:
        return QS_LOCAL_SQUARE_ZERO if _square_zero(ring, maximal) else NOT_QS
    one, zero = ring.one, ring.zero
    for e in sorted(ring.idempotents(), key=ring.index):
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
# whitespace-insensitive, nesting allowed.  Read in one pass: a ring
# argument of Prod or Ideal is parsed in place, any other argument runs to
# the next ',' or ')', and each integer in it is read by
# ``scalars.read_int``.


def build_ring(text: str) -> FiniteRing:
    s = text.replace(" ", "")
    ring, pos = _parse_ring(s, 0, 0)
    if pos != len(s):
        raise RingError(f"trailing input at position {pos} in {text!r}")
    return ring


def _parse_ring(s: str, pos: int, depth: int):
    if depth > NESTING_CAP:
        raise SizeCapExceeded(
            f"ring spec nested past {NESTING_CAP} levels: order past the cap {ORDER_CAP}"
        )
    start = pos
    while pos < len(s) and (s[pos].isalnum() or s[pos] == "_"):
        pos += 1
    name = s[start:pos]
    if pos >= len(s) or s[pos] != "(":
        raise RingError(f"expected '(' at position {pos} in {s!r}")
    args = []
    while True:
        pos += 1  # past the '(' or ','
        if name == "Prod" or (name == "Ideal" and not args):
            arg, pos = _parse_ring(s, pos, depth + 1)
        else:
            end = pos
            while end < len(s) and s[end] not in ",)":
                end += 1
            arg, pos = s[pos:end], end
        args.append(arg)
        if pos >= len(s) or s[pos] not in ",)":
            raise RingError(f"expected ',' or ')' at position {pos} in {s!r}")
        if s[pos] == ")":
            break
    pos += 1

    def num(text):
        return scalars.read_int(text, "a ring argument", ORDER_CAP)

    if name == "Zn":
        if len(args) != 1:
            raise RingError("Zn takes one argument")
        return ZnRing(num(args[0])), pos
    if name == "GF":
        if len(args) not in (1, 2):
            raise RingError("GF takes one or two arguments")
        # a p past the cap fails the order check of the ring, before any
        # trial division; a p below it is tested before the modulus is
        # read mod p
        p = num(args[0])
        if p <= ORDER_CAP and not is_prime(p):
            raise RingError(f"characteristic {p} is not prime")
        if len(args) == 1:
            return ZnRing(p), pos

        def check_degree(k):
            capped_order(
                [(p, max(k, 0))],
                lambda n: f"GF({p},{args[1]}): order {n} exceeds the cap {ORDER_CAP}",
            )

        return QuotPolyRing(p, scalars.parse_poly(args[1], p, check_degree)), pos
    if name == "Trunc":
        if len(args) != 2:
            raise RingError("Trunc takes two arguments")
        return TruncRing(num(args[0]), num(args[1])), pos
    if name == "Prod":
        if len(args) != 2:
            raise RingError("Prod takes two arguments")
        return ProdRing(*args), pos
    if name == "Ideal":
        if len(args) != 2:
            raise RingError("Ideal takes two arguments")
        return IdealizeRing(args[0], num(args[1])), pos
    raise RingError(f"unknown ring constructor {name!r} at position {start}")
