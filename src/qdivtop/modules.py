"""Finite modules over the scalar domains, their submodules, and the
algebraic predicates that drive the topology construction.

A module is one of

* an explicit direct sum of cyclic residue modules A/(d_1) + ... + A/(d_k)
  over A = Z or A = F_p[x]; elements are labelled by tuples of component
  residues;
* a catalog ring R viewed as a cyclic module over a declared polynomial
  domain surjecting onto R; elements are labelled by the ring elements and
  the scalar action is ring multiplication.

Both are one ``FiniteModule``, built from its presentation alone.  A
submodule N, a quotient E/N or a direct summand is not built as a module
of its own: the quasi-second search reads each as a section U/L of E, one
``Submodule`` read through E's action.

All scalar action factors through the finite residue ring A/ann(E).  For a
finitely generated module the scalars acting neither as zero nor as a
surjection are exactly the nonzero nonunit residues modulo the
annihilator, so enumerating that ring enumerates every cyclic image aE;
a direct-sampling cross-check of this reduction lives in the verifier.

Both are a product of rings, the module's summands: the rings A/(d_i),
each the catalog ring ``Zn(d_i)`` or ``GF(p,d_i)`` with the residues in
the same order, or R itself.  Elements are the indices ``0..N-1`` of the
product of the summands' ``rings.DigitLayout``; their values (residue
tuples, ring elements) are kept only to parse input, and their printed
forms (``labels``) are the summands' labels, joined once.  All
arithmetic is on indices: addition is the layout's ``add(i, j)``, and
zero its index of code 0.  The action of a residue r is a row mapping
element index to element index, stored as ``array('H')``
(``ELEMENT_CAP`` = ``rings.ORDER_CAP`` = 4096 < 2^16, checked before
anything is built): the rows ``S.mul_row(S.reduce(r))`` of the summand
rings S, joined, each fixed by one image per digit or joined from a
ring's factors' rows with no product per element.  Rows are built the
first time a query asks for one.

A residue is named by its element index in the residue ring, as an
element by its own.  A residue r is r = d*u for its divisor d and a unit u
(``FiniteRing.divisor_table``, one entry per element index), so r and d
have the same image on every submodule and kill the same elements: over
A/(n) with A = Z or F_p[x], d = gcd(r, n).  So a module caches one image
and one kernel (the elements d sends to zero) per divisor index, and
scalar classes, the quasi-second search, killers, annihilators,
second-submodule tests and the multiplication and comultiplication
predicates read those.
The image dE is the product of the principal ideals dS of the summands
(Dummit and Foote, *Abstract Algebra*, §12.1), each read off its ring
(``FiniteRing.ideal_mask``) with no row of that ring: over A/(n) the
multiples of gcd(d, n) that the divisor sieve lists, over a product its
factors' ideals joined, and over an idealization a sum read off its base
(``rings.IdealizeRing``).  A unit's image is the whole module, so unit
residues need no image at all.  A cyclic submodule Rx of a sum of two or
more summands is the additive span of g*x over the additive generators g
of the residue ring (``rings.DigitLayout.span``), so it reads one row
entry per generator; on one summand it is the image xE.  A submodule a
caller passes in is checked against the generators' rows only.  Element
sets are bit masks over the indices (``_mask``, ``_bits``), which keeps
image computations and the submodule lattice cheap.  Modules are immutable
(their row, image and label caches aside) and every operation is pure.

The submodule lattice of a cyclic sum over a PID is listed, not searched:
each submodule has exactly one basis in Hermite normal form (H. Cohen, *A
Course in Computational Algebraic Number Theory*, §2.4), so the lattice
grows one summand at a time from the lattice of the summands after it
(``lattice_by_summands``), and each submodule is found once.  A catalog
ring's ideals have no such form; its lattice is the closure of {0} under
joins with the cyclic submodules (``lattice_by_joins``), which also serves
the tests as the reference for cyclic sums.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import re
from array import array
from dataclasses import dataclass

from . import rings, scalars
from .rings import SizeCapExceeded, _bits, _flag_mask, _flags, _mask
from .scalars import INTEGERS, Scalar, ScalarDomain, poly_domain


class ModuleError(ValueError):
    """Invalid module construction or operation."""


ELEMENT_CAP = rings.ORDER_CAP
LATTICE_CAP = 256


class Submodule:
    """A section U/L of a module E, with L <= U submodules, read through E's
    own action as the quasi-second search reads a module.  A submodule N is
    N/0, and ``quotient()`` gives E/N.  The residues are E's, the whole is U
    (``mask``, ``full_mask``) and zero is L (``zero_mask``).  The image of r
    is rU + L, which stands for r(U/L) under the correspondence between
    submodules of U/L and submodules of U holding L; it is gU + L for the
    divisor g of r, built from g's row over U and cached per divisor
    index; with U = E, gU is E's own cached image of g.  A mask
    is listed by the least member of each coset of L, which for L = 0 is
    every member.  The members of U are listed on first use, and for a
    submodule N whether N is second and its annihilator are decided once
    (``is_second_submodule``, ``submodule_annihilator``).

    Closure under addition and the residue action is verified for every
    element set or mask a caller passes in.  Every residue is a sum of the
    residue ring's additive generators (negation too: -1 is a sum of ones),
    so an additively closed set closed under their action is closed under
    every residue's.  The check reads each generator's own row, not its
    divisor's: on a set that is not a submodule, gN and dN can differ for
    the divisor d of g.  Masks the library computes itself (class images,
    lattice masks, split parts) are submodules by construction and skip
    the check.
    """

    __slots__ = (
        "module", "mask", "residue_ring", "zero_mask", "full_mask",
        "_members", "_images", "_second", "_annihilator",
    )

    def __init__(self, module: "FiniteModule", elements=None, mask=None):
        if mask is None:
            if elements is None:
                raise ModuleError("a submodule needs elements or a mask")
            mask = _mask([module.elem_index(e) for e in elements], module.order)
        elif mask & ~module.full_mask:
            raise ModuleError(f"mask {mask:#x} is not a subset of {module.spec_text}")
        self._set(module, mask, module.zero_mask)
        self._verify()

    @classmethod
    def _trusted(cls, module: "FiniteModule", mask: int, zero_mask=None) -> "Submodule":
        sub = cls.__new__(cls)
        sub._set(module, mask, module.zero_mask if zero_mask is None else zero_mask)
        return sub

    def _set(self, module, mask, zero_mask):
        self.module = module
        self.mask = self.full_mask = mask
        self.residue_ring = module.residue_ring
        self.zero_mask = zero_mask
        self._members = self._second = self._annihilator = None
        self._images = {}

    def _verify(self):
        E = self.module
        if not self.mask & E.zero_mask:
            raise ModuleError("a submodule must contain zero")
        members = list(_bits(self.mask))
        inside = set(members)
        elems = E.residue_ring.elements
        for g in E.residue_ring.additive_generators():
            row = E.row(g)
            if any(row[i] not in inside for i in members):
                raise ModuleError(f"not closed under the action of {elems[g]!r}")
        for i in members:
            for j in members:
                if E.add(i, j) not in inside:
                    raise ModuleError(
                        f"not closed under addition at "
                        f"{E.elements[i]!r}+{E.elements[j]!r}"
                    )

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def image_mask(self, r: int) -> int:
        g = self.residue_ring.divisor_table()[r]
        mask = self._images.get(g)
        if mask is None:
            E = self.module
            if self.mask == E.full_mask:
                rU = E.image_mask(r)
            else:
                if self._members is None:
                    self._members = list(_bits(self.mask))
                row = E.row(g)
                rU = _mask([row[i] for i in self._members], E.order)
            mask = self._images[g] = E.join_masks(rU, self.zero_mask)
        return mask

    def format_mask(self, mask: int):
        E = self.module
        labels = E.labels
        return [labels[i] for i in _coset_reps(E, self.zero_mask, mask)]

    def element_strs(self):
        return self.module.format_mask(self.mask)

    def quotient(self) -> "Submodule":
        """E/U, the section with E as its whole and U as its zero."""
        E = self.module
        return Submodule._trusted(E, E.full_mask, self.mask)

    def __repr__(self):
        return f"<Submodule size={self.size} of {self.module.spec_text}>"


@dataclass(frozen=True)
class ScalarClass:
    """A class [a] of residues with a common cyclic image aE, the residues
    named by their element indices in the residue ring."""

    members: tuple
    image: Submodule
    label: str


@dataclass(frozen=True)
class StructuralPredicates:
    divisible: bool
    simple: bool
    uniserial: bool
    multiplication: bool
    comultiplication: bool
    semiprime_annihilator: bool


@dataclass(frozen=True)
class WeakSplit:
    kind: str  # "simple" | "split" | "none"
    idempotent: object = None
    parts: tuple = None


class FiniteModule:
    """A finite module from its presentation alone: the residue ring
    A/ann(E), the summand rings, and the domain and moduli of a cyclic sum
    (neither for a catalog ring R over itself, whose one summand is R).
    The module is the product of its summands: its digit layout, element
    values, labels, action rows and images are joined from theirs, so no
    two fields can disagree.

    A row of residue r, named by its index, is one ``S.mul_row(S.reduce(r))``
    per summand ring S, joined, built and cached on first use; rows decide
    kernels, cyclic submodules of sums of two or more summands, and the
    images on sections.  The image rE is the product of the principal
    ideals dS for the divisor d of r (``FiniteRing.ideal_mask``), with no
    row, cached per divisor index;
    a unit's image is the whole module and needs none.  The value -> index
    map of the elements is built on first use (``elem_index``)."""

    def __init__(self, spec_text, residue_ring, summands, domain=None, moduli=None):
        self.spec_text = spec_text
        self.residue_ring = residue_ring
        self.summands = summands
        self.domain = domain
        self.moduli = moduli
        self.layout = layout = rings.DigitLayout.product([S.layout for S in summands])
        self.add = layout.add
        self.zero = layout.index_of[0]
        self.order = len(layout.codes)
        self._index = None
        self._labels = None
        self.zero_mask = 1 << self.zero
        self.full_mask = (1 << self.order) - 1
        self._rows = {}
        self._images = {}
        self._kernels = {}
        self._classes = None
        self._semiprime = None
        self._lattice = None
        self._cyclic = {}

    # -- element plumbing ------------------------------------------------

    @functools.cached_property
    def elements(self) -> tuple:
        """The element values by index, built on first use: the ring's own,
        or tuples of the summands' residues."""
        if self.moduli is None:
            return self.residue_ring.elements
        return tuple(itertools.product(*(S.elements for S in self.summands)))

    def elem_index(self, x) -> int:
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self.elements)}
        try:
            return self._index[x]
        except KeyError:
            raise ModuleError(f"{x!r} is not an element of {self.spec_text}") from None

    @property
    def labels(self) -> tuple:
        """The printed form of each element, by index, built once: a single
        summand's own labels, else the summands' labels as tuples."""
        if self._labels is None:
            if len(self.summands) == 1:
                self._labels = self.summands[0].labels
            else:
                parts = itertools.product(*(S.labels for S in self.summands))
                self._labels = tuple("(" + ",".join(part) + ")" for part in parts)
        return self._labels

    def format_mask(self, mask: int):
        return list(itertools.compress(self.labels, _flags(mask)))

    def row(self, r: int) -> array:
        """The action of the residue at index r, on element indices."""
        row = self._rows.get(r)
        if row is None:
            x = self.residue_ring.elements[r]
            parts = [S.mul_row(S.reduce(x)) for S in self.summands]
            row = self._rows[r] = array("H", self.layout.join(parts))
        return row

    # -- images and generated submodules ----------------------------------

    def image_mask(self, r: int) -> int:
        """Mask of rE for the residue at index r, the product of the ideals
        dS of the summands for the divisor d of r, read once per divisor."""
        ring = self.residue_ring
        g = ring.divisor_table()[r]
        mask = self._images.get(g)
        if mask is None:
            ideals = [S.ideal_mask(S.reduce(ring.elements[g])) for S in self.summands]
            mask = self._images[g] = self.layout.join_mask(ideals)
        return mask

    def kernel_mask(self, g: int) -> int:
        """Mask of the elements that the divisor at index g sends to zero,
        read off g's row once."""
        mask = self._kernels.get(g)
        if mask is None:
            flags = bytes(map(self.zero.__eq__, self.row(g)))
            mask = self._kernels[g] = _flag_mask(flags)
        return mask

    def join_masks(self, m1: int, m2: int) -> int:
        """The sum of two submodule masks: m1 plus one coset of it for each
        element of m2 not yet covered."""
        if not (m2 & ~m1):
            return m1
        if not (m1 & ~m2):
            return m2
        add = self.add
        base = list(_bits(m1))
        out = m1
        for j in _bits(m2):
            if not (out >> j) & 1:
                for i in base:
                    out |= 1 << add(i, j)
        return out

    def cyclic_mask(self, i: int) -> int:
        """Mask of Rx for the element x at index i: the additive span of
        g*x over the residue ring's additive generators g, one row entry
        per generator.  On a single summand x is itself a residue, and Rx
        is the image xE, shared by every residue with the divisor of x."""
        if len(self.summands) == 1:
            return self.image_mask(i)
        mask = self._cyclic.get(i)
        if mask is None:
            gens = self.residue_ring.additive_generators()
            mask = self._cyclic[i] = self.layout.span(self.row(g)[i] for g in gens)
        return mask

    def lattice_masks(self) -> tuple:
        """Masks of every submodule, smallest mask first: a cyclic sum's
        are listed summand by summand (``lattice_by_summands``), a catalog
        ring's found by joins of cyclic submodules (``lattice_by_joins``)."""
        if self._lattice is None:
            if self.order > LATTICE_CAP:
                raise SizeCapExceeded(
                    f"{self.spec_text}: submodule enumeration is capped at "
                    f"{LATTICE_CAP} elements, module has {self.order}"
                )
            route = lattice_by_joins if self.moduli is None else lattice_by_summands
            self._lattice = tuple(sorted(route(self)))
        return self._lattice

    def __repr__(self):
        return f"<FiniteModule {self.spec_text} order={self.order}>"


# -- the submodule lattice -------------------------------------------------


def lattice_by_joins(E: FiniteModule) -> set:
    """Every submodule mask, as the closure of {0} under joins with the
    distinct cyclic submodules: about |lattice| x |cyclics| joins.  The
    route for catalog rings, whose ideals have no normal form."""
    cyclics = list(dict.fromkeys(E.cyclic_mask(i) for i in range(E.order)))
    known = {E.zero_mask}
    queue = [E.zero_mask]
    while queue:
        m = queue.pop()
        for c in cyclics:
            if c & ~m:
                j = E.join_masks(m, c)
                if j not in known:
                    known.add(j)
                    queue.append(j)
    return known


def lattice_by_summands(E: FiniteModule) -> list:
    """Every submodule mask of a cyclic sum A/(d_1) + ... + A/(d_k), one
    per Hermite normal form basis, with no check against the lattice cap.

    Let T_i be the tail sum of the summands after i.  A submodule N of
    A/(d_i) + T_i meets T_i in a submodule N', projects onto the ideal
    (u)/(d_i) for a canonical divisor u of d_i, and is N' + A(u, v) for a
    v in T_i unique mod N' with (d_i/u)v in N'; u = d_i gives N' itself.
    Each triple (N', u, v mod N') gives one submodule, so no mask is found
    twice.  Elements run like ``itertools.product`` over the summands,
    each listing zero first, so T_i is the index block below its order and
    (0, ..., 0, u, v) sits at the index of (0, ..., 0, u, 0, ..., 0), u's
    index in its summand times the order of T_i, plus v."""
    reduce, index = E.residue_ring.reduce, E.residue_ring.index
    lattice = [E.zero_mask]
    tail = 1
    for i in reversed(range(len(E.summands))):
        summand = E.summands[i]
        gens = [
            (summand.index(u) * tail, E.row(index(reduce(cofactor))))
            for u, cofactor in summand.divisor_pairs()
        ]
        grown = []
        for n_mask in lattice:
            grown.append(n_mask)
            reps = _coset_reps(E, n_mask, (1 << tail) - 1)
            for base, row in gens:
                for v in reps:
                    if (n_mask >> row[v]) & 1:
                        grown.append(E.join_masks(n_mask, E.cyclic_mask(base + v)))
        lattice = grown
        tail *= summand.order
    return lattice


def _coset_reps(E: FiniteModule, n_mask: int, mask: int) -> list:
    """The least index of each coset of the submodule n_mask in mask, a
    union of its cosets."""
    add, members = E.add, list(_bits(n_mask))
    covered = bytearray(E.order)
    reps = []
    for i in _bits(mask):
        if not covered[i]:
            reps.append(i)
            for x in members:
                covered[add(i, x)] = 1
    return reps


# -- constructors --------------------------------------------------------


def cyclic_sum(domain: ScalarDomain, moduli) -> FiniteModule:
    """The direct sum of the cyclic modules A/(d) for the given moduli.

    Moduli are normalized to canonical associates and sorted, so the
    spec text is canonical.
    """
    norm = []
    for d in moduli:
        if not isinstance(d, Scalar):
            d = scalars.scalar(domain, d)
        if d.domain != domain:
            raise ModuleError("modulus from a different domain")
        if d.is_zero():
            raise ModuleError("modulus is zero")
        if d.is_unit():
            raise ModuleError("modulus is a unit")
        norm.append(scalars.normalize(d))
    if not norm:
        raise ModuleError("at least one modulus is required")
    norm.sort(key=lambda s: s.sort_key())
    moduli = tuple(norm)

    rings.capped_order(
        [
            (d.value, 1) if domain.kind == "int" else (domain.char, scalars.pdeg(d.value))
            for d in moduli
        ],
        _past_cap,
    )

    ann = moduli[0]
    for d in moduli[1:]:
        ann = scalars.scalar_lcm(ann, d)

    # summands with equal moduli share a ring
    ring_of = {d.value: _residue_ring(domain, d.value) for d in moduli}
    return FiniteModule(
        spec_text=f"{domain}:" + ",".join(str(d) for d in moduli),
        residue_ring=ring_of.get(ann.value) or _residue_ring(domain, ann.value),
        summands=tuple(ring_of[d.value] for d in moduli),
        domain=domain,
        moduli=moduli,
    )


def _past_cap(count) -> str:
    return f"{count} elements exceed the cap {ELEMENT_CAP}"


def _residue_ring(domain: ScalarDomain, n) -> rings.FiniteRing:
    """A/(n) as a catalog ring: its elements run in the order of the
    residues of a cyclic summand, and its layout adds them."""
    if domain.kind == "int":
        return rings.ZnRing(n)
    return rings.QuotPolyRing(domain.char, n)


def ring_cyclic(ring: rings.FiniteRing) -> FiniteModule:
    """A catalog ring as a cyclic module over itself, its one summand."""
    return FiniteModule(
        spec_text=f"ring:{ring.spec}", residue_ring=ring, summands=(ring,)
    )


_POLY_HEAD_RE = re.compile(r"F(\w+)\[x\]\Z")


def build_module(text: str) -> FiniteModule:
    """Parse a module spec: ``Z:8``, ``Z:2,4``, ``F2[x]:x^3``, ``ring:Zn(8)``.

    Every integer literal is read by ``scalars.read_int``, which refuses
    one of more than ``LONG_DIGITS`` digits by its count.  Each modulus and
    the characteristic p of F_p[x] is checked against the cap before it is
    built: p as an order before it is tested for primality, a polynomial by
    its degree before its coefficient list is allocated."""
    s = text.replace(" ", "")
    if s.startswith("ring:"):
        return ring_cyclic(rings.build_ring(s[5:]))
    head, sep, rest = s.partition(":")
    if not sep:
        raise ModuleError(f"bad module spec {text!r}: missing ':'")
    tokens = rest.split(",")
    if head == "Z":
        return cyclic_sum(
            INTEGERS, [scalars.read_int(t, "a modulus", ELEMENT_CAP) for t in tokens]
        )
    m = _POLY_HEAD_RE.match(head)
    if not m:
        raise ModuleError(f"bad module spec {text!r}: unknown domain {head!r}")
    p = scalars.read_int(m.group(1), "a characteristic", ELEMENT_CAP)
    rings.capped_order([(p, 1)], _past_cap)
    domain = poly_domain(p)

    def check_degree(k):
        rings.capped_order([(p, max(k, 0))], _past_cap)

    return cyclic_sum(domain, [scalars.parse_scalar(t, domain, check_degree) for t in tokens])


# -- spec operations ------------------------------------------------------


def annihilator(E: FiniteModule):
    """The generator of ann(E) for a cyclic sum, the modulus n of its
    residue ring A/(n); the zero ideal of a catalog ring over itself."""
    ring = E.residue_ring
    if E.moduli is None:
        return frozenset({ring.zero})
    return scalars.scalar(E.domain, ring.modulus)


def scalar_classes(E: FiniteModule) -> tuple:
    """The classes [a] of nonzero nonunit residues under equal images aE.

    Second modules (every residue acts as zero or a surjection) yield the
    empty tuple, and with it the empty space downstream.  The classes come
    in the order of their first residues, which is element order.

    A residue has its divisor's image, so one image is computed per
    divisor, and the element indices are grouped by image in one pass
    over the divisor table, in element order; the units are those whose
    divisor is one.  Over a catalog ring distinct divisors can share an
    image, and then share its group.
    """
    if E._classes is None:
        ring = E.residue_ring
        one, zero = ring.one_index, ring.zero_index
        groups, group_of = {}, {}
        for i, g in enumerate(ring.divisor_table()):
            if g != one and g != zero:
                members = group_of.get(g)
                if members is None:
                    members = group_of[g] = groups.setdefault(E.image_mask(i), [])
                members.append(i)
        labels = ring.labels
        E._classes = tuple(
            ScalarClass(
                members=tuple(members),
                image=Submodule._trusted(E, mask),
                label=f"[{labels[members[0]]}]",
            )
            for mask, members in groups.items()
        )
    return E._classes


def enumerate_submodules(E: FiniteModule) -> tuple:
    """Every submodule as a Submodule value, smallest mask first.  The masks
    are joins of cyclic submodules, so they are not checked again."""
    return tuple(Submodule._trusted(E, m) for m in E.lattice_masks())


def _killer_divisors(E: FiniteModule, mask: int) -> list:
    """Indices of the divisors whose kernels hold the mask, in divisor order."""
    return [g for g in E.residue_ring.divisors() if not mask & ~E.kernel_mask(g)]


def _killer_residues(E: FiniteModule, mask: int) -> int:
    """The mask of the residues killing the mask: those whose divisor kills
    it, read off the divisor table with one kernel test per divisor."""
    killers = set(_killer_divisors(E, mask))
    return _flag_mask(bytes(map(killers.__contains__, E.residue_ring.divisor_table())))


def submodule_annihilator(N: Submodule):
    """(generator or ring-side killer mask, maximality flag), decided once
    per N.

    Over a cyclic sum the killers pull back to the ideal of A generated by
    the gcd of the annihilator with the killer divisors (a residue r and
    gcd(r, n) generate one ideal), and the flag is the irreducibility of
    that generator; over a catalog ring R the flag is "R/I is a field" for
    the killer ideal I, decided on R itself (``FiniteRing.is_maximal``).
    """
    if N._annihilator is None:
        E = N.module
        ring = E.residue_ring
        if E.moduli is None:
            ideal = _killer_residues(E, N.mask)
            N._annihilator = ideal, ring.is_maximal(ideal)
        else:
            killers = [ring.elements[g] for g in _killer_divisors(E, N.mask)]
            gen = functools.reduce(
                scalars.scalar_gcd,
                [scalars.scalar(E.domain, g) for g in killers],
                annihilator(E),
            )
            # a divisor of the nonzero annihilator, so never zero
            N._annihilator = gen, not gen.is_unit() and scalars.is_irreducible(gen)
    return N._annihilator


def is_second_submodule(N: Submodule) -> bool:
    """Every residue maps N onto N or to zero, decided once per N.  A
    residue acts on N as its divisor does, and a unit, whose divisor is
    one, maps N onto N."""
    if N._second is None:
        ring = N.residue_ring
        one = ring.one_index
        N._second = all(
            N.image_mask(i) in (N.mask, N.zero_mask)
            for g, i in ring.divisors().items()
            if g != one
        )
    return N._second


def find_quasi_second_violation(E: FiniteModule):
    """First residue pair (a, b) with 0 != bE <= aE != E but bE != aE.

    Returns None when E is quasi second.  Whether a pair qualifies depends
    only on the two images, so the search runs over the distinct images of
    the nonunit residues, zero included, in order of first appearance, and
    names the first residue with each image, read per divisor.  This
    gives the first witness of the search over all residue pairs: if a
    residue's image admits no b, neither does any later residue with that
    image, and the first qualifying b is the first residue with its image.  A unit's image is E, so a unit
    is never part of a witness.  Given bE <= aE, bE != aE exactly when bE
    is smaller, so each a is tested only against the nonzero smaller images.
    """
    ring = E.residue_ring
    one = ring.one_index
    first = {}
    for g, i in ring.divisors().items():
        if g != one:
            first.setdefault(E.image_mask(i), i)
    position = {m: k for k, m in enumerate(first)}
    size = {m: m.bit_count() for m in first}
    # nonzero images by size, each size in order of first appearance
    smaller = sorted((m for m in first if m != E.zero_mask), key=size.__getitem__)
    sizes = [size[m] for m in smaller]
    for ma in first:
        if ma == E.full_mask:
            continue
        below = smaller[: bisect.bisect_left(sizes, size[ma])]
        hits = [mb for mb in below if not (mb & ~ma)]
        if hits:
            mb = min(hits, key=position.__getitem__)
            return {
                "a": ring.labels[first[ma]],
                "b": ring.labels[first[mb]],
                "aE": E.format_mask(ma),
                "bE": E.format_mask(mb),
            }
    return None


def is_quasi_second(E: FiniteModule) -> bool:
    return find_quasi_second_violation(E) is None


def semiprime_annihilator(E: FiniteModule) -> bool:
    """The residue ring A/ann(E) has no nonzero element squaring to zero,
    decided once per module."""
    if E._semiprime is None:
        ring = E.residue_ring
        zero = ring.zero
        E._semiprime = not any(
            r != zero and ring.mul(r, r) == zero for r in ring.elements
        )
    return E._semiprime


def structural_predicates(E: FiniteModule) -> StructuralPredicates:
    """The lattice-driven predicate record.

    ``divisible`` holds only for the one-element module: a finite nonzero
    module over these (infinite) domains always has a nonzero annihilator
    scalar, which cannot act surjectively.
    """
    ring = E.residue_ring
    lat = E.lattice_masks()
    zmask = E.zero_mask

    # the masks are sorted by value and a proper subset has a smaller value,
    # so the lattice is a chain iff each mask lies inside the next
    uniserial = all(not a & ~b for a, b in itertools.pairwise(lat))

    # N = (N:E)E: the join of the images rE inside N, one image per divisor
    images = set(map(E.image_mask, ring.divisors().values()))
    multiplication = all(
        functools.reduce(E.join_masks, (m for m in images if not m & ~n), zmask) == n
        for n in lat
    )
    # N = ann_E(ann_R(N)): the meet of the kernels of N's killer divisors,
    # never empty, since zero kills N
    comultiplication = all(
        functools.reduce(operator.and_, map(E.kernel_mask, _killer_divisors(E, n)))
        == n
        for n in lat
    )
    return StructuralPredicates(
        divisible=E.order == 1,
        simple=E.order > 1 and len(lat) == 2,
        uniserial=uniserial,
        multiplication=multiplication,
        comultiplication=comultiplication,
        semiprime_annihilator=semiprime_annihilator(E),
    )


def _is_minimal_mask(E: FiniteModule, mask: int) -> bool:
    if mask == E.zero_mask:
        return False
    return all(E.cyclic_mask(i) == mask for i in _bits(mask) if i != E.zero)


def weak_idempotent_split(E: FiniteModule) -> WeakSplit:
    """Decompose E = eE + (1-e)E for a weak idempotent e, if possible.

    Returns "simple" when E has no proper nonzero submodule, a "split"
    with two nonzero minimal parts meeting trivially and summing to E,
    or "none".  Weak idempotents of the domain are exactly the idempotent
    residues of A/ann(E).  For every idempotent e the parts eE and (1-e)E
    sum to E, since x = ex + (1-e)x, and meet in zero, since y = ex =
    (1-e)z gives y = ey = e(1-e)z = 0.  So only whether both parts are
    nonzero and minimal is tested, and e = 0 or 1, whose parts are 0 and
    E, is not tried.
    """
    if all(
        E.cyclic_mask(i) == E.full_mask for i in range(E.order) if i != E.zero
    ):
        return WeakSplit("simple")
    ring = E.residue_ring
    zmask = E.zero_mask
    for e in sorted(ring.idempotents() - {ring.zero, ring.one}, key=ring.index):
        part_e = E.image_mask(ring.index(e))
        part_f = E.image_mask(ring.index(ring.sub(ring.one, e)))
        if part_e == zmask or part_f == zmask:
            continue
        if _is_minimal_mask(E, part_e) and _is_minimal_mask(E, part_f):
            return WeakSplit(
                "split",
                idempotent=e,
                parts=(Submodule._trusted(E, part_e), Submodule._trusted(E, part_f)),
            )
    return WeakSplit("none")
