"""Planted faults, one per row: each row names a rule, one fault planted with
``monkeypatch`` in the layer that the rule checks, and a corpus instance (or,
for a fault that no corpus instance shows, a ``CAP_LADDER_RINGS`` or
``JOINED_ROW_RINGS`` ring) on which the rule then fails with a witness,
while the unmutated rule passes there.  A rule with no row has no fault
shown to make it fail.  Faults that no rule is shown to see are listed in
``RULE_INVISIBLE``, each with the reason and with a Tier-1 reference
comparison that catches it.  Faults that change no result on any module
built here are listed in ``EQUIVALENT_MUTANTS``, each with its proof.

No rule reads ``topology.hasse_edges``: the pinned ``dot`` and ``analyze``
stdout in ``test_cli.py`` guards it."""

import collections
import dataclasses
import itertools
from array import array

import pytest

from qdivtop import modules, oracle, rings, topology, verifier
from qdivtop.verifier import FAIL, PASS, Instance, run_rule
from common import CAP_LADDER_RINGS, JOINED_ROW_RINGS, RANDOM_RINGS, mutated_qs_finder


def rn_read_as_re(mp):
    # the submodule's image of the residue at index r is rE, not rN
    mp.setattr(modules.Submodule, "image_mask", lambda self, r: self.module.image_mask(r))


def quotient_image_without_n(mp):
    # a section U/L's image of r is rU, not rU + L: the quotient E/N reads
    # rE, not rE + N
    def planted(self, r):
        row = self.module.row(self.residue_ring.divisor_table()[r])
        return rings._mask([row[i] for i in rings._bits(self.mask)], self.module.order)

    mp.setattr(modules.Submodule, "image_mask", planted)


def submodule_zero_is_n(mp):
    # a section U/L's zero is U, not L, so a submodule N/0 has zero N, and
    # its image of r is rU.  Zero U alone would make every image rU + U = U,
    # a second section, which R16 cannot tell from a correct one
    quotient_image_without_n(mp)
    set_fields = modules.Submodule._set

    def planted(self, module, mask, zero_mask):
        set_fields(self, module, mask, zero_mask)
        self.zero_mask = mask

    mp.setattr(modules.Submodule, "_set", planted)


def second_always(mp):
    mp.setattr(modules, "is_second_submodule", lambda N: True)


def maximality_inverted(mp):
    annihilator = modules.submodule_annihilator

    def inverted(N):
        gen, maximal = annihilator(N)
        return gen, not maximal

    mp.setattr(modules, "submodule_annihilator", inverted)


def maximality_against_one(mp):
    # R/I passes for a field when every x outside I has some x*y in the
    # coset {1}, not in 1 + I: over Z/(6), (3) = {0, 3} is maximal, but
    # 2*y is even, never 1, so (3) reads as not maximal
    def planted(self, ideal):
        one = self.index(self.one)
        if (ideal >> one) & 1:
            return False
        return all(
            one in self.mul_row(self.elements[i])
            for i, g in enumerate(self.divisor_table())
            if g != one and not (ideal >> i) & 1
        )

    mp.setattr(rings.FiniteRing, "_decide_maximal", planted)


def killers_with_one(mp):
    # the residue ring's one kills every submodule
    killer_divisors = modules._killer_divisors
    mp.setattr(
        modules,
        "_killer_divisors",
        lambda E, mask: [*killer_divisors(E, mask), E.residue_ring.index(E.residue_ring.one)],
    )


def span_one_coset(mp):
    # joining y to a subgroup M adds only the coset M + y, not M + 2y, ...
    def planted(self, ys, mask=None):
        if mask is None:
            mask = 1 << self.index_of[0]
        for y in ys:
            mask |= rings._mask([self.add(i, y) for i in rings._bits(mask)], len(self.codes))
        return mask

    mp.setattr(rings.DigitLayout, "span", planted)


def span_at_first_generator(mp):
    # a cyclic submodule spans the row entry of the first additive
    # generator only
    def planted(self, i):
        first = self.residue_ring.additive_generators()[0]
        return self.layout.span([self.row(first)[i]])

    mp.setattr(modules.FiniteModule, "cyclic_mask", planted)


def ideals_joined_in_swapped_order(mp):
    # the image of a residue on a sum joins its summands' ideals last
    # summand first
    join_mask = rings.DigitLayout.join_mask
    mp.setattr(
        rings.DigitLayout, "join_mask", lambda self, masks: join_mask(self, masks[::-1])
    )


def ideal_read_as_the_additive_span(mp):
    # the principal ideal aR of Ideal(R,d) is read as the additive subgroup
    # generated by a, with no product: over characteristic 2 every image
    # has 2 elements
    mp.setattr(
        rings.IdealizeRing, "ideal_mask", lambda self, a: self.layout.span([self.index(a)])
    )


def product_ideals_joined_in_swapped_order(mp):
    # the principal ideal of (a1, a2) in Prod(R1,R2) joins a2R2 before a1R1
    def planted(self, a):
        return self.layout.join_mask([self.r2.ideal_mask(a[1]), self.r1.ideal_mask(a[0])])

    mp.setattr(rings.ProdRing, "ideal_mask", planted)


def idealization_ideal_without_the_base_ideal(mp):
    # the principal ideal of (a, m) in Ideal(R,d) keeps the multiples
    # b(a, m) and drops (0, (aR)^d).  Over a field base a nonunit has a = 0
    # and no such part, but a unit's ideal, which the cyclic submodules of
    # the lattice read, is then too small
    def planted(self, t):
        base, multiples = self.base, [0] * self.base.order
        for x in (t[0], *t[1]):
            multiples = [i * base.order + j for i, j in zip(multiples, base.mul_row(x))]
        return rings._mask(multiples, self.order)

    mp.setattr(rings.IdealizeRing, "ideal_mask", planted)


def multiples_one_step_short(mp):
    # the multiples of g in Z/(n), which the divisor sieve writes g on and
    # the image of g on Z:n is read off, stop one step short of n
    mp.setattr(rings.ZnRing, "multiples", lambda self, g: range(0, self.n - g, g))


def product_divisors_joined_in_swapped_order(mp):
    # the divisor table of Prod(R1,R2) joins R2's table before R1's
    def planted(self):
        tables = [self.r2.divisor_table(), self.r1.divisor_table()]
        return array("H", self.layout.join(tables))

    mp.setattr(rings.ProdRing, "_make_divisor_table", planted)


def summand_listing_without_u_equal_d(mp):
    # the lattice of a cyclic sum, grown one summand A/(d_i) at a time,
    # leaves out the case u = d_i, a submodule N' of the tail kept as it
    # is: every listed submodule then projects onto a nonzero ideal of the
    # first summand
    def planted(E):
        reduce, index = E.residue_ring.reduce, E.residue_ring.index
        zero = E.elements[E.zero]
        lattice, tail = [E.zero_mask], 1
        for i in reversed(range(len(E.summands))):
            summand = E.summands[i]
            gens = [
                (E.elem_index(zero[:i] + (u,) + zero[i + 1 :]), E.row(index(reduce(cofactor))))
                for u, cofactor in summand.divisor_pairs()
            ]
            grown = []
            for n_mask in lattice:
                reps = modules._coset_reps(E, n_mask, (1 << tail) - 1)
                for base, row in gens:
                    for v in reps:
                        if (n_mask >> row[v]) & 1:
                            grown.append(E.join_masks(n_mask, E.cyclic_mask(base + v)))
            lattice = grown
            tail *= summand.order
        return lattice

    mp.setattr(modules, "lattice_by_summands", planted)


def units_only_one(mp):
    mp.setattr(rings._EuclideanQuotient, "units", lambda self: frozenset([self.one]))


def x_step_without_wrap(mp):
    # multiplication by x in F_p[x]/(f) drops the top digit instead of
    # wrapping it round to top*(x^d mod f), so x*x^(d-1) is 0
    mp.setattr(rings.QuotPolyRing, "_x_wraps", lambda self: [self.layout.index_of[0]] * self.p)


def x_step_wrap_sign_flipped(mp):
    # the top digit wraps round to +top*(f - x^d), not -top*(f - x^d): over
    # F_3, x^2 is 1 instead of -1 mod x^2+1
    def planted(self):
        p, low = self.p, self.modulus[:-1]
        codes = [sum(top * c % p * p**k for k, c in enumerate(low)) for top in range(p)]
        return [self.layout.index_of[code] for code in codes]

    mp.setattr(rings.QuotPolyRing, "_x_wraps", planted)


def square_zero_without_squares(mp):
    # the square-zero walk tests each new generator against the earlier
    # ones only, not against itself: on Zn(8), 2*2 goes untested
    def planted(ring, ideal):
        zero, layout, size = ring.zero, ring.layout, len(ideal)
        span, gens = layout.span(()), []
        for i, x in enumerate(ring.elements):
            if span.bit_count() == size:
                break
            if (span >> i) & 1 or x not in ideal:
                continue
            gens.append(x)
            if any(ring.mul(x, g) != zero for g in gens[:-1]):
                return False
            span = layout.span([i], span)
        return True

    mp.setattr(rings, "_square_zero", planted)


def product_idempotents_trivial(mp):
    # a product ring reports 0 and 1 as its only idempotents, so it passes
    # for local and its nonunits for the maximal ideal
    mp.setattr(rings.ProdRing, "idempotents", lambda self: frozenset((self.zero, self.one)))


def idealization_translated_by_the_coordinate(mp):
    # a row of Ideal(R,d) translates coordinate k by n_k*m_k, not b*m_k, in
    # (a,m)(b,n) = (ab, a*n_k + b*m_k): the product of (0,e_k) and (0,n)
    # becomes (0,n_k*e_k), so the image of (0,n) is the span of the e_k
    # with n_k != 0.  The construction check rejects it up to 64 elements,
    # where the rows are the checked mul table; past that R10 sees it on
    # Ideal(Zn(11),1), in the kernels it reads off rows
    def planted(self, t):
        base, join, row = self.base, self.layout.join, []
        a_row, add = base.mul_row(t[0]), base.layout.add
        m_rows = [base.mul_row(m) for m in t[1]]
        for ab in a_row:
            shifted = [
                [add(x, m_row[n]) for n, x in enumerate(a_row)] for m_row in m_rows
            ]
            row += join([[ab], *shifted])
        return row

    mp.setattr(rings.IdealizeRing, "mul_row", planted)


def idealization_without_the_translation(mp):
    # a row of Ideal(R,d) drops the translation b*m_k from coordinate k of
    # (a,m)(b,n) = (ab, a*n_k + b*m_k).  Up to 64 elements the rows are the
    # checked mul table, and the identity law rejects it at construction;
    # past that no rule is shown to see it (``RULE_INVISIBLE``)
    def planted(self, t):
        base, join, row = self.base, self.layout.join, []
        a_row = base.mul_row(t[0])
        for ab in a_row:
            row += join([[ab], *[a_row] * self.d])
        return row

    mp.setattr(rings.IdealizeRing, "mul_row", planted)


def product_rows_joined_in_swapped_order(mp):
    # a row of Prod(R1,R2) past the check cap joins R2's row before R1's
    mp.setattr(
        rings.ProdRing,
        "mul_row",
        lambda self, t: self.layout.join([self.r2.mul_row(t[1]), self.r1.mul_row(t[0])]),
    )


def closure_reads_up_sets(mp):
    # the closure of a set joins its points' up-sets, the open sets they
    # generate, not their down-sets
    def planted(space, mask):
        out = 0
        for i in rings._bits(mask):
            out |= space.up[i]
        return out

    mp.setattr(topology, "closure", planted)


def up_sets_without_the_point(mp):
    # each up-set of the space leaves out its own point, so the basis set
    # of a gcd class misses that class
    init = topology.QuasiDivisorSpace.__init__

    def planted(self, classes, down, provenance):
        init(self, classes, down, provenance)
        self.up = tuple(u & ~(1 << i) for i, u in enumerate(self.up))

    mp.setattr(topology.QuasiDivisorSpace, "__init__", planted)


def interior_every_member_inside(mp):
    # the interior table keeps the points all of whose members lie inside
    # the set, not the points that some member inside the set holds.  The
    # members inside mask k are the members disjoint from its complement,
    # mask 2^n - 1 - k
    def planted(topo):
        ands = oracle._prefix_ands(topo.members, topo.lacks)
        return tuple(
            sum(1 << j for j, h in enumerate(topo.holds) if not h & ~inside)
            for inside in reversed(ands)
        )

    mp.setattr(oracle.FiniteTopology, "interior_table", property(planted))


def prefix_and_without_the_last_point(mp):
    # the sweep tables' prefix AND leaves the last point out: the entry of
    # a mask that holds it is the entry of the mask without it, so the
    # closure table, which R7 and R8 both read, loses that point's closure.
    # R7's interiors are that table read backwards, so on Z:8, whose last
    # point is [4], the interior of {[2]} is the first to differ
    prefix_ands = oracle._prefix_ands
    mp.setattr(oracle, "_prefix_ands", lambda first, lacks: prefix_ands(first, lacks[:-1]) * 2)


def min_opens_without_the_point(mp):
    # m_i is read off the transposed family without i itself, as the strict
    # up-set of i: still an open set on a T0 space, so the alexandrov check,
    # which R1 runs before T0, passes
    init = oracle.FiniteTopology.__init__

    def planted(self, n, opens, full):
        init(self, n, opens, full)
        self.min_opens = tuple(
            sum(1 << j for j in range(n) if j != i and not h & self.lacks[j])
            for i, h in enumerate(self.holds)
        )

    mp.setattr(oracle.FiniteTopology, "__init__", planted)


def pair_scan_one_point_short(mp):
    # the oracle's one scan over pairs of points leaves the last point out,
    # so a pair of disjoint m_i through it goes unseen
    mp.setattr(
        oracle, "combinations", lambda points, r: itertools.combinations(points[:-1], r)
    )


def is_open_accepts_every_singleton(mp):
    # membership in the family also admits every one-point set
    is_open = oracle.FiniteTopology.is_open
    mp.setattr(
        oracle.FiniteTopology,
        "is_open",
        lambda self, mask: mask.bit_count() == 1 or is_open(self, mask),
    )


def closure_union_skips_the_last_point(mp):
    # the point closures that the structure checks OR over a mask read the
    # last point's closure as empty, so the union over a mask that holds
    # the last point leaves that closure out
    init = oracle.FiniteTopology.__init__

    def planted(self, n, opens, full):
        init(self, n, opens, full)
        self.point_closures = (*self.point_closures[:-1], 0)

    mp.setattr(oracle.FiniteTopology, "__init__", planted)


def idempotents_zero_and_one(mp):
    # Z/(n) and F_p[x]/(f) report 0 and 1 as their only idempotents, so a
    # residue ring that splits reads as indecomposable
    mp.setattr(
        rings._EuclideanQuotient, "idempotents", lambda self: frozenset((self.zero, self.one))
    )


def is_open_refuses_the_last_singleton(mp):
    # membership in the family turns down the last point's singleton
    is_open = oracle.FiniteTopology.is_open
    mp.setattr(
        oracle.FiniteTopology,
        "is_open",
        lambda self, mask: mask != 1 << (self.n - 1) and is_open(self, mask),
    )


def largest_image_holds_no_other_point(mp):
    # the down-set read off the largest image keeps its own point only, so
    # on a two-point chain the points fall apart into an antichain
    init = topology.QuasiDivisorSpace.__init__

    def planted(self, classes, down, provenance):
        down = list(down)
        if down:
            top = max(range(len(down)), key=lambda j: classes[j].image.size)
            down[top] = 1 << top
        init(self, classes, down, provenance)

    mp.setattr(topology.QuasiDivisorSpace, "__init__", planted)


def point_off_the_first_summand(mp):
    # the point a*(1,...,1) of a sum is read off its first summand, with
    # index 0, zero, in the others.  build_space joins one index per
    # summand, and no other join is of one-entry lists
    join = rings.DigitLayout.join

    def planted(self, parts):
        if all(len(part) == 1 for part in parts):
            parts = [parts[0], *[[0]] * (len(parts) - 1)]
        return join(self, parts)

    mp.setattr(rings.DigitLayout, "join", planted)


def finder_finds_nothing(mp):
    # the quasi-second search reports no violating pair, so every module
    # passes for quasi second
    mp.setattr(verifier, "QS_VIOLATION_FINDER", lambda E: None)


def finder_without_the_guard(mp):
    # the quasi-second search reports pairs with aE = E as well (the C8
    # fault), so every module with a nonzero proper image fails it
    mp.setattr(verifier, "QS_VIOLATION_FINDER", mutated_qs_finder)


def nested_read_off_image_sizes(mp):
    # nestedness counts the distinct image sizes, not the distinct up-set
    # sizes: two incomparable images of different sizes pass for a chain
    report = topology.connectivity_report

    def planted(space):
        sizes = {c.image.size for c in space.classes}
        return dataclasses.replace(report(space), nested=len(sizes) == space.n)

    mp.setattr(topology, "connectivity_report", planted)


def t3_read_off_down_sets(mp):
    # T3 asks every down-set, not every up-set, to be its own down-closure,
    # which always holds
    report = topology.separation_report

    def planted(space):
        t3 = all(topology.closure(space, d) == d for d in space.down)
        return dataclasses.replace(report(space), t3=t3)

    mp.setattr(topology, "separation_report", planted)


def t1_at_some_point(mp):
    # the oracle's T1 asks m_i = {i} for some point i, not for every one
    mp.setitem(
        oracle._AXIOMS,
        "T1",
        lambda topo: any(m == 1 << i for i, m in enumerate(topo.min_opens)),
    )


def t2_pairs_each_point_with_itself(mp):
    # the T2 sweep also compares each m_i with itself, which it always meets
    def planted(topo):
        m = topo.min_opens
        return not any(m[i] & m[j] for i in range(topo.n) for j in range(i, topo.n))

    mp.setitem(oracle._AXIOMS, "T2", planted)


def t3_pairs_in_one_direction(mp):
    # the oracle's T3 passes a pair with meeting m_x and m_y when one point
    # lies in the other's m (T5's comparability), not only when each does
    mp.setitem(oracle._AXIOMS, "T3", lambda topo: topo.pair_verdicts["T5"])


def hyperconnected_and_nested_swapped(mp):
    # connectivity_report returns the nestedness as the hyperconnectedness
    # and the other way round
    report = topology.connectivity_report

    def planted(space):
        r = report(space)
        return dataclasses.replace(r, hyperconnected=r.nested, nested=r.hyperconnected)

    mp.setattr(topology, "connectivity_report", planted)


# (fault, proof) for faults that change no result on any module built here
EQUIVALENT_MUTANTS = [
    (
        hyperconnected_and_nested_swapped,
        "hyperconnected means at most one maximal point, and a chain has at "
        "most one, so it remains to show that one maximal point gives a "
        "chain.  On a cyclic sum with annihilator n the points are the "
        "divisors g of n other than 1 and n, with gE <= hE exactly when h | g "
        "(a summand A/(d_i) holding the full power of each prime of n reads "
        "that power of g off gcd(g, d_i)), so the maximal points are the "
        "primes dividing n, and one of them makes n a prime power, whose "
        "divisors form a chain.  On a ring R over itself one maximal point "
        "aR holds every nonunit, so R is local with the principal maximal "
        "ideal aR, and its ideals are the powers of aR (Atiyah-Macdonald, "
        "Prop 8.8), a chain",
    ),
]


# (fault, reason) for faults that no rule is shown to see, each caught by a
# Tier-1 reference comparison
RULE_INVISIBLE = [
    (
        idealization_without_the_translation,
        "no rule fails on the JOINED_ROW_RINGS idealization, Ideal(Zn(4),3), "
        "Ideal(Zn(9),1) or the cap-ladder Ideal and Trunc rings: principal "
        "ideals read no row, and over a field base a nonunit (0, m) then "
        "kills the whole ring instead of 0 x R^d, which still holds every "
        "image of a nonunit; the value-product comparison of rows in "
        "test_rings.py catches it",
    ),
]

# faults in the rows Prod and Ideal rings join from their factors' rows; the
# comparison of rows with value products in test_rings.py catches each past
# the check cap.  Up to the cap an Ideal ring's checked mul table is its
# rows, so its construction check rejects the first as well
JOINED_ROW_FAULTS = [
    idealization_without_the_translation,
    product_rows_joined_in_swapped_order,
]

# (rule, fault, instance, witness under the fault); an instance spec with a
# colon is a module, one without is a catalog ring
ROWS = [
    ("R1", min_opens_without_the_point, "Z:6", "T0 fast=True definitional=False"),
    (
        "R2",
        largest_image_holds_no_other_point,
        "Z:8",
        "T1=True but quasi_second=False; a=2 b=4 aE={0,2,4,6} bE={0,4}",
    ),
    (
        "R2",
        t1_at_some_point,
        "Z:8",
        "T1=True but quasi_second=False; a=2 b=4 aE={0,2,4,6} bE={0,4}",
    ),
    (
        "R2",
        point_off_the_first_summand,
        "Z:2,3",
        "T1=False but quasi_second=True; comparable points [2] <= [3]",
    ),
    (
        "R2",
        finder_finds_nothing,
        "Z:6,9",
        "T1=False but quasi_second=True; comparable points [6] <= [2]",
    ),
    (
        "R3",
        t2_pairs_each_point_with_itself,
        "Z:6",
        "{'quasi_second': True, 'all_images_maximal': True, 'discrete': True, "
        "'metrizable': True, 'T2': False, 'T1': True}",
    ),
    (
        "R2",
        product_divisors_joined_in_swapped_order,
        "ring:Prod(Zn(2),Zn(3))",
        "T1=False but quasi_second=True; comparable points [(0,2)] <= [(0,1)]",
    ),
    ("R4", nested_read_off_image_sizes, "Z:6", "uniserial=False nested=True"),
    (
        "R4",
        idealization_ideal_without_the_base_ideal,
        "ring:Ideal(Zn(2),1)",
        "uniserial=False nested=True",
    ),
    ("R4", summand_listing_without_u_equal_d, "Z:2,3", "uniserial=True nested=False"),
    (
        "R5",
        pair_scan_one_point_short,
        "Z:6",
        "sum-bound criterion=False (pair ('[2]', '[3]')) but hyperconnected=True",
    ),
    (
        "R6",
        is_open_accepts_every_singleton,
        "Z:8",
        "point [4]: isolated=True singleton_basis=False maximal_image=False",
    ),
    ("R7", interior_every_member_inside, "Z:8", "interior formula differs on ['[2]']"),
    ("R7", closure_reads_up_sets, "Z:8", "closure formula differs on ['[2]']"),
    ("R7", prefix_and_without_the_last_point, "Z:8", "interior formula differs on ['[2]']"),
    (
        "R8",
        prefix_and_without_the_last_point,
        "Z:8",
        "StructureChecks(minimal_neighborhoods_ok=True, closure_union_ok=False, "
        "open_dense_contains_maximal_ok=True)",
    ),
    (
        "R8",
        closure_union_skips_the_last_point,
        "Z:8",
        "StructureChecks(minimal_neighborhoods_ok=True, closure_union_ok=False, "
        "open_dense_contains_maximal_ok=True)",
    ),
    (
        "R8",
        closure_union_skips_the_last_point,
        "F2[x]:x^2,x^3+1",
        "StructureChecks(minimal_neighborhoods_ok=True, closure_union_ok=False, "
        "open_dense_contains_maximal_ok=True)",
    ),
    ("R9", rn_read_as_re, "Z:6", "quasi second, but [2] with image {0,2,4} is not second"),
    (
        "R9",
        product_rows_joined_in_swapped_order,
        "ring:Prod(Zn(31),Zn(29))",
        "quasi second, but [(1,0)] with image {"
        + ",".join(f"({u},0)" for u in range(31))
        + "} is not second",
    ),
    (
        "R9",
        finder_without_the_guard,
        "Z:6",
        "semiprime annihilator and all class images second, yet a=1 b=2 "
        "aE={0,1,2,3,4,5} bE={0,2,4}",
    ),
    (
        "R10",
        maximality_inverted,
        "Z:4",
        "class [2]: annihilator of the image is not maximal (generator 2)",
    ),
    (
        "R10",
        product_rows_joined_in_swapped_order,
        "ring:Prod(Zn(31),Zn(29))",
        "class [(1,0)]: annihilator of the image is not maximal (killer ideal {(0,0)})",
    ),
    (
        "R10",
        idealization_translated_by_the_coordinate,
        "ring:Ideal(Zn(11),1)",
        "class [(0,(1))]: annihilator of the image is not maximal "
        "(killer ideal {(0,(0))})",
    ),
    (
        "R10",
        product_ideals_joined_in_swapped_order,
        "ring:Prod(Zn(2),Zn(3))",
        "class [(0,1)]: annihilator of the image is not maximal (killer ideal {})",
    ),
    (
        "R10",
        maximality_against_one,
        "ring:Zn(6)",
        "class [2]: annihilator of the image is not maximal (killer ideal {0,3})",
    ),
    (
        "R10",
        killers_with_one,
        "Z:4",
        "class [2]: annihilator of the image is not maximal (generator 1)",
    ),
    (
        "R11",
        x_step_wrap_sign_flipped,
        "ring:Prod(Zn(2),GF(3,x^2+1))",
        "{'quasi_second': True, 'all_images_second': True, "
        "'all_annihilators_maximal': False}",
    ),
    (
        "R11",
        second_always,
        "Z:8",
        "{'quasi_second': False, 'all_images_second': True, "
        "'all_annihilators_maximal': False}",
    ),
    ("R12", idempotents_zero_and_one, "Z:6", "quasi_second=True but decomposition=none"),
    (
        "R12",
        finder_without_the_guard,
        "ring:Prod(Zn(2),GF(2,x^2+x+1))",
        "quasi_second=False but decomposition=split at e=(0,1)",
    ),
    (
        "R13",
        is_open_refuses_the_last_singleton,
        "Z:6",
        "T1=True but points=2 discrete=False",
    ),
    (
        "R14",
        square_zero_without_squares,
        "Zn(8)",
        "brute=False classification=LocalSquareZeroMax; "
        "witness a=2 b=4 (a)={0,2,4,6} (b)={0,4}",
    ),
    (
        "R14",
        product_idempotents_trivial,
        "Prod(Zn(2),Zn(3))",
        "brute=True classification=NotQuasiSecond",
    ),
    (
        "R14",
        ideal_read_as_the_additive_span,
        "Ideal(Trunc(2,2),3)",
        "brute=True classification=NotQuasiSecond",
    ),
    (
        "R15",
        finder_without_the_guard,
        "Ideal(Zn(2),1)",
        "idealization of a field not quasi second: a=(1,(0)) b=(0,(1))",
    ),
    ("R16", submodule_zero_is_n, "Z:4", "quotient by {0} is not quasi second: a=2 b=0"),
    ("R16", quotient_image_without_n, "Z:4", "quotient by {0,2} is not quasi second: a=2 b=0"),
    ("R17", t3_read_off_down_sets, "Z:8", "T3 fast=True definitional=False"),
    ("R17", t3_pairs_in_one_direction, "Z:8", "T3 fast=False definitional=True"),
    (
        "R19",
        rn_read_as_re,
        "Z:6,6",
        "quasi_second=True but summand condition=False; "
        "scalar 1: annihilators 6 (maximal=False) vs 6 (maximal=False)",
    ),
    (
        "R19",
        maximality_inverted,
        "Z:6,6",
        "quasi_second=True but summand condition=False; "
        "scalar 2: annihilators 3 (maximal=False) vs 3 (maximal=False)",
    ),
    ("R20", up_sets_without_the_point, "Z:3,4", "U_gcd(4,6) != U_4 & U_6: [] vs ['[2]']"),
    (
        "R21",
        span_one_coset,
        "Z:2,4",
        "unit vector (0,1): cyclic submodule {(0,0),(0,1)} differs from the summand",
    ),
    (
        "R21",
        span_at_first_generator,
        "F2[x]:x,x^2",
        "unit vector (0,1): cyclic submodule {(0,0),(0,1)} differs from the summand",
    ),
    (
        "R21",
        ideals_joined_in_swapped_order,
        "Z:2,3",
        "scalar -11: direct image {(0,0),(0,1),(0,2),(1,0),(1,1),(1,2)} differs "
        "from the residue image",
    ),
    (
        "R21",
        multiples_one_step_short,
        "Z:8",
        "scalar -15: direct image {0,1,2,3,4,5,6,7} differs from the residue image",
    ),
    (
        "R21",
        x_step_without_wrap,
        "F2[x]:x^3+x+1",
        "scalar x^3: direct image {0,1,x,x+1,x^2,x^2+x,x^2+1,x^2+x+1} differs "
        "from the residue image",
    ),
    (
        "R21",
        units_only_one,
        "F2[x]:x^2+x+1",
        "scalar x: direct membership False but residue membership True",
    ),
]


@pytest.mark.parametrize(
    "rule_id, plant, spec, witness",
    ROWS,
    ids=[f"{rule}-{plant.__name__}-{spec}" for rule, plant, spec, _ in ROWS],
)
def test_planted_fault_makes_the_rule_fail(monkeypatch, rule_id, plant, spec, witness):
    instance = Instance("module" if ":" in spec else "ring", spec)
    # every corpus ring has order at most rings.CONSTRUCTION_CHECK_CAP and
    # reads its rows off its checked tables, so only a larger ring reaches
    # the rows that Prod and Ideal rings join from their factors' rows; and
    # every corpus Ideal or Trunc ring is quasi second with images meeting
    # in zero, so an ideal read too small at its nonunits shows only on a
    # ring that is not
    ring = spec.removeprefix("ring:")
    assert instance in verifier.generate_corpus() or ring in (
        CAP_LADDER_RINGS + JOINED_ROW_RINGS
    )
    assert run_rule(rule_id, instance).verdict == PASS
    plant(monkeypatch)
    outcome = run_rule(rule_id, instance)
    assert (outcome.verdict, outcome.witness) == (FAIL, witness)


def test_faults_no_rule_sees_have_no_row_and_a_tier1_killer():
    rowed = {plant for _, plant, _, _ in ROWS}
    for plant, _ in RULE_INVISIBLE:
        assert plant not in rowed and plant in JOINED_ROW_FAULTS, plant.__name__


def test_equivalent_mutants_change_no_connectivity_report(monkeypatch):
    # every default instance as a module, and every seeded random ring over
    # itself: the swapped report equals the report, so hyperconnected and
    # nested agree
    specs = [
        ("ring:" if inst.kind == "ring" else "") + inst.spec_text
        for inst in verifier.generate_corpus()
    ]
    specs += [f"ring:{spec}" for spec in RANDOM_RINGS]
    spaces = [topology.build_space(modules.build_module(spec)) for spec in specs]
    reports = list(map(topology.connectivity_report, spaces))
    for plant, _ in EQUIVALENT_MUTANTS:
        with monkeypatch.context() as mp:
            plant(mp)
            assert list(map(topology.connectivity_report, spaces)) == reports
    hyper = collections.Counter(r.hyperconnected for r in reports)
    assert (len(specs), hyper[True], hyper[False]) == (1128, 223, 905)
