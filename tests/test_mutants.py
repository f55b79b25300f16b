"""Planted faults, one per row: each row names a rule, one fault planted with
``monkeypatch`` in the layer that the rule checks, and a corpus instance (or,
for a route that no corpus instance reaches, a ``CAP_LADDER_RINGS`` ring) on
which the rule then fails with a witness, while the unmutated rule passes
there.  A rule with no row has no fault shown to make it fail.  Faults
that no rule is shown to see are listed in ``RULE_INVISIBLE``, each with
the reason and with a Tier-1 reference comparison that catches it.

No rule reads ``topology.hasse_edges``: the pinned ``dot`` and ``analyze``
stdout in ``test_cli.py`` guards it."""

import dataclasses
from array import array

import pytest

from qdivtop import modules, oracle, rings, topology, verifier
from qdivtop.verifier import FAIL, PASS, Instance, run_rule
from common import CAP_LADDER_RINGS


def rn_read_as_re(mp):
    # the submodule's image of r is rE, not rN
    mp.setattr(modules.Submodule, "image_mask", lambda self, r: self.module.image_mask(r))


def quotient_image_without_n(mp):
    # a section U/L's image of r is rU, not rU + L: the quotient E/N reads
    # rE, not rE + N
    def planted(self, r):
        row = self.module.row(self.residue_ring.divisor(r))
        return modules._mask([row[i] for i in modules._bits(self.mask)], self.module.order)

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


def killers_with_one(mp):
    # the residue ring's one kills every submodule
    killer_divisors = modules._killer_divisors
    mp.setattr(
        modules,
        "_killer_divisors",
        lambda E, mask: [*killer_divisors(E, mask), E.residue_ring.one],
    )


def span_one_coset(mp):
    # joining y to a subgroup M adds only the coset M + y, not M + 2y, ...
    def planted(self, ys):
        mask = self.zero_mask
        for y in ys:
            mask |= modules._mask([self.add(i, y) for i in modules._bits(mask)], self.order)
        return mask

    mp.setattr(modules.FiniteModule, "span", planted)


def span_at_first_generator(mp):
    # a cyclic span reads the row of the first additive generator only
    def planted(self, i):
        return self.span([self.row(self.residue_ring.additive_generators()[0])[i]])

    mp.setattr(modules.FiniteModule, "_span_at", planted)


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
        add, zero = ring.layout.add, ring.zero
        span, gens = {ring.index(zero)}, []
        for i, x in enumerate(ring.elements):
            if len(span) == len(ideal):
                break
            if i in span or x not in ideal:
                continue
            gens.append(x)
            if any(ring.mul(x, g) != zero for g in gens[:-1]):
                return False
            multiples, m = [], i
            while m not in span:
                multiples.append(m)
                m = add(m, i)
            span |= {add(j, k) for j in span for k in multiples}
        return True

    mp.setattr(rings, "_square_zero", planted)


def product_idempotents_trivial(mp):
    # a product ring reports 0 and 1 as its only idempotents, so it passes
    # for local and its nonunits for the maximal ideal
    mp.setattr(rings.ProdRing, "idempotents", lambda self: frozenset((self.zero, self.one)))


def idealization_translated_by_the_coordinate(mp):
    # a row of Ideal(R,d) past the check cap translates coordinate k by
    # n_k*m_k, not b*m_k, in (a,m)(b,n) = (ab, a*n_k + b*m_k): the product
    # of (0,e_k) and (0,n) becomes (0,n_k*e_k), so the image of (0,n) is
    # the span of the e_k with n_k != 0.  Dropping the translation b*m_k
    # would go unseen: the search reads rows at nonunits only, and over a
    # field their base coordinate b is 0
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
    # a row of Ideal(R,d) past the check cap drops the translation b*m_k
    # from coordinate k of (a,m)(b,n) = (ab, a*n_k + b*m_k)
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


def interior_every_member_inside(mp):
    # the interior keeps the points all of whose members lie inside the set,
    # not the points that some member inside the set holds
    def planted(topo, mask):
        inside = (1 << len(topo.opens)) - 1
        for i in modules._bits(topo.full & ~mask):
            inside &= topo.lacks[i]
        return sum(1 << j for j, h in enumerate(topo.holds) if not h & ~inside)

    mp.setattr(oracle, "oracle_interior", planted)


def min_opens_without_the_point(mp):
    # m_i is read off the transposed family without i itself, as the strict
    # up-set of i: still an open set on a T0 space, so the enumeration's
    # topology check passes
    init = oracle.FiniteTopology.__init__

    def planted(self, n, opens, full):
        init(self, n, opens, full)
        self.min_opens = tuple(
            sum(1 << j for j in range(n) if j != i and not h & self.lacks[j])
            for i, h in enumerate(self.holds)
        )

    mp.setattr(oracle.FiniteTopology, "__init__", planted)


def union_first_table_only(mp):
    # a union read stops after the first 8-point table, so the points past
    # the first 8 add nothing to an open hull or a closure
    mp.setattr(oracle, "_union", lambda tables, mask: tables[0][mask & 0xFF])


def pair_loop_without_the_extremes(mp):
    # the pair loop skips the smallest image against the largest, so on a
    # two-point chain the points fall apart into an antichain
    init = topology.QuasiDivisorSpace.__init__

    def planted(self, classes, provenance):
        init(self, classes, provenance)
        if self.n > 1:
            by_size = sorted(range(self.n), key=lambda i: self.classes[i].image.size)
            lo, hi = by_size[0], by_size[-1]
            up, down = list(self.up), list(self.down)
            up[lo] &= ~(1 << hi)
            down[hi] &= ~(1 << lo)
            self.up, self.down = tuple(up), tuple(down)

    mp.setattr(topology.QuasiDivisorSpace, "__init__", planted)


def finder_finds_nothing(mp):
    # the quasi-second search reports no violating pair, so every module
    # passes for quasi second
    mp.setattr(verifier, "QS_VIOLATION_FINDER", lambda E: None)


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


def t2_pairs_each_point_with_itself(mp):
    # the T2 sweep also compares each m_i with itself, which it always meets
    def planted(topo):
        m = topo.min_opens
        return not any(m[i] & m[j] for i in range(topo.n) for j in range(i, topo.n))

    mp.setitem(oracle._AXIOMS, "T2", planted)


# the elements of GF(3,x^2+1) in element order
F9 = ("0", "1", "2", "x", "2*x", "x+1", "2*x+1", "x+2", "2*x+2")

# (fault, reason) for faults that no rule is shown to see; the reference
# comparison of rows with value products in test_rings.py catches each
RULE_INVISIBLE = [
    (
        idealization_without_the_translation,
        "R14 reads rows at the nonunits only: over a field base their base "
        "coordinate b is 0, so b*m_k is never read, and over any other base "
        "the ring is not quasi second with or without it",
    ),
    (
        product_rows_joined_in_swapped_order,
        "R14 still passes on Prod(Zn(31),Zn(29)), Prod(Trunc(2,3),Zn(27)) and "
        "Prod(GF(2,x^6+x+1),GF(2,x^6+x+1)); on Prod(Zn(4),Trunc(2,9)) and "
        "Prod(GF(2,x^4+x+1),GF(2,x^5+x^2+1)) the rows hold indices past the "
        "ring, and the rule raises instead of failing",
    ),
]

# (rule, fault, instance, witness under the fault); an instance spec with a
# colon is a module, one without is a catalog ring
ROWS = [
    ("R1", min_opens_without_the_point, "Z:6", "T0 fast=True definitional=False"),
    (
        "R2",
        pair_loop_without_the_extremes,
        "Z:8",
        "T1=True but quasi_second=False; a=2 b=4 aE={0,2,4,6} bE={0,4}",
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
        "T1=False but quasi_second=True; comparable points [(0,1)] <= [(0,2)]",
    ),
    ("R4", nested_read_off_image_sizes, "Z:6", "uniserial=False nested=True"),
    ("R7", interior_every_member_inside, "Z:8", "interior formula differs on ['[2]']"),
    (
        "R8",
        union_first_table_only,
        "F2[x]:x^2,x^3+1",
        "StructureChecks(minimal_neighborhoods_ok=True, closure_union_ok=False, "
        "open_dense_contains_maximal_ok=True)",
    ),
    ("R9", rn_read_as_re, "Z:6", "quasi second, but [2] with image {0,2,4} is not second"),
    (
        "R10",
        maximality_inverted,
        "Z:4",
        "class [2]: annihilator of the image is not maximal (generator 2)",
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
        idealization_translated_by_the_coordinate,
        "Ideal(GF(3,x^2+1),2)",
        "brute=False classification=LocalSquareZeroMax; witness a=(0,(1,1)) "
        "b=(0,(0,1)) (a)={"
        + ",".join(f"(0,({u},{v}))" for u in F9 for v in F9)
        + "} (b)={"
        + ",".join(f"(0,(0,{v}))" for v in F9)
        + "}",
    ),
    ("R16", submodule_zero_is_n, "Z:4", "quotient by {0} is not quasi second: a=2 b=0"),
    ("R16", quotient_image_without_n, "Z:4", "quotient by {0,2} is not quasi second: a=2 b=0"),
    ("R17", t3_read_off_down_sets, "Z:8", "T3 fast=True definitional=False"),
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
    # the rows that Prod and Ideal rings join from their factors' rows
    assert instance in verifier.generate_corpus() or spec in CAP_LADDER_RINGS
    assert run_rule(rule_id, instance).verdict == PASS
    plant(monkeypatch)
    outcome = run_rule(rule_id, instance)
    assert (outcome.verdict, outcome.witness) == (FAIL, witness)
