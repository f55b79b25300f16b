import collections
import functools
import hashlib
import itertools
import math
import random
from array import array

import pytest

from qdivtop import rings
from qdivtop.modules import find_quasi_second_violation, is_quasi_second, ring_cyclic
from qdivtop.scalars import format_poly, monic_polys, padd, pdivmod, pmul
from qdivtop.rings import (
    CONSTRUCTION_CHECK_CAP,
    NOT_QS,
    QS_LOCAL_SQUARE_ZERO,
    QS_TWO_FIELDS,
    DigitLayout,
    FiniteRing,
    IdealizeRing,
    ProdRing,
    QuotPolyRing,
    RingError,
    SizeCapExceeded,
    TruncRing,
    ZnRing,
    _is_field_factor,
    _square_zero,
    build_ring,
    classify_quasi_second_ring,
)
from common import (
    BENCHMARK_RING_SPECS,
    CAP_LADDER_RINGS,
    JOINED_ROW_RINGS,
    RANDOM_RINGS,
    random_ring_spec,
)
from test_mutants import JOINED_ROW_FAULTS, idealization_without_the_translation


def test_build_examples():
    assert build_ring("Zn(8)").order == 8
    assert build_ring("Trunc(2,3)").order == 16
    assert build_ring("Prod(GF(2,x),Zn(3))").order == 6
    assert build_ring("Ideal(GF(2),2)").order == 8
    assert build_ring("Ideal(Zn(4),1)").order == 16


def test_build_errors():
    with pytest.raises(RingError):
        build_ring("Zn(1)")
    with pytest.raises(RingError):
        build_ring("GF(6)")
    with pytest.raises(RingError):
        build_ring("GF(4,x^2)")  # nonprime characteristic
    with pytest.raises(RingError):
        build_ring("GF(2,1)")  # constant modulus
    with pytest.raises(RingError):
        build_ring("Trunc(4,2)")
    with pytest.raises(RingError):
        build_ring("Ideal(Zn(4),0)")
    with pytest.raises(RingError):
        build_ring("Wat(3)")
    with pytest.raises(RingError):
        build_ring("Zn(8))")
    with pytest.raises(SizeCapExceeded):
        build_ring("Zn(5000)")


def test_parse_is_whitespace_insensitive_and_nested():
    r = build_ring(" Prod( Zn(4) , GF(3) ) ")
    assert r.spec == "Prod(Zn(4),Zn(3))"
    r2 = build_ring("Ideal(Prod(GF(2),GF(2)),1)")
    assert r2.order == 16


def test_spec_roundtrip():
    for text in ["Zn(8)", "GF(2,x^2+x+1)", "Trunc(2,3)", "Prod(Zn(4),Zn(3))", "Ideal(Zn(2),2)"]:
        ring = build_ring(text)
        assert build_ring(ring.spec) == ring


def test_arith_examples():
    z8 = ZnRing(8)
    assert z8.mul(6, 6) == 4
    t = TruncRing(2, 2)
    x1 = (0, (1, 0))
    x2 = (0, (0, 1))
    assert t.mul(x1, x2) == t.zero
    ideal = IdealizeRing(ZnRing(2), 2)
    a = (1, (1, 0))
    b = (1, (0, 1))
    assert ideal.mul(a, b) == (1, (1, 1))


def test_arith_membership_check():
    with pytest.raises(RingError):
        ZnRing(8).index(9)


def test_units_examples():
    assert ZnRing(8).units() == frozenset({1, 3, 5, 7})
    r = QuotPolyRing(2, (0, 0, 1))  # F2[x]/(x^2)
    # oracle: the full 4x4 product table
    table_units = {
        x for x in r.elements if any(r.mul(x, y) == r.one for y in r.elements)
    }
    assert r.units() == table_units == frozenset({(1,), (1, 1)})
    prod = ProdRing(ZnRing(2), ZnRing(3))
    assert len(prod.units()) == 2


def test_principal_ideals():
    def ideal(ring, a):
        return frozenset(ring.elements[i] for i in rings._bits(ring.ideal_mask(a)))

    z8 = ZnRing(8)
    assert ideal(z8, 2) == frozenset({0, 2, 4, 6})
    assert ideal(z8, 4) == frozenset({0, 4})
    t = TruncRing(2, 1)
    x = (0, (1,))
    # oracle: enumerate all 4 products
    assert frozenset(t.mul(r, x) for r in t.elements) == frozenset({t.zero, x})
    assert ideal(t, x) == frozenset({t.zero, x})


def nilradical(ring):
    """Literal definition: the elements some power of which is zero."""
    out = set()
    for x in ring.elements:
        y, seen = x, set()
        while y not in seen:
            if y == ring.zero:
                out.add(x)
                break
            seen.add(y)
            y = ring.mul(y, x)
    return frozenset(out)


def test_radicals_and_idempotents():
    z8 = ZnRing(8)
    nil, idem = nilradical(z8), z8.idempotents()
    assert nil == frozenset({0, 2, 4, 6})
    assert idem == frozenset({0, 1})
    z6 = ZnRing(6)
    nil6, idem6 = nilradical(z6), z6.idempotents()
    assert nil6 == frozenset({0})
    assert idem6 == frozenset({0, 1, 3, 4})
    t = TruncRing(2, 2)
    nil_t, idem_t = nilradical(t), t.idempotents()
    assert nil_t == frozenset(x for x in t.elements if x[0] == 0)
    assert len(nil_t) == 4
    assert idem_t == frozenset({t.zero, t.one})


def test_is_local():
    local, m = ZnRing(8).is_local()
    assert local and m == frozenset({0, 2, 4, 6})
    assert ZnRing(6).is_local() == (False, None)
    local2, m2 = ZnRing(2).is_local()
    assert local2 and m2 == frozenset({0})


def pairwise_is_local(ring):
    """The literal definition: the nonunits are closed under addition."""
    nonunits = frozenset(x for x in ring.elements if x not in ring.units())
    if all(ring.add(x, y) in nonunits for x in nonunits for y in nonunits):
        return True, nonunits
    return False, None


def reference_ring_specs():
    """The default catalog, the mixed rings of test_modules and the rings
    of the rings-qs benchmark workload."""
    from qdivtop import verifier

    from test_modules import MIXED_RINGS

    specs = list(verifier.catalog_ring_specs(verifier.DEFAULT_CORPUS))
    return specs + list(MIXED_RINGS) + list(BENCHMARK_RING_SPECS)


def test_is_local_matches_the_pairwise_definition():
    # local exactly when 0 and 1 are the only idempotents
    specs = reference_ring_specs()
    local = 0
    for spec in specs:
        ring = build_ring(spec)
        expected = pairwise_is_local(ring)
        assert ring.is_local() == expected, spec
        local += expected[0]
    assert (len(specs), local) == (127, 38)


def test_reduce_gives_the_residue_mod_n():
    # reduce(r) is the element s of A/(n) with n | r - s
    z6 = ZnRing(6)
    for r in range(-12, 30):
        s = z6.reduce(r)
        assert s in z6.elements and (r - s) % 6 == 0
    ring = QuotPolyRing(3, (1, 0, 1))  # x^2 + 1
    for r in QuotPolyRing(3, (0, 1, 0, 0, 1)).elements:  # residues mod x^4 + x
        s = ring.reduce(r)
        assert s in ring.elements
        minus_s = tuple(-c % 3 for c in s)
        assert pdivmod(padd(r, minus_s, 3), ring.modulus, 3)[1] == ()


def test_local_complement_is_units():
    for spec in ["Zn(8)", "Zn(9)", "Zn(49)", "GF(2,x^3+x+1)", "Trunc(3,2)", "Ideal(Zn(4),1)"]:
        ring = build_ring(spec)
        local, m = ring.is_local()
        assert local
        assert frozenset(ring.elements) - m == ring.units()


def ring_is_quasi_second(ring):
    # a ring is quasi second exactly when it is, as a module over itself
    return is_quasi_second(ring_cyclic(ring))


def test_quasi_second_brute_examples():
    assert ring_is_quasi_second(ZnRing(4)) is True
    assert ring_is_quasi_second(ZnRing(8)) is False
    assert ring_is_quasi_second(ZnRing(6)) is True
    v = find_quasi_second_violation(ring_cyclic(ZnRing(8)))
    assert v is not None and {v["a"], v["b"]} == {"2", "4"}


def test_classification_examples():
    assert classify_quasi_second_ring(ZnRing(4)) == QS_LOCAL_SQUARE_ZERO
    assert classify_quasi_second_ring(ZnRing(6)) == QS_TWO_FIELDS
    assert classify_quasi_second_ring(ZnRing(8)) == NOT_QS
    assert classify_quasi_second_ring(build_ring("Ideal(GF(2),2)")) == QS_LOCAL_SQUARE_ZERO
    assert classify_quasi_second_ring(build_ring("Ideal(Zn(4),1)")) == NOT_QS
    assert classify_quasi_second_ring(build_ring("Prod(GF(2),GF(2))")) == QS_TWO_FIELDS
    assert classify_quasi_second_ring(build_ring("GF(2,x^2+x+1)")) == QS_LOCAL_SQUARE_ZERO


def test_idealize_examples():
    r = IdealizeRing(ZnRing(2), 2)
    assert r.order == 8
    assert ring_is_quasi_second(r) is True
    r2 = IdealizeRing(ZnRing(4), 1)
    assert r2.order == 16
    assert ring_is_quasi_second(r2) is False


def test_brute_matches_classification_on_catalog_sample():
    specs = [
        "Zn(4)", "Zn(6)", "Zn(8)", "Zn(9)", "Zn(10)", "Zn(12)", "Zn(25)",
        "Zn(30)", "GF(2,x^2+x+1)", "GF(2,x^2)", "Trunc(2,1)", "Trunc(2,3)",
        "Trunc(3,2)", "Prod(Zn(2),Zn(3))", "Prod(GF(2,x^2+x+1),Zn(5))",
        "Ideal(Zn(2),1)", "Ideal(Zn(2),2)", "Ideal(Zn(4),1)",
        "Prod(Zn(4),Zn(3))",
    ]
    for spec in specs:
        ring = build_ring(spec)
        brute = ring_is_quasi_second(ring)
        assert brute == (classify_quasi_second_ring(ring) != NOT_QS), spec


def literal_principal_ideal(ring, a):
    """aR as the set of the |R| products r*a, with no library span."""
    return frozenset(ring.mul(r, a) for r in ring.elements)


def test_ideal_masks_match_the_literal_principal_ideals():
    # every element of the default catalog rings, of the rings-qs rings up
    # to 256 elements, of 60 seeded random nested rings of order <= 64, of
    # idealizations past the check cap over bases that are not fields (a
    # nonunit (a, m) with a != 0 adds (0, (aR)^d) to its multiples) and of
    # the joined-row rings up to 256 elements; 8 seeded elements of each
    # larger ring
    from qdivtop import verifier

    rng = random.Random(33)
    specs = list(verifier.catalog_ring_specs(verifier.DEFAULT_CORPUS))
    specs += [s for s in BENCHMARK_RING_SPECS if build_ring(s).order <= 256]
    specs += [random_ring_spec(rng, 64)[0] for _ in range(60)]
    specs += ["Ideal(Zn(4),3)", "Ideal(Zn(9),1)"]
    checked = 0
    for spec in [*specs, *CAP_LADDER_RINGS, *JOINED_ROW_RINGS]:
        ring = build_ring(spec)
        elements = ring.elements
        if ring.order > 256:
            elements = rng.sample(elements, 8)
        for a in elements:
            literal = sum(1 << ring.index(x) for x in literal_principal_ideal(ring, a))
            assert ring.ideal_mask(a) == literal, (spec, a)
        checked += len(elements)
    assert checked == 6775


def literal_idempotents(ring):
    return frozenset(x for x in ring.elements if ring.mul(x, x) == x)


def literal_is_field(ring, part, e):
    """Whether the set part, an ideal with identity e, is a field: every
    nonzero x in it has a y in it with x*y = e, searched over all of part."""
    nonzero = [x for x in part if x != ring.zero]
    return bool(nonzero) and all(
        any(ring.mul(x, y) == e for y in part) for x in nonzero
    )


def literal_classification(ring):
    """Local with m*m = 0 on every pair of the maximal ideal m (the pairwise
    definition of locality), or eR x (1-e)R with both factors fields for a
    nontrivial idempotent e of the literal sweep, or neither."""
    local, maximal = pairwise_is_local(ring)
    if local:
        zero = ring.zero
        if all(ring.mul(x, y) == zero for x in maximal for y in maximal):
            return QS_LOCAL_SQUARE_ZERO
        return NOT_QS
    for e in literal_idempotents(ring) - {ring.zero, ring.one}:
        f = ring.sub(ring.one, e)
        parts = [frozenset(ring.mul(r, u) for r in ring.elements) for u in (e, f)]
        if literal_is_field(ring, parts[0], e) and literal_is_field(ring, parts[1], f):
            return QS_TWO_FIELDS
    return NOT_QS


def test_idempotents_and_classification_match_the_literal_definitions():
    # the idempotents are read off the constructors and the square-zero
    # test runs on additive generators; both against the literal sweeps, on
    # the reference rings and 150 seeded random nested rings of order <= 256
    rng = random.Random(20261019)
    specs = reference_ring_specs()
    specs += [random_ring_spec(rng, 256)[0] for _ in range(150)]
    tally = collections.Counter()
    for spec in specs:
        ring = build_ring(spec)
        assert ring.idempotents() == literal_idempotents(ring), spec
        classification = classify_quasi_second_ring(ring)
        assert classification == literal_classification(ring), spec
        tally[classification] += 1
    assert tally == {QS_LOCAL_SQUARE_ZERO: 102, QS_TWO_FIELDS: 87, NOT_QS: 88}


def test_square_zero_matches_the_pairwise_definition_on_principal_ideals():
    # I*I = 0 on every pair of I, for every principal ideal of every
    # default catalog ring: non-maximal ideals, and both outcomes
    from qdivtop import verifier

    tally = collections.Counter()
    for spec in verifier.catalog_ring_specs(verifier.DEFAULT_CORPUS):
        ring = build_ring(spec)
        for ideal in {literal_principal_ideal(ring, a) for a in ring.elements}:
            pairwise = all(ring.mul(x, y) == ring.zero for x in ideal for y in ideal)
            assert _square_zero(ring, ideal) == pairwise, (spec, sorted(ideal))
            tally[pairwise] += 1
    assert tally == {True: 161, False: 327}


def test_quotient_idempotents_match_the_literal_squares():
    # one idempotent per unitary divisor, by the Chinese remainder theorem,
    # against the literal x*x = x over every residue: Zn(n) for n up to
    # 600, and GF(p,f) for every monic f over F_2 up to degree 7, F_3 up to
    # degree 4 and F_5 up to degree 3
    quotients = [ZnRing(n) for n in range(2, 601)]
    for p, max_degree in ((2, 7), (3, 4), (5, 3)):
        for degree in range(1, max_degree + 1):
            quotients += [QuotPolyRing(p, f) for f in monic_polys(p, degree)]
    split = 0
    for ring in quotients:
        _, mul, _ = literal_ops(ring)
        literal = frozenset(x for x in ring.elements if mul(x, x) == x)
        assert ring.idempotents() == literal, ring.spec
        split += len(literal) > 2
    assert (len(quotients), split) == (1128, 832)


def test_nontrivial_idempotent_splits_order():
    for spec in ["Zn(6)", "Zn(12)", "Prod(Zn(4),Zn(9))"]:
        ring = build_ring(spec)
        nontrivial = [
            e for e in ring.idempotents() if e not in (ring.zero, ring.one)
        ]
        assert nontrivial
        for e in nontrivial:
            part1 = literal_principal_ideal(ring, e)
            part2 = literal_principal_ideal(ring, ring.sub(ring.one, e))
            assert len(part1) * len(part2) == ring.order


LAW_SAMPLE = [
    "Zn(12)",
    "GF(2,x^2+x+1)",
    "GF(3,x^2)",
    "Trunc(2,2)",
    "Prod(Zn(2),Zn(3))",
    "Ideal(Zn(2),1)",
    "Ideal(Zn(4),1)",
]


@pytest.mark.parametrize("spec", LAW_SAMPLE)
def test_ring_laws_exhaustive_small(spec):
    ring = build_ring(spec)
    assert ring.order <= 32
    elems = ring.elements
    for x in elems:
        for y in elems:
            for z in elems:
                assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))
                assert ring.add(ring.add(x, y), z) == ring.add(x, ring.add(y, z))
                assert ring.mul(x, ring.add(y, z)) == ring.add(
                    ring.mul(x, y), ring.mul(x, z)
                )


def test_ring_laws_random_triples_order64():
    ring = build_ring("Trunc(2,5)")
    assert ring.order == 64
    rng = random.Random(20240817)
    elems = ring.elements
    for _ in range(10_000):
        x, y, z = (elems[rng.randrange(len(elems))] for _ in range(3))
        assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))
        assert ring.mul(x, ring.add(y, z)) == ring.add(ring.mul(x, y), ring.mul(x, z))


def test_ring_laws_whole_default_catalog():
    # every catalog ring, on its index tables: the operations that add, mul
    # and mul_row read for the rings of order <= 64 that are checked on
    # construction, and for the others, the Zn rings, the tables a Prod
    # ring over one reads, built from its rows and its layout's addition.
    # All triples up to order 32, as rows over z for each (x, y); 10^4
    # seeded random triples above
    from qdivtop import verifier

    for spec in verifier.catalog_ring_specs(verifier.DEFAULT_CORPUS):
        ring = build_ring(spec)
        add, mul, _ = ring.index_tables()
        n = ring.order
        if n <= 32:
            rows = [(mul[x * n : x * n + n], add[x * n : x * n + n]) for x in range(n)]
            for x, y in itertools.product(range(n), repeat=2):
                (mul_x, add_x), (mul_y, add_y) = rows[x], rows[y]
                xy, x_plus_y = mul_x[y], add_x[y]
                assert rows[xy][0] == array("H", map(mul_x.__getitem__, mul_y)), spec
                assert rows[x_plus_y][1] == array(
                    "H", map(add_x.__getitem__, add_y)
                ), spec
                assert array("H", map(mul_x.__getitem__, add_y)) == array(
                    "H", map(rows[xy][1].__getitem__, mul_x)
                ), spec
            continue
        rng = random.Random(sum(spec.encode()))
        for _ in range(10_000):
            x, y, z = (rng.randrange(n) for _ in range(3))
            assert mul[mul[x * n + y] * n + z] == mul[x * n + mul[y * n + z]], spec
            assert add[add[x * n + y] * n + z] == add[x * n + add[y * n + z]], spec
            assert mul[x * n + add[y * n + z]] == add[
                mul[x * n + y] * n + mul[x * n + z]
            ], spec


def literal_ops(ring):
    """(add, mul, neg) on values, from each constructor's definition over
    its factors' literal operations."""
    if isinstance(ring, ZnRing):
        n = ring.n
        return (lambda x, y: (x + y) % n), (lambda x, y: x * y % n), (lambda x: -x % n)
    if isinstance(ring, QuotPolyRing):
        p, f = ring.p, ring.modulus
        return (
            functools.cache(lambda x, y: padd(x, y, p)),
            functools.cache(lambda x, y: pdivmod(pmul(x, y, p), f, p)[1]),
            lambda x: tuple(-c % p for c in x),
        )
    if isinstance(ring, TruncRing):
        # c0 + c1*x_1 + ... + ck*x_k as (c0, (c1, ..., ck)), over ints mod
        # p, with x_i*x_j = 0
        p = ring.p
        return (
            lambda x, y: (
                (x[0] + y[0]) % p,
                tuple((a + b) % p for a, b in zip(x[1], y[1])),
            ),
            lambda x, y: (
                x[0] * y[0] % p,
                tuple((x[0] * b + y[0] * a) % p for a, b in zip(x[1], y[1])),
            ),
            lambda x: (-x[0] % p, tuple(-a % p for a in x[1])),
        )
    if isinstance(ring, ProdRing):
        (add1, mul1, neg1), (add2, mul2, neg2) = literal_ops(ring.r1), literal_ops(ring.r2)
        return (
            lambda x, y: (add1(x[0], y[0]), add2(x[1], y[1])),
            lambda x, y: (mul1(x[0], y[0]), mul2(x[1], y[1])),
            lambda x: (neg1(x[0]), neg2(x[1])),
        )
    assert isinstance(ring, IdealizeRing)
    add, mul, neg = literal_ops(ring.base)
    return (
        lambda x, y: (add(x[0], y[0]), tuple(map(add, x[1], y[1]))),
        lambda x, y: (
            mul(x[0], y[0]),
            tuple(add(mul(x[0], m2), mul(y[0], m1)) for m1, m2 in zip(x[1], y[1])),
        ),
        lambda x: (neg(x[0]), tuple(map(neg, x[1]))),
    )


def literal_order_key(ring, x):
    """The order each constructor lists its elements in: residues mod n by
    value, residues of F_p[x] by length, then coefficients from the
    constant up, and pairs (Prod) and idealizations (Ideal, Trunc)
    lexicographically on their coordinates."""
    if isinstance(ring, ZnRing):
        return x
    if isinstance(ring, QuotPolyRing):
        return (len(x), x)
    if isinstance(ring, ProdRing):
        return (literal_order_key(ring.r1, x[0]), literal_order_key(ring.r2, x[1]))
    assert isinstance(ring, IdealizeRing)
    return (
        literal_order_key(ring.base, x[0]),
        tuple(literal_order_key(ring.base, m) for m in x[1]),
    )


def literal_label(ring, x):
    """The printed form of the element x: a residue mod n in decimal, a
    residue of F_p[x] as a polynomial, a pair as (a,b), an idealization
    (a, (m1, ..., md)) as (a,(m1,...,md)), and an element of Trunc(p,k) as
    the sum of its nonzero terms, such as 1+x1+2*x3."""
    if isinstance(ring, ZnRing):
        return str(x)
    if isinstance(ring, QuotPolyRing):
        return format_poly(x)
    if isinstance(ring, ProdRing):
        return f"({literal_label(ring.r1, x[0])},{literal_label(ring.r2, x[1])})"
    if isinstance(ring, TruncRing):
        c0, cs = x
        terms = [str(c0)] if c0 else []
        terms += [f"{c}*x{i}" if c > 1 else f"x{i}" for i, c in enumerate(cs, 1) if c]
        return "+".join(terms) or "0"
    assert isinstance(ring, IdealizeRing)
    ms = ",".join(literal_label(ring.base, m) for m in x[1])
    return f"({literal_label(ring.base, x[0])},({ms}))"


def quotient_factors(ring):
    """The Zn and GF(p,f) rings among the factors and bases of a Prod or
    Ideal ring, at any depth."""
    if isinstance(ring, (ZnRing, QuotPolyRing)):
        return [ring]
    if isinstance(ring, ProdRing):
        return quotient_factors(ring.r1) + quotient_factors(ring.r2)
    return quotient_factors(ring.base)


def test_index_tables_match_the_literal_operations():
    # every ring checked on construction reads its operations from index
    # tables built from its rows (Trunc) or its factors' tables (a Prod
    # ring's summed in byte lanes, a Zn or GF(p,f) factor's read off its
    # rows); every entry, and the value operations and rows that read
    # them, against the definitions, on the catalog rings and 200 seeded
    # random nested rings of order at most 64.  Every Zn and GF(p,f) factor
    # or base: its tables, and its value product, which no table reads and
    # idempotents and maximality still call, against the definitions
    from qdivtop import verifier

    rng = random.Random(6421)
    catalog = list(verifier.catalog_ring_specs(verifier.DEFAULT_CORPUS))
    drawn = [random_ring_spec(rng, 64)[0] for _ in range(200)]
    checked, factors = collections.Counter(), collections.Counter()
    for k, spec in enumerate(catalog + drawn):
        ring = build_ring(spec)
        if isinstance(ring, (ZnRing, QuotPolyRing)):
            continue
        assert ring.order <= 64, spec
        add, mul, neg = literal_ops(ring)
        add_t, mul_t, neg_t = ring.index_tables()
        elems, index, n = ring.elements, ring.index, ring.order
        for i, x in enumerate(elems):
            assert neg_t[i] == index(neg(x)) and ring.neg(x) == neg(x), (spec, x)
            sums, products = [add(x, y) for y in elems], [mul(x, y) for y in elems]
            assert [ring.add(x, y) for y in elems] == sums, (spec, x)
            assert [ring.mul(x, y) for y in elems] == products, (spec, x)
            products = list(map(index, products))
            assert ring.mul_row(x) == products == mul_t[i * n : i * n + n].tolist()
            assert add_t[i * n : i * n + n].tolist() == list(map(index, sums))
        for factor in quotient_factors(ring):
            add, mul, neg = literal_ops(factor)
            add_t, mul_t, neg_t = factor.index_tables()
            elems, index = factor.elements, factor.index
            pairs = list(itertools.product(elems, repeat=2))
            products = [mul(x, y) for x, y in pairs]
            assert add_t.tolist() == [index(add(x, y)) for x, y in pairs], factor.spec
            assert mul_t.tolist() == list(map(index, products)), factor.spec
            assert [factor.mul(x, y) for x, y in pairs] == products, factor.spec
            assert neg_t.tolist() == [index(neg(x)) for x in elems], factor.spec
            factors[type(factor).__name__] += 1
        checked[k < len(catalog)] += 1
    assert (checked[True], checked[False]) == (51, 126)
    assert factors == {"QuotPolyRing": 90, "ZnRing": 204}


# SHA-256 of the spec, a newline and the (add, mul, neg) index tables of each
# ring in test_index_tables_are_pinned, in spec order
INDEX_TABLES_SHA256 = "17ad0a4a0d6aaf2178597b3300da6eaa4f0b5fa0bbbfff48ba07e6b6b5d472f4"
# the same over each ring's divisor_table()
DIVISOR_TABLES_SHA256 = "a8ed3759ed2964d6220a4d12e6e39cd151aa38c33c7b8d00b760cb995c34267e"
# the same over each ring's layout codes and index_of and its labels, one
# per line
LAYOUTS_AND_LABELS_SHA256 = "6dbad09175ca6ff7022e745d82404d90d319a42aa8639db4f298b551d5a7555f"


@functools.cache
def pinned_rings() -> dict:
    """{spec: ring} for every distinct ring among the default catalog, the
    seeded random rings and all their factors and bases."""
    from qdivtop import verifier

    found = {}

    def walk(ring):
        if ring.spec not in found:
            found[ring.spec] = ring
            for part in ("r1", "r2", "base"):
                if hasattr(ring, part):
                    walk(getattr(ring, part))

    for spec in [*verifier.catalog_ring_specs(verifier.DEFAULT_CORPUS), *RANDOM_RINGS]:
        walk(build_ring(spec))
    return found


def tables_digest(tables_of) -> str:
    digest = hashlib.sha256()
    found = pinned_rings()
    for spec in sorted(found):
        digest.update(spec.encode() + b"\n")
        for table in tables_of(found[spec]):
            digest.update(table.tobytes())
    return digest.hexdigest()


def test_index_tables_are_pinned():
    # a change to how any table is built that moves an entry moves the digest
    kinds = collections.Counter(type(ring).__name__ for ring in pinned_rings().values())
    assert kinds == {
        "ProdRing": 688,
        "QuotPolyRing": 173,
        "IdealizeRing": 123,
        "ZnRing": 63,
        "TruncRing": 9,
    }
    assert tables_digest(lambda ring: ring.index_tables()) == INDEX_TABLES_SHA256


def test_layouts_and_labels_are_pinned():
    # the codes, their inverse and the printed elements, however each is built
    assert len(pinned_rings()) == 1056
    digest = tables_digest(
        lambda ring: [
            ring.layout.codes,
            ring.layout.index_of,
            memoryview("\n".join(ring.labels).encode()),
        ]
    )
    assert digest == LAYOUTS_AND_LABELS_SHA256


def test_divisor_tables_are_pinned():
    # every divisor read in modules and the verifier goes through the table
    assert len(pinned_rings()) == 1056
    digest = tables_digest(lambda ring: [ring.divisor_table()])
    assert digest == DIVISOR_TABLES_SHA256


@pytest.mark.parametrize("p, max_degree", [(2, 6), (3, 3), (5, 2)])
def test_residue_ring_operations_match_the_literal_definitions(p, max_degree):
    # F_p[x]/(f) multiplies and adds on element indices, through
    # multiplication by x; mul, add and mul_row against pmul, pdivmod and
    # padd on tuples, on every pair of residues, for every monic f of each
    # degree, reducible ones such as x^6 and x^3+1 included
    checked = 0
    for d in range(1, max_degree + 1):
        for f in monic_polys(p, d):
            ring = QuotPolyRing(p, f)
            add, mul, _ = literal_ops(ring)
            elems = ring.elements
            for x in elems:
                products = [mul(x, y) for y in elems]
                assert [elems[j] for j in ring.mul_row(x)] == products, (f, x)
                assert [ring.mul(x, y) for y in elems] == products, (f, x)
                assert [ring.add(x, y) for y in elems] == [add(x, y) for y in elems]
            checked += 1
    assert checked == sum(p**d for d in range(1, max_degree + 1))


def test_residue_ring_products_build_no_rows(monkeypatch):
    # mul is Horner's rule alone: every pair of a 64-element residue ring,
    # each left factor 64 times over, builds no row
    rows = []
    mul_row = QuotPolyRing.mul_row
    monkeypatch.setattr(
        QuotPolyRing, "mul_row", lambda self, t: rows.append(t) or mul_row(self, t)
    )
    ring = build_ring("GF(2,x^6+x+1)")
    elems = ring.elements
    assert len({ring.mul(x, y) for x in elems for y in elems}) == 64
    assert rows == []


@pytest.mark.parametrize("p, max_degree", [(2, 4), (3, 2)])
def test_residue_ring_reduce_is_the_remainder(p, max_degree):
    # reduce runs Horner's rule on indices; it returns exactly the
    # remainder of long division, for every polynomial of degree up to
    # 2d + 1 and every monic f of degree d
    for d in range(1, max_degree + 1):
        polys = [()] + [
            tail + (c,)
            for n in range(2 * d + 2)
            for tail in itertools.product(range(p), repeat=n)
            for c in range(1, p)
        ]
        for f in monic_polys(p, d):
            ring = QuotPolyRing(p, f)
            for r in polys:
                assert ring.reduce(r) == pdivmod(r, f, p)[1], (f, r)


@pytest.mark.parametrize("spec", ["GF(2,x^12)", "GF(3,x^7)"])
def test_residue_ring_rows_at_the_cap_match_the_literal_product(spec):
    # at the cap a row is d - 1 steps of x and a product Horner's rule,
    # as at every order; a seeded sample of rows and products
    ring = build_ring(spec)
    assert ring.order in (4096, 2187)
    _, mul, _ = literal_ops(ring)
    elems = ring.elements
    rng = random.Random(ring.order)
    for t in rng.sample(elems, 12):
        row = ring.mul_row(t)
        assert [elems[j] for j in row] == [mul(t, y) for y in elems], (spec, t)
        for y in rng.sample(elems, 50):
            assert ring.mul(t, y) == mul(t, y), (spec, t, y)


class RowBreaking:
    """A ring with one wrong entry in its multiplication rows, at one
    ordered pair of element indices.  It runs no check of its own, and its
    mul table is its rows."""

    def mul_row(self, t):
        row = super().mul_row(t)
        if self.pair and self.index(t) == self.pair[0]:
            row[self.pair[1]] = (row[self.pair[1]] + 1) % self.order
        return row


class RowBreakingZn(RowBreaking, ZnRing):
    def __init__(self, n, pair=None):
        self.pair = pair
        super().__init__(n)


class RowBreakingGF(RowBreaking, QuotPolyRing):
    """GF(2,x^3+x+1), row-broken."""

    def __init__(self, pair=None):
        self.pair = pair
        super().__init__(2, (1, 1, 0, 1))


class AddBreakingZn(ZnRing):
    """Zn(n) whose layout addition is off by one at one ordered pair of
    element indices, which are its residues.  It runs no check of its own,
    and its add table is that addition."""

    def __init__(self, n, pair=None):
        self.pair = pair
        super().__init__(n)

    def _make_layout(self):
        layout = super()._make_layout()
        add, pair, n = layout.add, self.pair, self.n
        layout.add = lambda i, j: (add(i, j) + 1) % n if (i, j) == pair else add(i, j)
        return layout


def breaking_zn(n, op, pair):
    """Zn(n) with its rows (op "mul") or its layout addition (op "add")
    off by one at one ordered pair: the two places its tables come from."""
    return (RowBreakingZn if op == "mul" else AddBreakingZn)(n, pair)


def validated(ring):
    """The ring, run through the construction check that validates catalog
    rings."""
    ring._init_common(validate=True)
    return ring


def test_construction_check_accepts_the_unbroken_ring():
    assert validated(RowBreakingZn(6)).order == validated(AddBreakingZn(6)).order == 6


@pytest.mark.parametrize("op, law", [("mul", "multiplication"), ("add", "addition")])
def test_construction_check_rejects_a_non_commutative_operation(op, law):
    # every ordered pair off the identities, so both the pair whose first
    # element comes first in element order and the reverse one, down to
    # the last pair (4, 5) and (5, 4); the additive inverse pairs would trip
    # the negation law first
    n = 6
    pairs = [
        (x, y)
        for x in range(2, n)
        for y in range(2, n)
        if x != y and (op == "mul" or (x + y) % n)
    ]
    assert (4, 5) in pairs and (5, 4) in pairs
    for pair in pairs:
        with pytest.raises(RingError, match=f"{law} is not commutative"):
            validated(breaking_zn(n, op, pair))


@pytest.mark.parametrize("op, pair", [("mul", (3, 1)), ("add", (3, 0))])
def test_construction_check_rejects_a_broken_identity(op, pair):
    with pytest.raises(RingError, match="identity laws fail at 3"):
        validated(breaking_zn(6, op, pair))


class NegBreaking:
    """A ring whose layout negation, which its neg table is, is off by one
    at one element index."""

    def _make_layout(self):
        layout = super()._make_layout()
        neg, broken, n = layout.neg, self.broken, self.order
        layout.neg = lambda i: (neg(i) + 1) % n if i == broken else neg(i)
        return layout


class NegBreakingZn(NegBreaking, ZnRing):
    def __init__(self, n, broken=None):
        self.broken = broken
        super().__init__(n)


class NegBreakingProd(NegBreaking, ProdRing):
    """Prod(Zn(2),Zn(3)), whose neg table is its own layout's negation,
    not its factors'."""

    def __init__(self, broken=None):
        self.broken = broken
        super().__init__(ZnRing(2), ZnRing(3))


def test_construction_check_rejects_a_broken_negation():
    assert validated(NegBreakingZn(6)).order == NegBreakingProd().order == 6
    with pytest.raises(RingError, match=r"Zn\(6\): negation fails at 3\Z"):
        validated(NegBreakingZn(6, 3))
    with pytest.raises(RingError, match=r"negation fails at \(1, 1\)\Z"):
        NegBreakingProd(4)


def base_breaking_trunc(p, k, pair):
    """Trunc(p,k) built over a Zn(p) whose rows are off by one at one
    ordered pair, run through Trunc's construction check."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "ZnRing", lambda n: RowBreakingZn(n, pair))
        return TruncRing(p, k)


@pytest.mark.parametrize("p, k", [(2, 2), (3, 1), (2, 1), (3, 2), (5, 1)])
def test_construction_check_rejects_a_trunc_ring_with_a_broken_base_product(p, k):
    # Trunc's tables are its rows, joined from rows of its Zn(p) base.
    # Every planted pair is rejected.  A diagonal entry off 0 and 1, (x, x)
    # for 2 <= x < p, sits at the same place in both orders of each product
    # that reads it, and no identity reads it: the law x*(x + 1) = x*x + x
    # sees it
    assert base_breaking_trunc(p, k, None).order == p ** (k + 1)
    missed, distributivity = [], []
    for pair in itertools.product(range(p), repeat=2):
        try:
            base_breaking_trunc(p, k, pair)
        except RingError as exc:
            laws = ("identity laws fail", "not commutative", "distributivity fails")
            assert any(law in str(exc) for law in laws), exc
            if "distributivity" in str(exc):
                distributivity.append(pair)
            continue
        missed.append(pair)
    assert missed == []
    assert distributivity == [(x, x) for x in range(2, p)]


@pytest.mark.parametrize(
    "op, pair, message",
    [
        ("mul", (4, 5), "multiplication is not commutative"),
        ("add", (4, 5), "addition is not commutative"),
        ("mul", (3, 1), "identity laws fail at"),
    ],
)
def test_construction_check_rejects_a_composite_ring_with_a_broken_factor(
    op, pair, message
):
    # the factor runs no check of its own; the composite ring's tables carry
    # the broken entry and are rejected.  A Prod ring builds its tables from
    # its factors' tables: a row or the layout addition of a Zn factor, or a
    # row of a GF(p,f) factor.  An Ideal ring's mul table is its rows,
    # joined from rows of its base: a row of a Zn or GF(p,f) base.  It adds
    # on its own layout, so no fault in a base's addition reaches its add
    # table
    prod, ideal = (lambda f: ProdRing(f, ZnRing(2))), (lambda f: IdealizeRing(f, 1))
    assert prod(RowBreakingZn(6)).order == prod(AddBreakingZn(6)).order == 12
    assert prod(RowBreakingGF()).order == 16
    assert ideal(RowBreakingZn(6)).order == 36
    assert ideal(RowBreakingGF()).order == 64
    builds = [lambda: prod(breaking_zn(6, op, pair))]
    if op == "mul":
        builds += [
            lambda: prod(RowBreakingGF(pair)),
            lambda: ideal(RowBreakingZn(6, pair)),
            lambda: ideal(RowBreakingGF(pair)),
        ]
    for build in builds:
        with pytest.raises(RingError, match=message):
            build()


def test_construction_check_rejects_product_tables_with_swapped_lanes(monkeypatch):
    # the factors' tables summed in each other's lanes give the tables of
    # Prod(Zn(3),Zn(2)), read on the elements of Prod(Zn(2),Zn(3))
    product_table = rings._product_table
    monkeypatch.setattr(
        rings, "_product_table", lambda t1, n1, t2, n2: product_table(t2, n2, t1, n1)
    )
    with pytest.raises(RingError, match="identity laws fail at"):
        build_ring("Prod(Zn(2),Zn(3))")


def test_product_tables_fill_byte_lanes_up_to_256_elements():
    # at 256 elements an entry reaches 255, the top of a byte lane, with
    # no carry into the next; one element more would carry, and is refused
    ring = ProdRing(ZnRing(16), ZnRing(16))
    add, mul, _ = ring.index_tables()
    pairs = list(itertools.product(range(16), repeat=2))
    assert add.tolist() == [
        (a1 + b1) % 16 * 16 + (a2 + b2) % 16 for a1, a2 in pairs for b1, b2 in pairs
    ]
    assert mul.tolist() == [
        a1 * b1 % 16 * 16 + a2 * b2 % 16 for a1, a2 in pairs for b1, b2 in pairs
    ]
    with pytest.raises(RingError, match="does not fit one-byte lanes"):
        ProdRing(ZnRing(16), ZnRing(17)).index_tables()


def assert_divisors_match_the_definitions(ring, elements):
    """For each of the given elements r: its divisor d in divisor_table()
    generates the ideal rR (``literal_principal_ideal``); d is one exactly
    when r is a unit, that is when 1 is in rR, x*y = 1 for some y; and
    units() holds r exactly then.  Zero's divisor is zero, and divisors()
    maps each divisor to the first element with it, in the order of first
    appearance."""
    ideals = {}

    def ideal(x):
        if x not in ideals:
            ideals[x] = literal_principal_ideal(ring, x)
        return ideals[x]

    units, table, elems = ring.units(), ring.divisor_table(), ring.elements
    for r in elements:
        d = elems[table[ring.index(r)]]
        assert ideal(d) == ideal(r), (ring.spec, r)
        unit = ring.one in ideal(r)
        assert (r in units, d == ring.one) == (unit, unit), (ring.spec, r)
    zero = ring.index(ring.zero)
    assert table[zero] == zero
    assert len(units) == table.count(ring.index(ring.one))
    first = {}
    for i, g in enumerate(table):
        first.setdefault(g, i)
    assert list(ring.divisors().items()) == list(first.items()), ring.spec


def test_divisor_tables_match_the_definitions():
    # every element of the default catalog rings, of 60 seeded random
    # nested rings of order <= 64 and of the rings-qs rings up to 256
    # elements; a seeded sample of 8 elements of the larger rings-qs rings
    # and of the rings at the element cap
    from qdivtop import verifier

    rng = random.Random(4242)
    specs = list(verifier.catalog_ring_specs(verifier.DEFAULT_CORPUS))
    specs += [random_ring_spec(rng, 64)[0] for _ in range(60)]
    specs += [*BENCHMARK_RING_SPECS, *CAP_LADDER_RINGS]
    sampled = 0
    for spec in dict.fromkeys(specs):
        ring = build_ring(spec)
        elements = ring.elements
        if ring.order > 256:
            elements = rng.sample(elements, 8)
            sampled += 1
        assert_divisors_match_the_definitions(ring, elements)
    assert sampled == 13


# idealizations over fields past the pinned rings: the oracle-dense rings
# Trunc(7,2) and Trunc(11,2), and the rings-qs rings over F_5 and F_9
FIELD_IDEALIZATIONS = ("Trunc(7,2)", "Trunc(11,2)", "Ideal(Zn(5),3)", "Ideal(GF(3,x^2+1),2)")


def test_idealizations_over_fields_name_one_divisor_per_associate_class():
    # every element of every Ideal or Trunc ring over a field among the
    # pinned rings and of FIELD_IDEALIZATIONS, against the literal
    # products: a divisor is its own divisor; an element the table calls
    # a unit has a power equal to one; every other r is a nonunit (1 is not
    # in rR), its divisor generates rR, and r*u has r's divisor for every
    # unit u.  Together these say that the table names one divisor per
    # class of associates
    specs = [
        spec
        for spec, ring in pinned_rings().items()
        if isinstance(ring, IdealizeRing) and ring.base.is_field()
    ]
    over_f2, divisors = 0, {}
    for spec in [*specs, *FIELD_IDEALIZATIONS]:
        ring = build_ring(spec)
        _, mul, _ = literal_ops(ring)
        elems, index, table = ring.elements, ring.index, ring.divisor_table()
        one, one_index = ring.one, ring.one_index
        units = [x for x, g in zip(elems, table) if g == one_index]
        ideals = {}

        def ideal(x):
            if x not in ideals:
                ideals[x] = frozenset(mul(x, y) for y in elems)
            return ideals[x]

        for r, g in zip(elems, table):
            assert table[g] == g, (spec, r)
            if g == one_index:
                power = r
                for _ in range(ring.order):
                    if power == one:
                        break
                    power = mul(power, r)
                assert power == one, (spec, r)
                continue
            assert one not in ideal(r) and ideal(elems[g]) == ideal(r), (spec, r)
            assert {table[index(mul(r, u))] for u in units} == {g}, (spec, r)
        over_f2 += ring.base.order == 2
        divisors[spec] = len(ring.divisors())
    # over F_2 each nonunit is its own divisor.  Trunc(11,2) has 14
    # divisors: zero, one and a point of each of the 12 lines of F_11^2
    assert (len(specs), over_f2) == (46, 17)
    assert [divisors[spec] for spec in FIELD_IDEALIZATIONS] == [10, 14, 33, 12]


def test_field_detection():
    assert build_ring("GF(2,x^2+x+1)").is_field()
    assert build_ring("Zn(7)").is_field()
    assert not build_ring("Zn(8)").is_field()
    assert not build_ring("GF(2,x^2)").is_field()


def enumeration_specs():
    """The catalog rings of the default and wide corpora, 100 seeded random
    nested rings of order <= 256 and the residue rings of the cap ladder."""
    from qdivtop import modules, verifier

    from common import CAP_LADDER, WIDE_CORPUS

    rng = random.Random(4096)
    specs = verifier.catalog_ring_specs(verifier.DEFAULT_CORPUS)
    specs += verifier.catalog_ring_specs(WIDE_CORPUS)
    specs += [random_ring_spec(rng, 256)[0] for _ in range(100)]
    specs += [modules.build_module(s).residue_ring.spec for s in CAP_LADDER]
    return list(dict.fromkeys(specs))


def test_element_enumeration_is_sorted_and_indexed():
    # each constructor lists its elements in the literal order by
    # construction; a residue of F_p[x]/(f) has its coefficients as base-p
    # digits of its layout code, and every ring label is the literal
    # printed form of its element
    for spec in enumeration_specs():
        ring = build_ring(spec)
        elements = ring.elements
        key = functools.partial(literal_order_key, ring)
        assert list(elements) == sorted(elements, key=key), spec
        for i, x in enumerate(elements):
            assert ring.index(x) == i
        assert ring.labels == tuple(literal_label(ring, x) for x in elements), spec
        index_of = ring.layout.index_of
        assert [index_of[c] for c in ring.layout.codes] == list(range(ring.order)), spec
        if isinstance(ring, QuotPolyRing):
            p = ring.p
            codes = [sum(c * p**k for k, c in enumerate(x)) for x in elements]
            assert list(ring.layout.codes) == codes, spec


# one ring per constructor, with and without construction tables
PRODUCT_SPECS = (
    "Zn(12)", "GF(3,x^3+x+2)", "GF(2,x^4+x^2)", "Trunc(3,2)", "Trunc(2,6)",
    "Prod(Zn(2),Trunc(2,2))", "Prod(Zn(4),GF(2,x^3+x+1))",
    "Ideal(GF(2,x^2+x+1),1)", "Ideal(Zn(3),2)",
)


def test_generator_products_are_the_products_with_the_generators():
    # the images that fix mul_row(t) on Zn and GF(p,f), and the rows of
    # every ring
    for spec in PRODUCT_SPECS:
        ring = build_ring(spec)
        gens = [ring.elements[g] for g in ring.additive_generators()]
        _, mul, _ = literal_ops(ring)
        for i, t in enumerate(ring.elements):
            if isinstance(ring, (ZnRing, QuotPolyRing)):
                literal = [ring.index(mul(t, g)) for g in gens]
                assert ring.generator_products(i) == literal, (spec, t)
            assert list(ring.mul_row(t)) == [
                ring.index(mul(t, x)) for x in ring.elements
            ], (spec, t)


def digit_loop_add(layout):
    """Addition on a layout digit by digit: each digit of the two codes
    added mod its radix."""
    code, index_of = layout.codes, layout.index_of

    def add(i, j):
        u, v, w = code[i], code[j], 0
        for radix, place in zip(layout.radices, layout.places):
            w += (u // place + v // place) % radix * place
        return index_of[w]

    return add


def inverse(codes) -> list:
    """The index of each code."""
    return sorted(range(len(codes)), key=codes.__getitem__)


def test_one_digit_addition_matches_the_digit_loop():
    # Zn(n) for n <= 64, and one-digit layouts whose codes are not the
    # element indices
    rng = random.Random(64)
    layouts = [ZnRing(n).layout for n in range(2, 65)]
    for n in (3, 10, 64):
        codes = list(range(n))
        rng.shuffle(codes)
        layouts.append(DigitLayout(codes, inverse(codes), (n,)))
    for layout in layouts:
        n, reference = len(layout.codes), digit_loop_add(layout)
        assert len(layout.radices) == 1
        for i in range(n):
            for j in range(n):
                assert layout.add(i, j) == reference(i, j), (layout.codes, i, j)


def test_multi_digit_addition_matches_the_digit_loop():
    # the two-lookup adder on every pair: mixed radices with binary digits,
    # odd radices, and shuffled codes
    rng = random.Random(27)
    specs = ("Prod(Trunc(2,3),Zn(27))", "Prod(Zn(4),Trunc(2,3))")
    specs += ("Trunc(3,2)", "Ideal(Zn(3),2)")
    layouts = [build_ring(spec).layout for spec in specs]
    for radices in ((2, 3, 4), (3, 3, 3)):
        codes = list(range(math.prod(radices)))
        rng.shuffle(codes)
        layouts.append(DigitLayout(codes, inverse(codes), radices))
    for layout in layouts:
        n, reference = len(layout.codes), digit_loop_add(layout)
        assert len(layout.radices) > 1 and not layout.binary
        for i in range(n):
            for j in range(n):
                assert layout.add(i, j) == reference(i, j), (layout.radices, i, j)


def test_product_and_idealization_rows_match_the_checked_tables():
    # the rows joined from factor rows, called on the class past the
    # table override, against the checked mul table of every Prod, Ideal
    # and Trunc ring of the catalog and of the mixed rings, and
    # Ideal(Zn(3),2).  An Ideal or Trunc ring builds that table from these
    # rows, so they are also compared with its literal products
    checked = 0
    for spec in reference_ring_specs() + ["Ideal(Zn(3),2)"]:
        ring = build_ring(spec)
        n = ring.order
        if not isinstance(ring, (ProdRing, IdealizeRing)) or n > CONSTRUCTION_CHECK_CAP:
            continue
        mul, (_, literal_mul, _) = ring.index_tables()[1], literal_ops(ring)
        for i, t in enumerate(ring.elements):
            row = type(ring).mul_row(ring, t)
            assert row == mul[i * n : (i + 1) * n].tolist(), (spec, t)
            if isinstance(ring, IdealizeRing):
                products = [literal_mul(t, x) for x in ring.elements]
                assert row == list(map(ring.index, products)), (spec, t)
        checked += 1
    assert checked == 55


def joined_row_rings():
    """Prod, Ideal and Trunc rings past the check cap, whose rows are
    joined from their factors' rows at every use."""
    specs = [s for s in BENCHMARK_RING_SPECS if s.startswith(("Prod", "Ideal", "Trunc"))]
    built = [build_ring(s) for s in specs + ["Prod(Zn(4),Trunc(2,9))", "Trunc(11,2)"]]
    assert all(ring.order > CONSTRUCTION_CHECK_CAP for ring in built)
    return built


def rows_unlike_value_products(built):
    """The (spec, t) of seeded sample rows of the rings whose rows or value
    products differ from the literal products."""
    rng = random.Random(729)
    unlike = []
    for ring in built:
        _, mul, _ = literal_ops(ring)
        for t in rng.sample(ring.elements, 4):
            literal = [ring.index(mul(t, x)) for x in ring.elements]
            values = [ring.index(ring.mul(t, x)) for x in ring.elements]
            if not type(ring).mul_row(ring, t) == values == literal:
                unlike.append((ring.spec, t))
    return unlike


def test_product_and_idealization_rows_match_value_products():
    assert rows_unlike_value_products(joined_row_rings()) == []


@pytest.mark.parametrize("plant", JOINED_ROW_FAULTS, ids=lambda plant: plant.__name__)
def test_row_faults_no_rule_sees_are_caught_by_value_products(monkeypatch, plant):
    # the rings are built before the fault is planted: an Ideal or Trunc
    # ring of at most 64 elements builds its checked tables from its rows,
    # so the construction check rejects a fault in the joined rows of an
    # Ideal factor of such a ring
    built = joined_row_rings()
    plant(monkeypatch)
    assert rows_unlike_value_products(built) != []


@pytest.mark.parametrize("spec", ["Trunc(2,3)", "Ideal(Zn(2),2)"])
def test_construction_check_rejects_idealization_rows_without_the_translation(
    monkeypatch, spec
):
    idealization_without_the_translation(monkeypatch)
    with pytest.raises(RingError, match="identity laws fail at"):
        build_ring(spec)


def test_is_maximal_is_decided_once_per_ideal(monkeypatch):
    # R10 over ring:Trunc(2,3) asks for the maximality of one ideal, the
    # maximal ideal, once per nonzero class of nonunits
    calls, decided = [], []
    is_maximal, decide = FiniteRing.is_maximal, FiniteRing._decide_maximal

    def counted_call(self, ideal):
        calls.append(ideal)
        return is_maximal(self, ideal)

    def counted_decision(self, ideal):
        decided.append(ideal)
        return decide(self, ideal)

    monkeypatch.setattr(FiniteRing, "is_maximal", counted_call)
    monkeypatch.setattr(FiniteRing, "_decide_maximal", counted_decision)
    from qdivtop.verifier import PASS, Instance, run_rule

    assert run_rule("R10", Instance("module", "ring:Trunc(2,3)")).verdict == PASS
    assert (len(calls), len(decided)) == (7, 1)


def test_ring_rules_build_no_row_of_a_large_product_or_idealization(monkeypatch):
    # R14 and R15 on the rings-qs rings read every principal ideal off the
    # factors or the base: no Prod or Ideal ring past the construction
    # check builds a row of its own
    from qdivtop.verifier import FAIL, Instance, run_rule

    rows = []
    for cls in (ProdRing, IdealizeRing):

        def counted(self, t, mul_row=cls.mul_row):
            if self.order > CONSTRUCTION_CHECK_CAP:
                rows.append((self.spec, t))
            return mul_row(self, t)

        monkeypatch.setattr(cls, "mul_row", counted)
    large = 0
    for spec in BENCHMARK_RING_SPECS:
        ring = build_ring(spec)
        composite = isinstance(ring, (ProdRing, IdealizeRing))
        large += composite and ring.order > CONSTRUCTION_CHECK_CAP
        for rule_id in ("R14", "R15"):
            assert run_rule(rule_id, Instance("ring", spec)).verdict != FAIL, (rule_id, spec)
    assert (large, rows) == (6, [])


def test_field_factors_of_a_product_are_read_off_its_factors(monkeypatch):
    # (e1, e2)R = e1R1 x e2R2 decides the two-field case with no product
    # in the ring itself, where value products took 12,312
    products = []
    mul = ProdRing.mul

    def counted(self, x, y):
        products.append(None)
        return mul(self, x, y)

    ring = build_ring("Prod(GF(2,x^6+x+1),GF(2,x^6+x+1))")
    monkeypatch.setattr(ProdRing, "mul", counted)
    assert classify_quasi_second_ring(ring) == QS_TWO_FIELDS
    assert products == []
    monkeypatch.undo()
    # against the search for inverses in eR, on every idempotent of the
    # reference rings and of 400 seeded random nested rings of order <= 256
    rng = random.Random(1313)
    specs = reference_ring_specs() + [random_ring_spec(rng, 256)[0] for _ in range(400)]
    tally = collections.Counter()
    for spec in specs:
        ring = build_ring(spec)
        for e in ring.idempotents():
            part = literal_principal_ideal(ring, e)
            field = _is_field_factor(ring, e)
            assert field == literal_is_field(ring, part, e), (spec, e)
            tally[field] += 1
    assert tally == {True: 514, False: 1474}
