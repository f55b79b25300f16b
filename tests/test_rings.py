import collections
import functools
import itertools
import math
import random
from array import array

import pytest

from qdivtop import rings
from qdivtop.modules import find_quasi_second_violation, is_quasi_second, ring_cyclic
from qdivtop.scalars import format_poly, monic_polys, padd, pdivmod, pmul, pneg
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
from common import BENCHMARK_RING_SPECS, CAP_LADDER_RINGS
from test_mutants import RULE_INVISIBLE


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
    z8 = ZnRing(8)
    assert z8.principal_ideal(2) == frozenset({0, 2, 4, 6})
    assert z8.principal_ideal(4) == frozenset({0, 4})
    t = TruncRing(2, 1)
    x = (0, (1,))
    # oracle: enumerate all 4 products
    assert frozenset(t.mul(r, x) for r in t.elements) == frozenset({t.zero, x})
    assert t.principal_ideal(x) == frozenset({t.zero, x})


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
        assert pdivmod(padd(r, pneg(s, 3), 3), ring.modulus, 3)[1] == ()


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


def random_ring_spec(rng, budget):
    """A seeded catalog spec, nested through Prod and Ideal, and its order,
    at most budget >= 2."""
    kind = rng.choice(["Zn", "GF"] + ["Trunc", "Prod", "Ideal"] * (budget >= 4))
    if kind == "Zn":
        n = rng.randrange(2, min(budget, 64) + 1)
        return f"Zn({n})", n
    p = rng.choice([q for q in (2, 3, 5, 7, 11, 13) if q <= budget])
    if kind == "GF":
        # any monic modulus, reducible ones included
        d = max(k for k in range(1, budget.bit_length() + 1) if p**k <= budget)
        d = rng.randrange(1, d + 1)
        f = tuple(rng.randrange(p) for _ in range(d)) + (1,)
        return f"GF({p},{format_poly(f)})", p**d
    if kind == "Trunc":
        p = p if p * p <= budget else 2
        k = 1
        while p ** (k + 2) <= budget and rng.random() < 0.6:
            k += 1
        return f"Trunc({p},{k})", p ** (k + 1)
    if kind == "Prod":
        s1, n1 = random_ring_spec(rng, budget // 2)
        s2, n2 = random_ring_spec(rng, budget // n1)
        return f"Prod({s1},{s2})", n1 * n2
    base, n = random_ring_spec(rng, math.isqrt(budget))
    d = 1
    while n ** (d + 2) <= budget and rng.random() < 0.5:
        d += 1
    return f"Ideal({base},{d})", n ** (d + 1)


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
        for ideal in {ring.principal_ideal(a) for a in ring.elements}:
            pairwise = all(ring.mul(x, y) == ring.zero for x in ideal for y in ideal)
            assert _square_zero(ring, ideal) == pairwise, (spec, sorted(ideal))
            tally[pairwise] += 1
    assert tally == {True: 161, False: 327}


def test_nontrivial_idempotent_splits_order():
    for spec in ["Zn(6)", "Zn(12)", "Prod(Zn(4),Zn(9))"]:
        ring = build_ring(spec)
        nontrivial = [
            e for e in ring.idempotents() if e not in (ring.zero, ring.one)
        ]
        assert nontrivial
        for e in nontrivial:
            part1 = ring.principal_ideal(e)
            part2 = ring.principal_ideal(ring.sub(ring.one, e))
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
    # construction, and the value operations on every pair for the others.
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
            lambda x: pneg(x, p),
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


def quot_poly_factors(ring):
    """The GF(p,f) rings among the factors of a Prod or Ideal ring, at any
    depth."""
    if isinstance(ring, QuotPolyRing):
        return [ring]
    if isinstance(ring, ProdRing):
        return quot_poly_factors(ring.r1) + quot_poly_factors(ring.r2)
    if isinstance(ring, IdealizeRing):
        return quot_poly_factors(ring.base)
    return []


def test_index_tables_match_the_literal_operations():
    # every ring checked on construction reads its operations from index
    # tables built from its rows (Trunc) or its factors' tables (a Prod
    # ring's summed in byte lanes, a GF(p,f) factor's read off its rows,
    # a Zn factor's from value pairs); every entry, and the
    # value operations and rows that read them, against the definitions,
    # on the catalog rings and 200 seeded random nested rings of order at
    # most 64.  Every GF(p,f) factor's tables against its value operations
    from qdivtop import verifier

    rng = random.Random(6421)
    catalog = list(verifier.catalog_ring_specs(verifier.DEFAULT_CORPUS))
    drawn = [random_ring_spec(rng, 64)[0] for _ in range(200)]
    checked, factors = collections.Counter(), 0
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
        for factor in quot_poly_factors(ring):
            add_t, mul_t, neg_t = factor.index_tables()
            elems, index = factor.elements, factor.index
            assert add_t.tolist() == [index(factor.add(x, y)) for x in elems for y in elems]
            assert mul_t.tolist() == [index(factor.mul(x, y)) for x in elems for y in elems]
            assert neg_t.tolist() == [index(factor.neg(x)) for x in elems], factor.spec
            factors += 1
        checked[k < len(catalog)] += 1
    assert (checked[True], checked[False], factors) == (51, 126, 90)


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


class LawBreakingZn(ZnRing):
    """Zn(n) with one operation wrong at one ordered pair, run through the
    construction check that validates catalog rings."""

    def __init__(self, n, op=None, pair=None, check=True):
        self.op, self.pair = op, pair
        super().__init__(n)
        if check:
            self._init_common(validate=True)

    def _broken(self, op, x, y, value):
        return (value + 1) % self.n if (op, (x, y)) == (self.op, self.pair) else value

    def add(self, x, y):
        return self._broken("add", x, y, super().add(x, y))

    def mul(self, x, y):
        return self._broken("mul", x, y, super().mul(x, y))


def test_construction_check_accepts_the_unbroken_ring():
    assert LawBreakingZn(6).order == 6


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
            LawBreakingZn(n, op, pair)


@pytest.mark.parametrize("op, pair", [("mul", (3, 1)), ("add", (3, 0))])
def test_construction_check_rejects_a_broken_identity(op, pair):
    with pytest.raises(RingError, match="identity laws fail at 3"):
        LawBreakingZn(6, op, pair)


class RowBreakingGF(QuotPolyRing):
    """GF(2,x^3+x+1) with one wrong entry in its multiplication rows, at one
    ordered pair of element indices.  It runs no check of its own, and its
    mul table is its rows."""

    def __init__(self, pair=None):
        self.pair = pair
        super().__init__(2, (1, 1, 0, 1))

    def mul_row(self, t):
        row = super().mul_row(t)
        if self.pair and self.index(t) == self.pair[0]:
            row[self.pair[1]] = (row[self.pair[1]] + 1) % self.order
        return row


def base_breaking_trunc(p, k, pair):
    """Trunc(p,k) built over a Zn(p) whose value product is off by one at
    one ordered pair, run through Trunc's construction check."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "ZnRing", lambda n: LawBreakingZn(n, "mul", pair, check=False))
        return TruncRing(p, k)


@pytest.mark.parametrize("p, k", [(2, 2), (3, 1)])
def test_construction_check_rejects_a_trunc_ring_with_a_broken_base_product(p, k):
    # Trunc's tables are built from its Zn(p) base's, which come from the
    # base's value products on every pair.  Every planted pair is rejected.
    # A diagonal entry off 0 and 1, (2, 2) of Zn(3), sits at the same place
    # in both orders of each product that reads it, and no identity reads
    # it: the law x*(x + 1) = x*x + x sees it
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
    assert distributivity == ([(2, 2)] if p == 3 else [])


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
    # the factor runs no check of its own; the composite ring's tables,
    # built from the factor's, carry the broken entry and are rejected: a
    # value operation of a Zn factor, or a row of a GF(p,f) factor
    assert ProdRing(LawBreakingZn(6, check=False), ZnRing(2)).order == 12
    assert IdealizeRing(LawBreakingZn(6, check=False), 1).order == 36
    assert ProdRing(RowBreakingGF(), ZnRing(2)).order == 16
    assert IdealizeRing(RowBreakingGF(), 1).order == 64
    factors = [lambda: LawBreakingZn(6, op, pair, check=False)]
    if op == "mul":
        factors.append(lambda: RowBreakingGF(pair))
    for factor in factors:
        for build in (lambda f: ProdRing(f, ZnRing(2)), lambda f: IdealizeRing(f, 1)):
            with pytest.raises(RingError, match=message):
                build(factor())


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
    """For each of the given elements r: divisor(r) generates the ideal rR
    (``principal_ideal``); it is one exactly when r is a unit, that is
    when 1 is in rR, x*y = 1 for some y; and units() holds r exactly then.
    Zero's divisor is zero, and divisor_groups() lists every element under
    its divisor, both in element order."""
    ideals = {}

    def ideal(x):
        if x not in ideals:
            ideals[x] = ring.principal_ideal(x)
        return ideals[x]

    units = ring.units()
    for r in elements:
        d = ring.divisor(r)
        assert ideal(d) == ideal(r), (ring.spec, r)
        unit = ring.one in ideal(r)
        assert (r in units, d == ring.one) == (unit, unit), (ring.spec, r)
    assert ring.divisor(ring.zero) == ring.zero
    assert len(units) == len(ring.divisor_groups()[ring.one])
    groups = {}
    for r in ring.elements:
        groups.setdefault(ring.divisor(r), []).append(r)
    assert list(ring.divisor_groups().items()) == list(groups.items()), ring.spec


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
    # each constructor lists its elements in sort_key order by construction;
    # a residue of F_p[x]/(f) has its coefficients as base-p digits of its
    # layout code, and every ring label is format_element of its element
    for spec in enumeration_specs():
        ring = build_ring(spec)
        elements = ring.elements
        assert list(elements) == sorted(elements, key=ring.sort_key), spec
        for i, x in enumerate(elements):
            assert ring.index(x) == i
        assert ring.labels == tuple(map(ring.format_element, elements)), spec
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
    # the list a span of tR reads, and mul_row(t) is linear in it
    for spec in PRODUCT_SPECS:
        ring = build_ring(spec)
        gens = ring.additive_generators()
        for i, t in enumerate(ring.elements):
            literal = [ring.index(ring.mul(t, g)) for g in gens]
            assert ring.generator_products(i) == literal, (spec, t)
            assert list(ring.mul_row(t)) == [
                ring.index(ring.mul(t, x)) for x in ring.elements
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


def test_one_digit_addition_matches_the_digit_loop():
    # Zn(n) for n <= 64, and one-digit layouts whose codes are not the
    # element indices
    rng = random.Random(64)
    layouts = [ZnRing(n).layout for n in range(2, 65)]
    for n in (3, 10, 64):
        codes = list(range(n))
        rng.shuffle(codes)
        layouts.append(DigitLayout(codes, (n,)))
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
        layouts.append(DigitLayout(codes, radices))
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
    # Ideal(Zn(3),2)
    checked = 0
    for spec in reference_ring_specs() + ["Ideal(Zn(3),2)"]:
        ring = build_ring(spec)
        n = ring.order
        if not isinstance(ring, (ProdRing, IdealizeRing)) or n > CONSTRUCTION_CHECK_CAP:
            continue
        mul = ring.index_tables()[1]
        for i, t in enumerate(ring.elements):
            row = type(ring).mul_row(ring, t)
            assert row == mul[i * n : (i + 1) * n].tolist(), (spec, t)
        checked += 1
    assert checked == 55


def rows_unlike_value_products():
    """The (spec, t) of seeded sample rows of Prod, Ideal and Trunc rings
    past the check cap that differ from the value products."""
    rng = random.Random(729)
    specs = [s for s in BENCHMARK_RING_SPECS if s.startswith(("Prod", "Ideal", "Trunc"))]
    unlike = []
    for spec in specs + ["Prod(Zn(4),Trunc(2,9))", "Trunc(11,2)"]:
        ring = build_ring(spec)
        assert ring.order > CONSTRUCTION_CHECK_CAP
        for t in rng.sample(ring.elements, 4):
            literal = [ring.index(ring.mul(t, x)) for x in ring.elements]
            if type(ring).mul_row(ring, t) != literal:
                unlike.append((spec, t))
    return unlike


def test_product_and_idealization_rows_match_value_products():
    assert rows_unlike_value_products() == []


@pytest.mark.parametrize(
    "plant", [plant for plant, _ in RULE_INVISIBLE], ids=lambda plant: plant.__name__
)
def test_row_faults_no_rule_sees_are_caught_by_value_products(monkeypatch, plant):
    plant(monkeypatch)
    assert rows_unlike_value_products() != []


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
            part = ring.principal_ideal(e)
            field = _is_field_factor(ring, e)
            assert field == literal_is_field(ring, part, e), (spec, e)
            tally[field] += 1
    assert tally == {True: 514, False: 1474}
