import functools
import itertools
import random
from array import array

import pytest

from qdivtop.modules import find_quasi_second_violation, is_quasi_second, ring_cyclic
from qdivtop.scalars import padd, pdivmod, pmul, pneg
from qdivtop.rings import (
    NOT_QS,
    QS_LOCAL_SQUARE_ZERO,
    QS_TWO_FIELDS,
    IdealizeRing,
    ProdRing,
    QuotPolyRing,
    RingError,
    SizeCapExceeded,
    TruncRing,
    ZnRing,
    build_ring,
    classify_quasi_second_ring,
)


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
    x1 = (0, 1, 0)
    x2 = (0, 0, 1)
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
    x = (0, 1)
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


def test_is_local_matches_the_pairwise_definition():
    # local exactly when 0 and 1 are the only idempotents
    from qdivtop import verifier

    from test_modules import MIXED_RINGS

    specs = list(verifier.catalog_ring_specs(verifier.DEFAULT_CORPUS))
    specs += list(MIXED_RINGS) + [
        # the rings of the rings-qs benchmark workload
        "Zn(256)",
        "Trunc(2,7)",
        "Prod(GF(2,x^4+x+1),GF(2,x^5+x^2+1))",
        "Prod(Zn(31),Zn(29))",
        "Zn(1024)",
        "Prod(Trunc(2,3),Zn(27))",
        "Ideal(Zn(5),3)",
        "Ideal(GF(3,x^2+1),2)",
    ]
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
            lambda x, y: padd(x, y, p),
            functools.cache(lambda x, y: pdivmod(pmul(x, y, p), f, p)[1]),
            lambda x: pneg(x, p),
        )
    if isinstance(ring, TruncRing):
        p = ring.p
        return (
            lambda x, y: tuple((a + b) % p for a, b in zip(x, y)),
            lambda x, y: (x[0] * y[0] % p,)
            + tuple((x[0] * b + y[0] * a) % p for a, b in zip(x[1:], y[1:])),
            lambda x: tuple(-a % p for a in x),
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


def test_index_tables_match_the_literal_operations():
    # every catalog ring checked on construction reads its operations from
    # index tables built from its factors' tables; every entry, and the
    # value operations and rows that read them, against the definitions
    from qdivtop import verifier

    checked = 0
    for spec in verifier.catalog_ring_specs(verifier.DEFAULT_CORPUS):
        ring = build_ring(spec)
        if isinstance(ring, (ZnRing, QuotPolyRing)):
            continue
        assert ring.order <= 64, spec
        add, mul, neg = literal_ops(ring)
        add_t, mul_t, neg_t = ring.index_tables()
        elems, index, n = ring.elements, ring.index, ring.order
        for i, x in enumerate(elems):
            assert neg_t[i] == index(neg(x)) and ring.neg(x) == neg(x), (spec, x)
            products = [index(mul(x, y)) for y in elems]
            assert ring.mul_row(x) == products == mul_t[i * n : i * n + n].tolist()
            assert add_t[i * n : i * n + n].tolist() == [index(add(x, y)) for y in elems]
            for y in elems:
                assert ring.add(x, y) == add(x, y) and ring.mul(x, y) == mul(x, y)
        checked += 1
    assert checked == 51


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
    # built from the factor's, carry the broken entry and are rejected
    assert ProdRing(LawBreakingZn(6, check=False), ZnRing(2)).order == 12
    assert IdealizeRing(LawBreakingZn(6, check=False), 1).order == 36
    for build in (lambda f: ProdRing(f, ZnRing(2)), lambda f: IdealizeRing(f, 1)):
        with pytest.raises(RingError, match=message):
            build(LawBreakingZn(6, op, pair, check=False))


def test_field_detection():
    assert build_ring("GF(2,x^2+x+1)").is_field()
    assert build_ring("Zn(7)").is_field()
    assert not build_ring("Zn(8)").is_field()
    assert not build_ring("GF(2,x^2)").is_field()


def test_element_enumeration_is_sorted_and_indexed():
    for spec in ["Zn(6)", "GF(3,x^2)", "Trunc(2,2)", "Prod(Zn(2),Zn(2))"]:
        ring = build_ring(spec)
        keys = [ring.sort_key(x) for x in ring.elements]
        assert keys == sorted(keys)
        for i, x in enumerate(ring.elements):
            assert ring.index(x) == i
