import collections
import itertools
import math
import random

import pytest

from qdivtop import modules, rings, scalars, verifier
from qdivtop.modules import (
    ModuleError,
    SizeCapExceeded,
    Submodule,
    annihilator,
    build_module,
    cyclic_sum,
    enumerate_submodules,
    find_quasi_second_violation,
    is_quasi_second,
    is_second_submodule,
    ring_cyclic,
    scalar_classes,
    structural_predicates,
    submodule_annihilator,
    weak_idempotent_split,
)
from qdivtop.scalars import INTEGERS, poly_domain
from common import (
    BENCHMARK_LADDER_SPECS,
    BENCHMARK_ORACLE_SPECS,
    CAP_LADDER_RINGS,
    WIDE_CORPUS,
)
from test_rings import literal_label, literal_ops

F2 = poly_domain(2)


def value_arithmetic(E):
    """(add, neg, act) on the element labels of a ring module or a cyclic
    sum, from the literal operations (``literal_ops``) of the ring, or of
    each summand ring; the literal product takes a residue of E's ring
    unreduced.  No library arithmetic is shared with E."""
    if E.moduli is None:
        add, mul, neg = literal_ops(E.residue_ring)
        return add, neg, mul
    adds, muls, negs = zip(*map(literal_ops, E.summands))
    return (
        lambda x, y: tuple(add(a, b) for add, a, b in zip(adds, x, y)),
        lambda x: tuple(neg(a) for neg, a in zip(negs, x)),
        lambda r, x: tuple(mul(r, a) for mul, a in zip(muls, x)),
    )


def literal_module_label(E, x):
    """The printed form of the element x: the ring element's literal label,
    or the summands' residues, in parentheses when there are two or
    more."""
    if E.moduli is None:
        return literal_label(E.residue_ring, x)
    parts = [
        literal_label(modules._residue_ring(E.domain, d.value), a)
        for d, a in zip(E.moduli, x)
    ]
    return parts[0] if len(parts) == 1 else "(" + ",".join(parts) + ")"


def image(E, r):
    """The image rE of the residue r as a Submodule."""
    return Submodule._trusted(E, E.image_mask(E.residue_ring.index(r)))


def is_second(E):
    """The literal definition: every nonunit residue acts as zero or onto E
    (a unit always acts onto E)."""
    units = E.residue_ring.units()
    return all(
        E.image_mask(i) in (E.zero_mask, E.full_mask)
        for i, r in enumerate(E.residue_ring.elements)
        if r not in units
    )


def value_rows(E):
    """row(r): the action of residue r on E read off value products."""
    _, _, act = value_arithmetic(E)
    index = E.elem_index

    def row(r):
        return [index(act(r, x)) for x in E.elements]

    return row


def powerset_submodules(E):
    """Independent brute force: every index subset closed under addition
    and the action of every residue, read off value products (negation is
    the action of -1), found by filtering the full power set."""
    n = E.order
    assert n <= 12
    row = value_rows(E)
    rows = [row(r) for r in E.residue_ring.elements]
    found = []
    for picks in itertools.product((0, 1), repeat=n):
        subset = {i for i in range(n) if picks[i]}
        if E.zero not in subset:
            continue
        if any(E.add(i, j) not in subset for i in subset for j in subset):
            continue
        if any(row[i] not in subset for row in rows for i in subset):
            continue
        found.append(frozenset(E.elements[i] for i in subset))
    return found


def assert_index_arithmetic(E):
    """Index-level add, the row of -1 and every action row agree with the
    value arithmetic on the element labels (``value_arithmetic``)."""
    vadd, vneg, vact = value_arithmetic(E)
    el = E.elements
    ring = E.residue_ring
    minus_one = E.row(ring.index(literal_ops(ring)[2](ring.one)))
    for i, x in enumerate(el):
        assert el[minus_one[i]] == vneg(x)
        for j, y in enumerate(el):
            assert el[E.add(i, j)] == vadd(x, y)
    for i, r in enumerate(ring.elements):
        assert [el[k] for k in E.row(i)] == [vact(r, x) for x in el]


# -- construction -----------------------------------------------------------


def test_build_examples():
    assert build_module("Z:8").order == 8
    assert build_module("Z:2,4").order == 8
    assert build_module("ring:Trunc(2,3)").order == 16
    assert build_module("F2[x]:x^3").order == 8
    assert build_module("F3[x]:x^2+1,x").order == 27


def test_build_errors():
    with pytest.raises(ModuleError):
        build_module("Z:1")
    with pytest.raises(ModuleError):
        build_module("Z:0")
    with pytest.raises(ModuleError):
        build_module("Z:-1")
    with pytest.raises(ModuleError):
        build_module("F2[x]:1")
    with pytest.raises(ModuleError):
        build_module("Q:5")
    with pytest.raises(ModuleError):
        build_module("Z8")
    with pytest.raises(scalars.ScalarError):
        build_module("F4[x]:x^2")
    with pytest.raises(SizeCapExceeded):
        cyclic_sum(INTEGERS, (4095, 2))


def test_moduli_are_canonicalized():
    assert build_module("Z:4,2").spec_text == "Z:2,4"
    assert build_module("Z:-6").spec_text == "Z:6"


# -- annihilators -------------------------------------------------------------


def test_annihilator_examples():
    assert annihilator(build_module("Z:2,4")).value == 4
    e6 = build_module("Z:6")
    assert annihilator(e6).value == 6
    ef = build_module("F2[x]:x,x^2")
    ann = annihilator(ef)
    assert ann.value == (0, 0, 1)
    # the generator kills every element
    r = ef.residue_ring
    killer = scalars.pdivmod(ann.value, r.modulus, 2)[1]
    assert set(ef.row(r.index(killer))) == {ef.zero}
    # ring-backed cyclic modules report the ring-side zero ideal
    et = build_module("ring:Trunc(2,1)")
    assert annihilator(et) == frozenset({et.residue_ring.zero})


# -- scalar classes ------------------------------------------------------------


def test_scalar_classes_z8():
    E = build_module("Z:8")
    classes = scalar_classes(E)
    assert [c.label for c in classes] == ["[2]", "[4]"]
    by_label = {c.label: c for c in classes}
    # 6Z8 = {0,2,4,6} = 2Z8, so 6 lands in [2]
    assert by_label["[2]"].members == (2, 6)
    assert by_label["[4]"].members == (4,)
    assert by_label["[2]"].image.element_strs() == ["0", "2", "4", "6"]
    assert by_label["[4]"].image.element_strs() == ["0", "4"]


def test_scalar_classes_z6():
    E = build_module("Z:6")
    classes = scalar_classes(E)
    assert [c.label for c in classes] == ["[2]", "[3]"]
    assert classes[0].members == (2, 4)
    assert classes[0].image.element_strs() == ["0", "2", "4"]


def test_scalar_classes_second_module_empty():
    assert scalar_classes(build_module("Z:5")) == ()
    assert is_second(build_module("Z:5"))
    assert not is_second(build_module("Z:4"))


# the specs of the analyze-ladder benchmark workload, its two probes included,
# and of the oracle-dense workload (Z:210 is in both and listed once)
BENCHMARK_MODULE_SPECS = tuple(dict.fromkeys(BENCHMARK_LADDER_SPECS + BENCHMARK_ORACLE_SPECS))


def test_second_exactly_when_the_space_is_empty():
    # the analyze payload reports second_module as an empty space
    specs = [
        inst.spec_text
        for inst in verifier.generate_corpus(verifier.DEFAULT_CORPUS)
        if inst.kind == "module"
    ]
    specs += BENCHMARK_MODULE_SPECS
    second = 0
    for spec in specs:
        E = build_module(spec)
        assert is_second(E) == (not scalar_classes(E)), spec
        second += is_second(E)
    assert (len(specs), second) == (293, 36)


def test_class_members_share_images():
    for spec in ["Z:8", "Z:12", "Z:2,4", "F2[x]:x^3", "ring:Zn(30)"]:
        E = build_module(spec)
        for c in scalar_classes(E):
            for member in c.members:
                assert E.image_mask(E.residue_ring.index(member)) == c.image.mask


# -- cyclic images --------------------------------------------------------------


def test_cyclic_image_examples():
    E = build_module("Z:8")
    assert image(E, 2).element_strs() == ["0", "2", "4", "6"]
    assert image(E, 4).element_strs() == ["0", "4"]
    T = build_module("ring:Trunc(2,3)")
    x1 = (0, (1, 0, 0))
    assert image(T, x1).element_strs() == ["0", "x1"]
    for c in scalar_classes(T):
        assert c.image.size == 2  # every class image is {0, a}


# -- submodule enumeration -------------------------------------------------------


def test_submodule_counts():
    assert len(enumerate_submodules(build_module("Z:6"))) == 4
    assert len(enumerate_submodules(build_module("Z:8"))) == 4
    assert len(enumerate_submodules(build_module("Z:2,2"))) == 5


@pytest.mark.parametrize(
    "spec",
    [
        "Z:6", "Z:8", "Z:2,2", "Z:2,4", "Z:12",
        "F2[x]:x^2", "F2[x]:x,x", "F2[x]:x,x+1", "F2[x]:x^2,x",
        "ring:Trunc(2,1)", "ring:Trunc(2,2)", "ring:Zn(9)",
        "ring:Prod(Zn(2),Zn(3))", "ring:Ideal(Zn(2),1)",
    ],
)
def test_submodules_match_powerset_oracle(spec):
    E = build_module(spec)
    got = {
        frozenset(E.elements[i] for i in modules._bits(s.mask))
        for s in enumerate_submodules(E)
    }
    assert got == set(powerset_submodules(E))


def test_submodule_verification():
    E = build_module("Z:8")
    with pytest.raises(ModuleError):
        Submodule(E, elements=[(0,), (2,)])  # not closed under addition
    with pytest.raises(ModuleError):
        Submodule(E, elements=[(2,), (4,), (6,)])  # missing zero
    ok = Submodule(E, elements=[(0,), (2,), (4,), (6,)])
    assert ok.size == 4
    # closed under addition (1 + 1 = 0) but x * 1 = x lies outside
    F = build_module("F2[x]:x^3")
    with pytest.raises(ModuleError):
        Submodule(F, elements=[((),), ((1,),)])


def test_library_masks_pass_the_submodule_check():
    # class images and lattice masks skip the closure check when the
    # library builds them; every one on the default corpus must pass it
    classes = lattice = 0
    for inst in verifier.generate_corpus(verifier.DEFAULT_CORPUS):
        if inst.kind != "module":
            continue
        E = build_module(inst.spec_text)
        masks = [c.image.mask for c in scalar_classes(E)]
        classes += len(masks)
        lattice += len(E.lattice_masks())
        for m in masks + list(E.lattice_masks()):
            assert Submodule(E, mask=m).mask == m
    assert (classes, lattice) == (927, 2705)
    # the same check rejects a caller's mask that is not a submodule
    E = build_module("Z:8")
    with pytest.raises(ModuleError):
        Submodule(E, mask=E.zero_mask | 1 << E.elem_index((2,)))


def test_index_arithmetic_matches_value_arithmetic():
    for spec in ("Z:2,4", "F2[x]:x^2,x", "F3[x]:x^2,x", "ring:Trunc(2,2)"):
        assert_index_arithmetic(build_module(spec))


def test_lattice_cap():
    E = cyclic_sum(INTEGERS, (17, 17))
    assert E.order == 289
    with pytest.raises(SizeCapExceeded):
        enumerate_submodules(E)


# cyclic sums of three and four summands, which the default corpus (two
# summands at most) leaves out
MULTI_SUMMAND_SPECS = ("Z:2,4,4", "Z:2,2,2,2", "F2[x]:x,x,x^2", "F2[x]:x^2+x,x^2,x")


def test_summand_listing_matches_the_join_closure():
    # a cyclic sum's lattice is listed summand by summand; the join closure
    # run on the same module must find the same masks, none of them twice
    checked = 0
    for spec in default_module_specs() + list(MULTI_SUMMAND_SPECS):
        E = build_module(spec)
        if E.moduli is None:
            continue
        assert E.lattice_masks() == tuple(sorted(modules.lattice_by_joins(E))), spec
        checked += 1
    assert checked == 167


def canonical_divisors(domain, d):
    """The positive divisors of an integer d, or the monic divisors of a
    polynomial d, by trial division."""
    if domain.kind == "int":
        return [u for u in range(1, d + 1) if d % u == 0]
    p = domain.char
    return [
        u
        for k in range(scalars.pdeg(d) + 1)
        for u in scalars.monic_polys(p, k)
        if not scalars.pdivmod(d, u, p)[1]
    ]


def two_summand_count(E):
    """Goursat's count of the submodules of A/(d_1) + A/(d_2): the sum of
    |A/gcd(d_1/u, w)| over the divisors u of d_1 and w of d_2."""
    d1, d2 = (d.value for d in E.moduli)
    divisor_pairs = itertools.product(
        canonical_divisors(E.domain, d1), canonical_divisors(E.domain, d2)
    )
    if E.domain.kind == "int":
        return sum(math.gcd(d1 // u, w) for u, w in divisor_pairs)
    p = E.domain.char
    return sum(
        p ** scalars.pdeg(scalars.pgcd(scalars.pdivmod(d1, u, p)[0], w, p))
        for u, w in divisor_pairs
    )


def test_two_summand_lattices_have_goursats_count():
    checked = 0
    for spec in default_module_specs():
        E = build_module(spec)
        if E.moduli is None or len(E.moduli) != 2:
            continue
        assert len(E.lattice_masks()) == two_summand_count(E), spec
        checked += 1
    assert checked == 141
    # past the lattice cap, the listing itself
    for spec, count in (("Z:16,32", 114), ("Z:36,36", 345)):
        E = build_module(spec)
        assert E.order > modules.LATTICE_CAP
        assert len(modules.lattice_by_summands(E)) == two_summand_count(E) == count


# -- annihilators of submodules ---------------------------------------------------


def test_submodule_annihilator_examples():
    e4 = build_module("Z:4")
    gen, maximal = submodule_annihilator(image(e4, 2))
    assert gen.value == 2 and maximal
    e8 = build_module("Z:8")
    gen8, maximal8 = submodule_annihilator(image(e8, 2))
    assert gen8.value == 4 and not maximal8
    zero = Submodule(e8, elements=[(0,)])
    genz, maxz = submodule_annihilator(zero)
    assert genz.value == 1 and not maxz


def test_submodule_annihilator_ring_side():
    T = build_module("ring:Trunc(2,2)")
    x1 = (0, (1, 0))
    killer_mask, maximal = submodule_annihilator(image(T, x1))
    # ann of {0, x1} is the whole maximal ideal (c0 = 0), which is maximal
    assert maximal
    assert killer_mask == sum(
        1 << i for i, e in enumerate(T.residue_ring.elements) if e[0] == 0
    )


# GF(2,x^2+1) lists its one nonzero nonunit, x+1, last, so a search that
# stops one element early reads its zero ideal as maximal; the Prod ring is
# past the table cap and multiplies through its layout rows
MAXIMALITY_EXTRA_SPECS = ("ring:GF(2,x^2+1)", "ring:Prod(Zn(5),Trunc(2,3))")


def test_annihilator_maximality_agrees_with_quotient_field_route():
    # R/I is a field exactly when the ideal I is a coatom of the ideal
    # lattice of R, the submodule lattice of R as a module over itself.
    # That reference checks the irreducible-generator route of cyclic sums
    # and the ring route of ring modules alike, and shares code with neither.
    ideal_lattices = {}
    flags = collections.Counter()
    for spec in default_module_specs() + list(MAXIMALITY_EXTRA_SPECS):
        E = build_module(spec)
        ring = E.residue_ring
        if ring.spec not in ideal_lattices:
            ideal_lattices[ring.spec] = ring_cyclic(ring).lattice_masks()
        lattice = ideal_lattices[ring.spec]
        full = (1 << ring.order) - 1
        rows = [E.row(i) for i in range(ring.order)]
        for N in enumerate_submodules(E):
            members = [i for i in range(E.order) if (N.mask >> i) & 1]
            killer_mask = sum(
                1 << k
                for k, row in enumerate(rows)
                if all(row[i] == E.zero for i in members)
            )
            coatom = killer_mask != full and not any(
                m not in (killer_mask, full) and m & killer_mask == killer_mask
                for m in lattice
            )
            assert submodule_annihilator(N)[1] == coatom, (spec, N.element_strs())
            flags[E.moduli is None, coatom] += 1
    # keyed by (catalog ring over itself, coatom)
    assert flags == {
        (False, True): 596,
        (False, False): 1611,
        (True, True): 236,
        (True, False): 299,
    }


# -- second and quasi second -------------------------------------------------------


def test_second_examples():
    assert is_second(build_module("Z:5"))
    assert not is_second(build_module("Z:4"))
    e4 = build_module("Z:4")
    assert is_second_submodule(image(e4, 2))


def test_quasi_second_examples():
    assert is_quasi_second(build_module("Z:4"))
    assert not is_quasi_second(build_module("Z:8"))
    assert is_quasi_second(build_module("Z:6"))
    v = find_quasi_second_violation(build_module("Z:8"))
    assert v == {"a": "2", "b": "4", "aE": ["0", "2", "4", "6"], "bE": ["0", "4"]}


def test_quasi_second_implications_on_samples():
    # quasi second forces second images and maximal image annihilators
    for spec in ["Z:4", "Z:6", "Z:9", "ring:Zn(25)", "F2[x]:x^2", "ring:Trunc(2,3)"]:
        E = build_module(spec)
        assert is_quasi_second(E), spec
        for c in scalar_classes(E):
            assert is_second_submodule(c.image), spec
            assert submodule_annihilator(c.image)[1], spec


# -- structural predicates -----------------------------------------------------------


def test_structural_predicates_examples():
    p8 = structural_predicates(build_module("Z:8"))
    assert (p8.uniserial, p8.multiplication, p8.comultiplication) == (True, True, True)
    assert not p8.semiprime_annihilator
    p6 = structural_predicates(build_module("Z:6"))
    assert not p6.uniserial
    assert p6.multiplication and p6.comultiplication and p6.semiprime_annihilator
    p24 = structural_predicates(build_module("Z:2,4"))
    assert not p24.uniserial
    assert not structural_predicates(build_module("Z:2,2")).comultiplication


def literal_predicates(E):
    """(multiplication, comultiplication) from every residue's full row:
    N = (N:E)E and N = ann_E(ann_R(N)) for every submodule N.  (N:E)E is
    the sum of the images rE inside N, and ann_E(ann_R(N)) the elements
    that every residue killing N sends to zero."""
    rows = [E.row(i) for i in range(E.residue_ring.order)]
    images = [literal_mask(row) for row in rows]
    kernels = [literal_kernel(E, row) for row in rows]
    multiplication = comultiplication = True
    for n in E.lattice_masks():
        inside = 0
        for m in images:
            if not m & ~n:
                inside |= m
        ann = E.full_mask
        for k in kernels:
            if not n & ~k:
                ann &= k
        multiplication &= E.layout.span(modules._bits(inside)) == n
        comultiplication &= ann == n
    return multiplication, comultiplication


def literal_uniserial(E):
    """Every pair of submodules is comparable."""
    return all(
        not a & ~b or not b & ~a
        for a, b in itertools.combinations(E.lattice_masks(), 2)
    )


def literal_kernel(E, row):
    return literal_mask(i for i, y in enumerate(row) if y == E.zero)


def literal_mask(indices):
    # the mask of a set of element indices, with no library code
    return sum(1 << i for i in set(indices))


# Trunc(2,3) is a multiplication module but not a comultiplication one
PREDICATE_EXTRA_SPECS = ("Z:16,16", "F2[x]:x^4,x^4", "F3[x]:x^5", "ring:Trunc(2,3)")


def test_structural_predicates_match_the_literal_reference():
    # every default instance, a ring instance read as its ring: module
    specs = [
        inst.spec_text if inst.kind == "module" else "ring:" + inst.spec_text
        for inst in verifier.generate_corpus(verifier.DEFAULT_CORPUS)
    ]
    flags = collections.Counter()
    chains = 0
    for spec in specs + list(PREDICATE_EXTRA_SPECS):
        E = build_module(spec)
        preds = structural_predicates(E)
        literal = literal_predicates(E)
        assert (preds.multiplication, preds.comultiplication) == literal, spec
        assert preds.uniserial == literal_uniserial(E), spec
        flags[literal] += 1
        chains += preds.uniserial
        for g in E.residue_ring.divisors():
            assert E.kernel_mask(g) == literal_kernel(E, E.row(g)), (spec, g)
    assert literal == (True, False)
    assert flags == {(True, True): 313, (True, False): 7, (False, False): 75}
    assert chains == 75


def test_divisible_and_simple():
    assert structural_predicates(build_module("Z:5")).simple
    assert not structural_predicates(build_module("Z:5")).divisible
    # the zero module: the empty direct sum, one element, over Zn(2)
    # acting as zero
    zero_module = modules.FiniteModule("0", rings.ZnRing(2), (), INTEGERS, ())
    preds = structural_predicates(zero_module)
    assert preds.divisible and not preds.simple


# -- weak idempotent splits ------------------------------------------------------------


def test_weak_split_examples():
    split = weak_idempotent_split(build_module("Z:6"))
    assert split.kind == "split"
    assert split.idempotent == 3
    assert split.parts[0].element_strs() == ["0", "3"]
    assert split.parts[1].element_strs() == ["0", "2", "4"]
    assert weak_idempotent_split(build_module("Z:5")).kind == "simple"
    assert weak_idempotent_split(build_module("Z:4")).kind == "none"


def test_weak_split_parts_decompose():
    for spec in ["Z:6", "ring:Prod(Zn(2),Zn(3))", "ring:Prod(Zn(5),Zn(7))"]:
        E = build_module(spec)
        split = weak_idempotent_split(E)
        assert split.kind == "split", spec
        p1, p2 = split.parts
        assert p1.size * p2.size == E.order
        assert (p1.mask & p2.mask) == E.zero_mask


# -- submodules and quotients through the parent's action ----------------------------


def coset_count(Q):
    return len(Q.format_mask(Q.full_mask))


def proper_images(D):
    ring = D.residue_ring
    return {D.image_mask(i) for i in range(ring.order)} - {D.zero_mask, D.full_mask}


def test_quotient_example():
    E = build_module("Z:8")
    q = image(E, 2).quotient()
    # E/N is a section of E like N itself, with N as its zero
    assert isinstance(q, Submodule)
    assert coset_count(q) == 2
    assert q.format_mask(q.full_mask) == ["0", "1"]
    assert is_quasi_second(q)
    assert not proper_images(q)


def test_submodule_example():
    E = build_module("Z:8")
    sub = image(E, 2)
    assert sub.full_mask.bit_count() == 4
    assert is_quasi_second(sub)
    # behaves like Z:4: one proper image, of two elements
    assert [sub.format_mask(m) for m in proper_images(sub)] == [["0", "4"]]
    # a residue acts through its divisor: 6N = 2N (over Z/(8) a residue is
    # its own index)
    assert sub.image_mask(6) == sub.image_mask(2)


def direct_sum(E1, E2):
    """The direct sum of two explicit cyclic sums over the same domain:
    the cyclic sum on both lists of moduli."""
    if E1.moduli is None or E2.moduli is None:
        raise ModuleError("direct sums are supported for explicit cyclic sums")
    if E1.domain != E2.domain:
        raise ModuleError("domain mismatch")
    return cyclic_sum(E1.domain, E1.moduli + E2.moduli)


def test_direct_sum_matches_two_summand_module():
    d = direct_sum(build_module("Z:2"), build_module("Z:3"))
    assert d.order == 6
    assert d.spec_text == "Z:2,3"
    labels = [c.label for c in scalar_classes(d)]
    assert labels == [c.label for c in scalar_classes(build_module("Z:6"))] == ["[2]", "[3]"]


def test_direct_sum_domain_mismatch():
    with pytest.raises(ModuleError):
        direct_sum(build_module("Z:2"), build_module("F2[x]:x"))
    with pytest.raises(ModuleError):
        direct_sum(build_module("Z:2"), build_module("ring:Zn(3)"))


def test_quotient_sizes_multiply():
    E = build_module("Z:12")
    for sub in enumerate_submodules(E):
        q = sub.quotient()
        assert coset_count(q) * sub.size == E.order
        assert q.zero_mask == sub.mask and q.full_mask == E.full_mask


def test_induced_actions_over_ring_cyclic():
    T = build_module("ring:Trunc(2,2)")
    for sub in enumerate_submodules(T):
        quot = sub.quotient()
        assert sub.full_mask == sub.mask and sub.zero_mask == T.zero_mask
        assert coset_count(quot) * sub.size == T.order
        # quasi second passes to submodules and quotients here
        assert is_quasi_second(sub) and is_quasi_second(quot)



def test_summands_are_lattice_submodules_with_the_summand_verdict():
    # each summand A/(d) of a two-summand sum, the submodule of the elements
    # that are zero off it, is in the lattice that R16 walks, and E's action
    # on it gives the summand's own verdict: R16 needs no separate summand check
    checked = 0
    for spec in default_module_specs():
        E = build_module(spec)
        if E.moduli is None or len(E.moduli) != 2:
            continue
        zero = E.elements[E.zero]
        for j, d in enumerate(E.moduli):
            off_j = [x for x in E.elements if x[1 - j] == zero[1 - j]]
            N = Submodule(E, elements=off_j)
            assert N.mask in E.lattice_masks(), spec
            alone = cyclic_sum(E.domain, (d,))
            assert N.size == alone.order, spec
            via_e = find_quasi_second_violation(N)
            assert (via_e is None) == is_quasi_second(alone), (spec, str(d))
            checked += 1
    assert checked == 282


def test_submodule_rejects_masks_outside_its_module():
    # a negative mask, or one with a bit at or past the order, names no set
    # of elements: a ModuleError, not an IndexError from the closure check
    E = build_module("Z:8")
    for mask in (1 | 1 << 100, -1, E.full_mask | 1 << 8):
        with pytest.raises(ModuleError):
            Submodule(E, mask=mask)


# -- the residue reduction claim ------------------------------------------------------------


def test_classes_match_direct_sampling_z12():
    E = build_module("Z:12")
    mods = [d.value for d in E.moduli]
    in_w = set()
    for a in range(-24, 25):
        image = {tuple((a * x) % m for x, m in zip(elem, mods)) for elem in E.elements}
        if image != {E.elements[E.zero]} and image != set(E.elements):
            in_w.add(a % 12)
    ring = E.residue_ring
    expected = {
        r for r in ring.elements if r != ring.zero and r not in ring.units()
    }
    assert in_w == expected


def default_module_specs():
    return [
        inst.spec_text
        for inst in verifier.generate_corpus(verifier.DEFAULT_CORPUS)
        if inst.kind == "module"
    ]


# larger modules with many divisors; value products for every residue and
# element would be about 6 million tuple products here
LARGER_SPECS = ("Z:2310", "Z:360", "F2[x]:x^8", "F3[x]:x^5", "F2[x]:x^4,x^4")


def test_divisor_first_paths_match_the_full_sweep():
    # images go through the summands' ideals of each divisor, killers
    # through one row per divisor, and cyclic submodules through an image
    # or a span; the definitional path reads
    # every residue's own value products.  On the larger modules it reads
    # every residue's own row, after checking the rows of the generators,
    # the divisors and a seeded sample against value products.
    residues = killers = cyclics = 0
    rng = random.Random(2310)
    for spec in default_module_specs() + list(LARGER_SPECS):
        E = build_module(spec)
        ring = E.residue_ring
        value_row = value_rows(E)
        if spec in LARGER_SPECS:
            divisors = [ring.elements[g] for g in ring.divisors()]
            for r in ladder_picks(ring, rng) + divisors:
                assert list(E.row(ring.index(r))) == value_row(r), (spec, r)
            rows = [list(E.row(i)) for i in range(ring.order)]
        else:
            rows = [value_row(r) for r in ring.elements]
            for i, row_r in enumerate(rows):
                assert list(E.row(i)) == row_r, (spec, i)
        for i, row_r in enumerate(rows):
            assert E.image_mask(i) == literal_mask(row_r), (spec, i)
        residues += ring.order
        if E.order <= modules.LATTICE_CAP:
            for mask in E.lattice_masks():
                members = list(modules._bits(mask))
                full_scan = sum(
                    1 << k
                    for k, row_r in enumerate(rows)
                    if all(row_r[i] == E.zero for i in members)
                )
                assert modules._killer_residues(E, mask) == full_scan, (spec, mask)
                killers += 1
        for i, column in enumerate(zip(*rows)):
            assert E.cyclic_mask(i) == literal_mask(column), (spec, i)
        cyclics += E.order
    assert (residues, killers, cyclics) == (10236, 2803, 12224)


# -- divisors and idempotents of A/(n) ---------------------------------------

# the modulus with the most divisors (72) that fits the element cap over F_2
MANY_DIVISORS_SPEC = "F2[x]:x^12+x^9+x^5+x^2"


def quotient_rings(specs):
    """The distinct rings A/(n) of the module specs: each cyclic sum's
    residue ring and summand rings, and the Zn and GF factors of each
    catalog ring."""
    found = {}

    def walk(ring):
        if isinstance(ring, rings._EuclideanQuotient):
            found.setdefault(ring.spec, ring)
        for factor in (getattr(ring, name, None) for name in ("r1", "r2", "base")):
            if factor is not None:
                walk(factor)

    for spec in specs:
        E = build_module(spec)
        walk(E.residue_ring)
        for d in E.moduli or ():
            walk(modules._residue_ring(E.domain, d.value))
    return list(found.values())


def literal_divisor(ring, r):
    """gcd(r, n), normalized as a residue: zero for r = 0."""
    if isinstance(ring, rings.ZnRing):
        return math.gcd(r, ring.n) % ring.n
    g = scalars.pgcd(r, ring.modulus, ring.p)
    return ring.zero if g == ring.modulus else g


def test_sieved_divisors_and_idempotents_match_the_definitions():
    specs = (
        default_module_specs()
        + [i.spec_text for i in verifier.generate_corpus(WIDE_CORPUS)[::8] if i.kind == "module"]
        + list(BENCHMARK_LADDER_SPECS)
        + [MANY_DIVISORS_SPEC]
    )
    checked = 0
    for ring in quotient_rings(specs):
        gcds = [ring.index(literal_divisor(ring, r)) for r in ring.elements]
        assert ring.divisor_table().tolist() == gcds, ring.spec
        first = {}
        for i, g in enumerate(gcds):
            first.setdefault(g, i)
        assert list(ring.divisors().items()) == list(first.items()), ring.spec
        assert ring.idempotents() == {x for x in ring.elements if ring.mul(x, x) == x}
        checked += 1
    assert checked == 330


def test_weak_split_parts_always_meet_in_zero_and_span():
    # the meet and join tests weak_idempotent_split no longer runs
    idempotents = 0
    for spec in default_module_specs() + list(BENCHMARK_LADDER_SPECS):
        E = build_module(spec)
        ring = E.residue_ring
        for e in ring.idempotents():
            f = ring.sub(ring.one, e)
            part_e, part_f = E.image_mask(ring.index(e)), E.image_mask(ring.index(f))
            assert part_e & part_f == E.zero_mask, (spec, e)
            assert E.join_masks(part_e, part_f) == E.full_mask, (spec, e)
            idempotents += 1
    assert idempotents == 1164


def test_divisor_listing_matches_trial_division():
    # every modulus of the wide corpus, against trial division by every
    # candidate divisor
    moduli = set()
    for inst in verifier.generate_corpus(WIDE_CORPUS):
        if inst.kind == "module" and not inst.spec_text.startswith("ring:"):
            E = build_module(inst.spec_text)
            moduli.update((E.domain, d.value) for d in E.moduli)
    for domain, d in moduli:
        if domain.kind == "int":
            trial = [(u, d // u) for u in canonical_divisors(domain, d)[:-1]]
        else:
            trial = [
                (u, scalars.pdivmod(d, u, domain.char)[0])
                for u in canonical_divisors(domain, d)[:-1]
            ]
        assert scalars.proper_divisors(domain, d) == trial, (domain, d)
    assert len(moduli) == 381


# -- spans of additive generators ---------------------------------------------

# nested constructors whose factors have different digit radices
MIXED_RINGS = (
    "Prod(Zn(4),GF(3,x^2+1))",
    "Prod(Trunc(3,1),Ideal(Zn(2),1))",
    "Ideal(Prod(Zn(2),Zn(3)),2)",
    "Ideal(GF(2,x^2+x+1),1)",
    "Prod(Zn(9),Prod(Zn(2),Trunc(2,1)))",
)


def catalog_rings():
    return [rings.build_ring(s) for s in verifier.catalog_ring_specs(verifier.DEFAULT_CORPUS)]


# a product whose divisor groups are not singletons, and whose associates
# (3, x) and (3, 2x) share an image: the merged class interleaves groups
INTERLEAVED_RING = "Prod(Zn(9),Trunc(3,1))"


def default_instance_modules():
    """Each default corpus instance as a module, the mixed rings, whose
    associates give one image to several divisors, and INTERLEAVED_RING."""
    specs = [
        ("ring:" if inst.kind == "ring" else "") + inst.spec_text
        for inst in verifier.generate_corpus(verifier.DEFAULT_CORPUS)
    ]
    specs += [f"ring:{r}" for r in MIXED_RINGS + (INTERLEAVED_RING,)]
    return [build_module(s) for s in specs]


def test_scalar_classes_match_grouping_by_literal_images():
    # one image per divisor, residues grouped by divisor, against every
    # nonzero nonunit residue grouped by the image of its value products
    count = merged = 0
    for E in default_instance_modules():
        ring = E.residue_ring
        units = ring.units()
        row = value_rows(E)
        groups = {}
        for r in ring.elements:
            if r != ring.zero and r not in units:
                groups.setdefault(literal_mask(row(r)), []).append(r)
        literal = [
            (tuple(members), mask, f"[{literal_label(ring, members[0])}]")
            for mask, members in groups.items()
        ]
        classes = scalar_classes(E)
        assert [(c.members, c.image.mask, c.label) for c in classes] == literal, E
        count += len(classes)
        merged += sum(
            len({ring.divisor_table()[ring.index(r)] for r in c.members}) > 1
            for c in classes
        )
    assert (count, merged) == (1250, 32)


def test_module_labels_are_the_formatted_elements():
    # labels are put together from the summands' ring labels, once
    specs = [E.spec_text for E in default_instance_modules()]
    specs += list(BENCHMARK_LADDER_SPECS) + [MANY_DIVISORS_SPEC, "F3[x]:x^7", "Z:2,3,4"]
    for spec in specs:
        E = build_module(spec)
        assert E.labels == tuple(literal_module_label(E, x) for x in E.elements), spec


def ladder_picks(ring, rng):
    """The generators, 0, 1 and up to 24 seeded random residues: a full
    sweep at the cap is 4096 rows of 4096 products per ring."""
    gens = [ring.elements[g] for g in ring.additive_generators()]
    return gens + [ring.zero, ring.one] + rng.sample(
        ring.elements, min(24, ring.order)
    )


def test_ring_images_are_spans_of_generator_products():
    # rR is the additive span of r*g over the additive generators g, or
    # over A/(n) the multiples of gcd(r, n); the definitional image is the
    # set of r's |R| products.  The action row,
    # built from one product per digit, must list those products too.
    checked = 0
    for ring in catalog_rings() + [rings.build_ring(s) for s in MIXED_RINGS]:
        E = ring_cyclic(ring)
        value_row = value_rows(E)
        for r in ring.elements:
            row = value_row(r)
            assert list(E.row(ring.index(r))) == row, (ring.spec, r)
            assert E.image_mask(ring.index(r)) == literal_mask(row), (ring.spec, r)
        checked += ring.order
    assert checked == 4117
    rng = random.Random(20261018)
    for spec in CAP_LADDER_RINGS:
        ring = rings.build_ring(spec)
        E = ring_cyclic(ring)
        value_row = value_rows(E)
        for r in ladder_picks(ring, rng):
            row = value_row(r)
            assert list(E.row(ring.index(r))) == row, (spec, r)
            assert E.image_mask(ring.index(r)) == literal_mask(row), (spec, r)


def test_additive_generators_span_the_ring():
    for ring in catalog_rings() + [rings.build_ring(s) for s in MIXED_RINGS + CAP_LADDER_RINGS]:
        gens = ring.additive_generators()
        assert ring.layout.span(gens) == (1 << ring.order) - 1, ring.spec


def test_ring_addition_matches_ring_values():
    # the digit layout adds like the ring's literal addition: every pair on
    # the small rings, seeded random pairs at the cap
    for ring in catalog_rings() + [rings.build_ring(s) for s in MIXED_RINGS]:
        E, (add, _, _) = ring_cyclic(ring), literal_ops(ring)
        el = ring.elements
        for i, x in enumerate(el):
            for j, y in enumerate(el):
                assert E.add(i, j) == ring.index(add(x, y)), (ring.spec, x, y)
    rng = random.Random(4096)
    for spec in CAP_LADDER_RINGS:
        ring = rings.build_ring(spec)
        E, (add, _, _) = ring_cyclic(ring), literal_ops(ring)
        el = ring.elements
        for _ in range(3000):
            i, j = rng.randrange(ring.order), rng.randrange(ring.order)
            assert E.add(i, j) == ring.index(add(el[i], el[j])), (spec, i, j)


def literal_search(ring, images, zero, full, fmt):
    """The quasi-second search over every pair of nonunit residues, in
    element order: images maps each nonunit residue to its image as a set,
    and fmt lists the elements of an image."""
    pairs = list(images.items())
    for ra, ia in pairs:
        if ia == full:
            continue
        for rb, ib in pairs:
            if ib != zero and ib < ia:
                return {
                    "a": literal_label(ring, ra),
                    "b": literal_label(ring, rb),
                    "aE": fmt(ia),
                    "bE": fmt(ib),
                }
    return None


def literal_quasi_second_violation(E, row):
    """The literal search on E, each image read off the residue's row of
    value products."""
    ring = E.residue_ring
    units = ring.units()
    images = {r: frozenset(row(r)) for r in ring.elements if r not in units}
    return literal_search(
        ring,
        images,
        frozenset({E.zero}),
        frozenset(range(E.order)),
        lambda s: E.format_mask(literal_mask(s)),
    )


def test_quasi_second_search_matches_the_pairwise_search():
    specs = default_module_specs()
    specs += ["Z:360", "F2[x]:x^8", "F3[x]:x^2+1,x^3", "ring:Trunc(2,6)",
              "ring:Ideal(GF(3,x^2+1),1)"] + [f"ring:{s}" for s in MIXED_RINGS]
    witnesses = 0
    for spec in specs:
        E = build_module(spec)
        expected = literal_quasi_second_violation(E, value_rows(E))
        assert find_quasi_second_violation(E) == expected, spec
        witnesses += expected is not None
    assert witnesses > 0


def test_induced_actions_match_the_literal_search():
    # every lattice submodule N of every default-corpus module within the
    # lattice cap: the search on N and on E/N through E's action, against
    # the literal search over E's nonunit residues with images from value
    # products: rN as an element set, and r(E/N) as the set of cosets
    # r*x + N.  A quotient image is listed by its cosets' least members.
    sides = witnesses = 0
    for spec in default_module_specs():
        E = build_module(spec)
        if E.order > modules.LATTICE_CAP:
            continue
        add, _, act = value_arithmetic(E)
        ring = E.residue_ring
        units = ring.units()
        nonunits = [r for r in ring.elements if r not in units]
        index = E.elem_index
        products = {r: [index(act(r, x)) for x in E.elements] for r in nonunits}

        def listed(indices):
            return [literal_module_label(E, E.elements[i]) for i in sorted(indices)]

        for mask in E.lattice_masks():
            N = Submodule._trusted(E, mask)
            members = list(modules._bits(mask))
            # the cosets x + N, each found once, as index sets
            coset = [None] * E.order
            for i, x in enumerate(E.elements):
                if coset[i] is None:
                    c = frozenset(index(add(x, E.elements[k])) for k in members)
                    for j in c:
                        coset[j] = c
            on_sub = {
                r: frozenset(products[r][i] for i in members) for r in nonunits
            }
            on_quot = {r: frozenset(coset[j] for j in products[r]) for r in nonunits}
            expected_sub = literal_search(
                ring, on_sub, frozenset({E.zero}), frozenset(members), listed
            )
            expected_quot = literal_search(
                ring,
                on_quot,
                frozenset({coset[E.zero]}),
                frozenset(coset),
                lambda cosets: listed(min(c) for c in cosets),
            )
            got_sub = find_quasi_second_violation(N)
            got_quot = find_quasi_second_violation(N.quotient())
            assert got_sub == expected_sub, (spec, N.element_strs())
            assert got_quot == expected_quot, (spec, N.element_strs())
            sides += 2
            witnesses += (expected_sub is not None) + (expected_quot is not None)
    assert (sides, witnesses) == (5410, 1388)
