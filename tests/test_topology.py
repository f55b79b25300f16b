import collections
import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from qdivtop import modules, topology
from qdivtop.modules import build_module, cyclic_sum, is_quasi_second
from qdivtop.scalars import INTEGERS
from qdivtop.topology import (
    build_space,
    closure,
    connectivity_report,
    hasse_edges,
    interior,
    maximal_classes,
    minimal_classes,
    separation_report,
)


def is_dense(space, mask):
    """Literal definition: the closure of the set is the whole space."""
    return closure(space, mask) == space.full


def space_of(spec):
    return build_space(build_module(spec))


def point(space, label):
    """The index of the point with the given label."""
    return space.labels.index(label)


def labels(space, mask):
    return space.label_set(mask)


def mask_of(space, *labs):
    out = 0
    for lab in labs:
        out |= 1 << point(space, lab)
    return out


def test_build_space_examples():
    s8 = space_of("Z:8")
    assert s8.n == 2
    assert s8.le(point(s8, "[4]"), point(s8, "[2]"))
    s6 = space_of("Z:6")
    assert s6.n == 2
    assert not s6.le(0, 1) and not s6.le(1, 0)
    assert space_of("Z:5").n == 0


def test_basis_sets():
    s8 = space_of("Z:8")
    assert labels(s8, s8.up[point(s8, "[4]")]) == ["[2]", "[4]"]
    assert labels(s8, s8.up[point(s8, "[2]")]) == ["[2]"]
    s6 = space_of("Z:6")
    assert labels(s6, s6.up[point(s6, "[3]")]) == ["[3]"]


def test_closure_interior_dense():
    s8 = space_of("Z:8")
    m2 = mask_of(s8, "[2]")
    m4 = mask_of(s8, "[4]")
    assert labels(s8, closure(s8, m2)) == ["[2]", "[4]"]
    assert interior(s8, m4) == 0
    assert closure(s8, 0) == 0
    assert is_dense(s8, m2)
    assert not is_dense(s8, m4)


def test_isolated_and_maximal():
    s8 = space_of("Z:8")
    # a point is isolated when its basis set is the singleton: the maximal
    # classes, which the CLI reports under both keys
    assert labels(s8, maximal_classes(s8)) == ["[2]"]
    s6 = space_of("Z:6")
    assert labels(s6, maximal_classes(s6)) == ["[2]", "[3]"]
    s16 = build_space(cyclic_sum(INTEGERS, (16,)))
    assert labels(s16, maximal_classes(s16)) == ["[2]"]


def test_minimal_classes():
    assert labels(space_of("Z:8"), minimal_classes(space_of("Z:8"))) == ["[4]"]
    s12 = space_of("Z:12")
    assert labels(s12, minimal_classes(s12)) == ["[4]", "[6]"]
    assert minimal_classes(space_of("Z:7")) == 0


def test_separation_examples():
    r8 = separation_report(space_of("Z:8"))
    assert r8.t0 and not r8.t1
    rt = separation_report(space_of("ring:Trunc(2,3)"))
    assert rt.t1 and rt.discrete and space_of("ring:Trunc(2,3)").n == 7
    r4 = separation_report(space_of("Z:4"))
    assert r4.t1  # single point
    re = separation_report(space_of("Z:5"))
    assert re.empty and re.t1 and re.t2 and re.t3


def test_t3_examples():
    # chain: U_[2]={[2]} is not closed (its closure adds [4])
    assert not separation_report(space_of("Z:8")).t3
    assert separation_report(space_of("Z:6")).t3


def test_connectivity_examples():
    c8 = connectivity_report(space_of("Z:8"))
    assert c8.connected and c8.hyperconnected and c8.ultraconnected and c8.nested
    c6 = connectivity_report(space_of("Z:6"))
    assert not (c6.connected or c6.hyperconnected or c6.ultraconnected or c6.nested)
    assert c6.noetherian
    c12 = connectivity_report(space_of("Z:12"))
    assert c12.connected and not c12.hyperconnected


def test_empty_space_conventions():
    s = space_of("Z:7")
    sep = separation_report(s)
    conn = connectivity_report(s)
    assert sep.empty and conn.empty
    assert conn.connected  # vacuous, flagged by the empty marker


def test_hasse_edges():
    s8 = space_of("Z:8")
    assert [
        (s8.labels[i], s8.labels[j]) for i, j in hasse_edges(s8)
    ] == [("[4]", "[2]")]
    s12 = space_of("Z:12")
    named = [(s12.labels[i], s12.labels[j]) for i, j in hasse_edges(s12)]
    assert named == [("[4]", "[2]"), ("[6]", "[2]"), ("[6]", "[3]")]
    assert hasse_edges(space_of("Z:6")) == []


def test_up_set_intersections_are_up_sets():
    for spec in ["Z:8", "Z:12", "Z:2,4", "ring:Zn(60)", "F2[x]:x^2+x,x^3"]:
        s = space_of(spec)
        for i, j in itertools.combinations(range(s.n), 2):
            both = s.up[i] & s.up[j]
            for k in list(iter_bits(both)):
                assert not (s.up[k] & ~both), spec


def iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def test_divisibility_monotonicity_and_gcd_identity_z12():
    s = space_of("Z:12")
    up = {lab: labels(s, s.up[point(s, lab)]) for lab in s.labels}
    # 4 and 6 divide 12-multiples of 2; U_4 and U_6 meet exactly in U_2
    u2 = mask_of(s, *up["[2]"])
    u4 = mask_of(s, *up["[4]"])
    u6 = mask_of(s, *up["[6]"])
    assert u4 & u6 == u2
    # forward direction only: 2 | 4 gives U_2 inside U_4
    assert not (u2 & ~u4)
    # converse fails in Z:6: U_4 = U_2 but 4 does not divide 2
    s6 = space_of("Z:6")
    c = modules.scalar_classes(build_module("Z:6"))[0]
    assert c.members == (2, 4)


def test_closure_distributes_over_unions():
    for spec in ["Z:8", "Z:12", "Z:2,4"]:
        s = space_of(spec)
        for mask in range(1 << s.n):
            parts = 0
            for i in iter_bits(mask):
                parts |= closure(s, 1 << i)
            assert closure(s, mask) == parts


def test_maximal_classes_are_dense():
    # finite spaces: every point sits below a maximal class, so the set of
    # maximal classes is dense
    for spec in ["Z:8", "Z:12", "Z:6", "Z:2,4", "ring:Zn(60)", "ring:Trunc(2,3)"]:
        s = space_of(spec)
        assert is_dense(s, maximal_classes(s)), spec


def test_t1_iff_quasi_second_on_samples():
    for spec in ["Z:4", "Z:6", "Z:8", "Z:9", "Z:12", "Z:2,4", "ring:Trunc(2,3)",
                 "F2[x]:x^3", "ring:Zn(30)"]:
        E = build_module(spec)
        assert separation_report(build_space(E)).t1 == is_quasi_second(E), spec


def test_ring_quasi_second_matches_module_t1_across_catalog():
    # integration: a catalog ring is quasi second exactly when the space of
    # its cyclic module over itself is T1
    from qdivtop import rings, verifier

    for spec in verifier.catalog_ring_specs(verifier.DEFAULT_CORPUS):
        ring = rings.build_ring(spec)
        E = modules.ring_cyclic(ring)
        t1 = separation_report(build_space(E)).t1
        assert t1 == is_quasi_second(E), spec
        assert t1 == (rings.classify_quasi_second_ring(ring) != rings.NOT_QS), spec


# -- property tests over random small modules --------------------------------

small_moduli = st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=2)


@settings(max_examples=60, deadline=None)
@given(small_moduli)
def test_t1_iff_quasi_second_property(moduli):
    E = cyclic_sum(INTEGERS, tuple(moduli))
    assert separation_report(build_space(E)).t1 == is_quasi_second(E)


@settings(max_examples=60, deadline=None)
@given(small_moduli, st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_closure_interior_laws_property(moduli, raw_mask):
    s = build_space(cyclic_sum(INTEGERS, tuple(moduli)))
    mask = raw_mask & s.full
    cl = closure(s, mask)
    inner = interior(s, mask)
    assert inner & ~mask == 0
    assert mask & ~cl == 0
    assert closure(s, cl) == cl
    assert interior(s, inner) == inner
    # duality: the interior is the complement of the closure of the complement
    assert inner == s.full & ~closure(s, s.full & ~mask)


@settings(max_examples=40, deadline=None)
@given(small_moduli)
def test_maximal_classes_dense_property(moduli):
    s = build_space(cyclic_sum(INTEGERS, tuple(moduli)))
    assert is_dense(s, maximal_classes(s))


def literal_up_down(masks):
    """up[i] holds j when mask i lies in mask j; down[i] holds j when mask
    j lies in mask i; one comparison per ordered pair."""
    n = len(masks)
    up = [sum(1 << j for j in range(n) if not (masks[i] & ~masks[j])) for i in range(n)]
    down = [sum(1 << j for j in range(n) if not (masks[j] & ~masks[i])) for i in range(n)]
    return tuple(up), tuple(down)


def space_of_masks(masks):
    classes = [
        SimpleNamespace(label=f"[{i}]", image=SimpleNamespace(mask=m))
        for i, m in enumerate(masks)
    ]
    return topology.QuasiDivisorSpace(classes, provenance="masks")


def test_up_and_down_match_the_pairwise_comparison():
    # corpus spaces have distinct images; random mask lists repeat some,
    # and a space with two equal images is refused
    from qdivtop import verifier

    for inst in verifier.generate_corpus(verifier.DEFAULT_CORPUS):
        if inst.kind != "module":
            continue
        s = build_space(build_module(inst.spec_text))
        masks = [c.image.mask for c in s.classes]
        assert (s.up, s.down) == literal_up_down(masks), inst.spec_text
    rng = random.Random(7)
    repeated = 0
    for _ in range(500):
        pool = [rng.getrandbits(6) for _ in range(rng.randint(1, 6))]
        masks = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
        if len(set(masks)) < len(masks):
            repeated += 1
            with pytest.raises(ValueError):
                space_of_masks(masks)
            continue
        s = space_of_masks(masks)
        assert (s.up, s.down) == literal_up_down(masks), masks
    assert repeated > 100


def literal_connectivity(space):
    """(hyperconnected, ultraconnected, nested) from every pair of points:
    a common upper bound, a common lower bound, comparability."""
    pairs = list(itertools.combinations(range(space.n), 2))
    return (
        all(space.up[i] & space.up[j] for i, j in pairs),
        all(space.down[i] & space.down[j] for i, j in pairs),
        all(space.le(i, j) or space.le(j, i) for i, j in pairs),
    )


def random_order_masks(rng, n):
    """Each point's down-set in a random partial order on n points, so that
    inclusion of the masks is the order: a random relation from each point
    to later ones (every one of them at p = 1, a chain), closed
    transitively."""
    p = rng.choice((0.1, 0.3, 0.6, 1.0))
    down = [1 << i for i in range(n)]
    for j in range(n):
        for i in range(j):
            if rng.random() < p:
                down[j] |= down[i]
    return down


def test_connectivity_reads_match_the_pairwise_definitions():
    from qdivtop import verifier

    seen = collections.Counter()
    for inst in verifier.generate_corpus(verifier.DEFAULT_CORPUS):
        if inst.kind != "module":
            continue
        s = build_space(build_module(inst.spec_text))
        c = connectivity_report(s)
        fast = (c.hyperconnected, c.ultraconnected, c.nested)
        assert fast == literal_connectivity(s), inst.spec_text
    # on the corpus the three flags agree, so random orders tell them apart
    rng = random.Random(23)
    for _ in range(2000):
        s = space_of_masks(random_order_masks(rng, rng.randint(0, 9)))
        c = connectivity_report(s)
        fast = (c.hyperconnected, c.ultraconnected, c.nested)
        assert fast == literal_connectivity(s), s.up
        seen[fast] += 1
    assert len(seen) == 5, seen
