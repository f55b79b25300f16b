import random
from types import SimpleNamespace

import pytest

from qdivtop import oracle, topology, verifier
from qdivtop.modules import SizeCapExceeded, _bits, build_module, cyclic_sum
from qdivtop.oracle import (
    AXIOMS,
    FiniteTopology,
    enumerate_open_sets,
    oracle_axiom,
    oracle_closure,
    oracle_interior,
    oracle_structure_checks,
)
from qdivtop.scalars import INTEGERS
from qdivtop.topology import build_space, connectivity_report, separation_report


def space_of(spec):
    return build_space(build_module(spec))


def point(space, label):
    """The index of the point with the given label."""
    return space.labels.index(label)


def topo_of(spec):
    return enumerate_open_sets(space_of(spec))


def named_opens(spec):
    s = space_of(spec)
    t = enumerate_open_sets(s)
    return {frozenset(s.label_set(o)) for o in t.opens}


def test_enumerate_examples():
    assert named_opens("Z:8") == {
        frozenset(),
        frozenset({"[2]"}),
        frozenset({"[2]", "[4]"}),
    }
    assert named_opens("Z:6") == {
        frozenset(),
        frozenset({"[2]"}),
        frozenset({"[3]"}),
        frozenset({"[2]", "[3]"}),
    }
    empty = topo_of("Z:5")
    assert empty.opens == (0,)


def test_chain_open_count_identity():
    # an n-point chain has exactly n+1 open sets (including the empty set)
    for k in range(1, 7):
        s = build_space(cyclic_sum(INTEGERS, (2**k,)))
        assert s.n == k - 1
        t = enumerate_open_sets(s)
        assert len(t.opens) == s.n + 1


def test_enumeration_cap():
    # a 15-point antichain has 2^15 open sets
    s = space_of("ring:Trunc(2,4)")
    assert s.n == 15 and s.up == tuple(1 << i for i in range(15))
    with pytest.raises(SizeCapExceeded):
        enumerate_open_sets(s)
    # every space of at most 14 points fits, the 14-point antichain exactly
    antichain = SimpleNamespace(n=14, up=s.up[:14], full=(1 << 14) - 1)
    assert len(enumerate_open_sets(antichain).opens) == oracle.OPEN_SET_CAP
    # one open set past the cap: the 14-point antichain under one top point,
    # whose open sets are the empty set, the top alone, and the top with any
    # nonempty part of the antichain, 2^14 + 1 in all
    top = 1 << 14
    crowned = SimpleNamespace(
        n=15, up=tuple(u | top for u in antichain.up) + (top,), full=(1 << 15) - 1
    )
    with pytest.raises(SizeCapExceeded):
        enumerate_open_sets(crowned)
    # the cap counts open sets, not points
    for spec, points, opens in [("Z:2310", 30, 7579), ("Z:16,27", 18, 124)]:
        s = space_of(spec)
        assert (s.n, len(enumerate_open_sets(s).opens)) == (points, opens)


def test_axiom_examples():
    t8 = topo_of("Z:8")
    assert not oracle_axiom(t8, "T1")
    assert oracle_axiom(t8, "T5")
    assert oracle_axiom(topo_of("Z:6"), "T5")
    assert oracle_axiom(t8, "T0")
    assert oracle_axiom(t8, "hyperconnected")
    assert not oracle_axiom(topo_of("Z:6"), "connected")
    assert oracle_axiom(topo_of("ring:Trunc(2,3)"), "discrete")
    with pytest.raises(ValueError):
        oracle_axiom(t8, "T9")


def test_t5_cap():
    s = space_of("ring:Zn(60)")
    assert s.n == 10
    assert oracle_axiom(enumerate_open_sets(s), "T5") in (True, False)
    big = build_space(cyclic_sum(INTEGERS, (2 * 2 * 2 * 3 * 3 * 3,)))
    # 4x4 exponent grid minus endpoints: 14 points
    assert big.n == 14
    t = enumerate_open_sets(big)
    with pytest.raises(SizeCapExceeded):
        oracle_axiom(t, "T5")


def test_oracle_closure_examples():
    s8 = space_of("Z:8")
    t8 = enumerate_open_sets(s8)
    m2 = 1 << point(s8, "[2]")
    assert s8.label_set(oracle_closure(t8, m2)) == ["[2]", "[4]"]
    s6 = space_of("Z:6")
    t6 = enumerate_open_sets(s6)
    m2 = 1 << point(s6, "[2]")
    assert s6.label_set(oracle_closure(t6, m2)) == ["[2]"]
    assert oracle_closure(t8, t8.full) == t8.full


def test_closure_and_interior_match_formulas_exhaustively():
    for spec in ["Z:8", "Z:6", "Z:12", "Z:2,4", "Z:8,9", "F2[x]:x^2+x,x^3"]:
        s = space_of(spec)
        if s.n > 8:
            continue
        t = enumerate_open_sets(s)
        for mask in range(1 << s.n):
            assert topology.closure(s, mask) == oracle_closure(t, mask), spec
            assert topology.interior(s, mask) == oracle_interior(t, mask), spec


def test_structure_checks_examples():
    for spec in ["Z:8", "Z:12", "Z:5"]:
        s = space_of(spec)
        t = enumerate_open_sets(s)
        checks = oracle_structure_checks(t, s)
        assert checks.minimal_neighborhoods_ok, spec
        assert checks.closure_union_ok, spec
        assert checks.open_dense_contains_maximal_ok, spec


def test_fast_predicates_match_oracle_on_the_corpus():
    # every default-corpus space (all of them fit the open-set cap), and
    # Z:12, which the corpus leaves out; no rule reads the fast hyper- and
    # ultraconnectedness, so this is their one check against the definitions
    specs = [
        inst.spec_text
        for inst in verifier.generate_corpus(verifier.DEFAULT_CORPUS)
        if inst.kind == "module"
    ]
    for spec in specs + ["Z:12"]:
        s = space_of(spec)
        t = enumerate_open_sets(s)
        sep = separation_report(s)
        conn = connectivity_report(s)
        fast = {
            "T0": sep.t0,
            "T1": sep.t1,
            "T2": sep.t2,
            "T3": sep.t3,
            "discrete": sep.discrete,
            "connected": conn.connected,
            "hyperconnected": conn.hyperconnected,
            "ultraconnected": conn.ultraconnected,
        }
        for name, value in fast.items():
            assert oracle_axiom(t, name) == value, (spec, name)


def test_alexandrov_noetherian_baire_always_hold_here():
    for spec in ["Z:8", "Z:6", "Z:12", "ring:Zn(60)", "Z:5", "ring:Trunc(2,3)"]:
        t = topo_of(spec)
        assert oracle_axiom(t, "alexandrov"), spec
        assert oracle_axiom(t, "noetherian"), spec
        assert oracle_axiom(t, "baire"), spec


def test_ultraconnected_implies_t4_on_samples():
    for spec in ["Z:8", "Z:9", "Z:16", "F2[x]:x^3"]:
        t = topo_of(spec)
        if oracle_axiom(t, "ultraconnected"):
            assert oracle_axiom(t, "T4"), spec


def test_empty_space_axioms():
    t = topo_of("Z:7")
    for name in AXIOMS:
        assert oracle_axiom(t, name) is True


def test_all_axioms_evaluate():
    t = topo_of("Z:12")
    for name in AXIOMS:
        assert oracle_axiom(t, name) in (True, False)


# Literal definitions: the sweeps over pairs of open sets, all subset pairs
# and all dense subfamilies that the library decides through the minimal
# open sets.  They are kept here as the definitional ground truth.

LITERAL_BAIRE_SUBFAMILY_CAP = 16


def literal_is_topology(opens, full):
    open_set = set(opens)
    if 0 not in open_set or full not in open_set:
        return False
    return all(a | b in open_set and a & b in open_set for a in opens for b in opens)


def literal_opens(space):
    """The up-closed subsets of the specialization order: every S with U_i
    inside S for each point i of S.  The points are decided from the last
    to the first, and a point is kept only when its basis set misses the
    points already left out, since no later choice can put them back; each
    complete choice is then checked against the definition."""
    up, out = space.up, []

    def extend(i, kept, dropped):
        if i < 0:
            if all(not (up[j] & ~kept) for j in _bits(kept)):
                out.append(kept)
            return
        extend(i - 1, kept, dropped | 1 << i)
        if not up[i] & dropped:
            extend(i - 1, kept | 1 << i, dropped)

    extend(space.n - 1, 0, 0)
    return tuple(sorted(out))


def literal_closure(topo, mask):
    """The intersection of every closed superset, by a scan of the closed
    sets."""
    out = topo.full
    for c in topo.closed_sets():
        if not (mask & ~c):
            out &= c
    return out


def literal_interior(topo, mask):
    """The union of every open subset, by a scan of the open sets."""
    out = 0
    for o in topo.opens:
        if not (o & ~mask):
            out |= o
    return out


def literal_min_opens(topo):
    covers = []
    for i in range(topo.n):
        acc = topo.full
        for o in topo.opens:
            if o & (1 << i):
                acc &= o
        covers.append(acc)
    return covers


def union_over(mask, parts):
    """The union of parts[i] over the points i of mask."""
    out = 0
    for i in _bits(mask):
        out |= parts[i]
    return out


def literal_t0(topo):
    # every pair of points is told apart by an open set holding exactly one
    for i in range(topo.n):
        for j in range(i + 1, topo.n):
            if not any(
                bool(o & (1 << i)) != bool(o & (1 << j)) for o in topo.opens
            ):
                return False
    return True


def literal_t1(topo):
    # every ordered pair of points: an open set holding the first only
    for i in range(topo.n):
        for j in range(topo.n):
            if i == j:
                continue
            if not any(o & (1 << i) and not o & (1 << j) for o in topo.opens):
                return False
    return True


def literal_t2(topo):
    m = literal_min_opens(topo)
    return all(
        not (m[i] & m[j]) for i in range(topo.n) for j in range(i + 1, topo.n)
    )


def literal_t3(topo):
    m = literal_min_opens(topo)
    for c in topo.closed_sets():
        hull_c = union_over(c, m)
        for x in _bits(topo.full & ~c):
            if hull_c & m[x]:
                return False
    return True


def literal_t4(topo):
    m = literal_min_opens(topo)
    closed = topo.closed_sets()
    hulls = {c: union_over(c, m) for c in closed}
    for c1 in closed:
        for c2 in closed:
            if c1 & c2 or not c1 or not c2:
                continue
            if hulls[c1] & hulls[c2]:
                return False
    return True


def subset_unions(n, parts):
    """union_over(mask, parts) tabulated for every mask."""
    out = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        out[mask] = out[mask ^ low] | parts[low.bit_length() - 1]
    return out


def literal_t5(topo):
    # every pair of disjoint nonempty subsets, with closures and open hulls
    # tabulated over all subsets
    if topo.n > oracle.T5_CAP:
        raise SizeCapExceeded(f"the T5 sweep is capped at {oracle.T5_CAP} points")
    cl = subset_unions(topo.n, [literal_closure(topo, 1 << i) for i in range(topo.n)])
    hull = subset_unions(topo.n, literal_min_opens(topo))
    full = topo.full
    for a in range(1, full + 1):
        cl_a = cl[a]
        hull_a = hull[a]
        rest = full & ~a
        b = rest
        while b:
            if not (cl_a & b) and not (a & cl[b]) and hull_a & hull[b]:
                return False
            b = (b - 1) & rest
    return True


def literal_hyperconnected(topo):
    nonempty = [o for o in topo.opens if o]
    return all(o1 & o2 for o1 in nonempty for o2 in nonempty)


def literal_ultraconnected(topo):
    closed = [c for c in topo.closed_sets() if c]
    return all(c1 & c2 for c1 in closed for c2 in closed)


def literal_alexandrov(topo):
    open_set = set(topo.opens)
    return all(a & b in open_set for a in topo.opens for b in topo.opens)


def literal_dense_opens(topo):
    return [o for o in topo.opens if literal_closure(topo, o) == topo.full]


def literal_baire(topo):
    """Every intersection of a nonempty dense subfamily, exhaustively up to
    the cap; above it only the full-family intersection, the binding case
    by monotonicity."""
    dense = literal_dense_opens(topo)
    if len(dense) > LITERAL_BAIRE_SUBFAMILY_CAP:
        acc = topo.full
        for o in dense:
            acc &= o
        return literal_closure(topo, acc) == topo.full
    meets = [topo.full] * (1 << len(dense))
    for pick in range(1, 1 << len(dense)):
        low = pick & -pick
        meets[pick] = meets[pick ^ low] & dense[low.bit_length() - 1]
    return all(literal_closure(topo, acc) == topo.full for acc in set(meets[1:]))


def literal_structure_checks(topo, space):
    minimal_ok = True
    for i in range(space.n):
        u = space.up[i]
        if not topo.is_open(u) or any(
            o & (1 << i) and not (o & ~u) and o != u for o in topo.opens
        ):
            minimal_ok = False
            break
    cl1 = [literal_closure(topo, 1 << i) for i in range(topo.n)]
    union_ok = all(
        literal_closure(topo, mask) == union_over(mask, cl1)
        for mask in oracle.subset_sweep(topo.n)
    )
    target = topology.maximal_classes(space)
    dense_ok = all(not (target & ~o) for o in literal_dense_opens(topo))
    return oracle.StructureChecks(minimal_ok, union_ok, dense_ok)


LITERAL_AXIOMS = {
    "T0": literal_t0,
    "T1": literal_t1,
    "T2": literal_t2,
    "T3": literal_t3,
    "T4": literal_t4,
    "T5": literal_t5,
    "hyperconnected": literal_hyperconnected,
    "ultraconnected": literal_ultraconnected,
    "alexandrov": literal_alexandrov,
    "baire": literal_baire,
}


def random_preorder_space(rng, n):
    """A fake space over a random preorder on n points: a random relation,
    closed reflexively and transitively, so cycles make non-T0 spaces."""
    p = rng.choice((0.05, 0.15, 0.3, 0.5))
    up = [
        (1 << i) | sum(1 << j for j in range(n) if j != i and rng.random() < p)
        for i in range(n)
    ]
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return SimpleNamespace(n=n, up=tuple(up), full=(1 << n) - 1)


def assert_matches_literal(space, topo, where):
    assert topo.opens == literal_opens(space), where
    assert list(topo.dense) == literal_dense_opens(topo), where
    for name, literal in LITERAL_AXIOMS.items():
        if name == "T5" and topo.n > oracle.T5_CAP:
            with pytest.raises(SizeCapExceeded):
                oracle_axiom(topo, name)
            continue
        assert oracle_axiom(topo, name) == literal(topo), (where, name)


def test_library_matches_literal_definitions():
    # discrete, connected and noetherian are decided from their definitions
    # in the library itself and need no second copy
    spaces = 0
    for inst in verifier.generate_corpus():
        if inst.kind != "module":
            continue
        s = space_of(inst.spec_text)
        t = enumerate_open_sets(s)
        assert_matches_literal(s, t, inst.spec_text)
        assert oracle_structure_checks(t, s) == literal_structure_checks(t, s)
        spaces += 1
    assert spaces == 277
    rng = random.Random(20251018)
    non_t0 = t1 = 0
    for k in range(1000):
        s = random_preorder_space(rng, rng.randint(0, 10))
        t = enumerate_open_sets(s)
        assert_matches_literal(s, t, (k, s.up))
        non_t0 += len(set(s.up)) < s.n
        t1 += s.n > 1 and all(u == 1 << i for i, u in enumerate(s.up))
    assert non_t0 > 100 and t1 > 100


def chain_like_space(rng, n):
    """A fake space over a random poset on n points with i < j whenever
    j - i reaches a gap of 2 to 5, plus random shorter relations.  Every
    antichain lies within one gap, which keeps the open sets to at most a
    few hundred on 24 points, so the literal pairwise sweeps stay fast."""
    gap = rng.choice((2, 3, 4, 5))
    p = rng.choice((0.0, 0.2, 0.5))
    up = [0] * n
    for i in reversed(range(n)):
        up[i] = 1 << i
        for j in range(i + 1, n):
            if j - i >= gap or rng.random() < p:
                up[i] |= up[j]
    return SimpleNamespace(n=n, up=tuple(up), full=(1 << n) - 1)


def test_library_matches_literal_definitions_past_two_table_chunks():
    # 15 to 24 points read two or three 8-point union tables
    rng = random.Random(20261019)
    most_opens = 0
    for k in range(30):
        s = chain_like_space(rng, rng.randint(15, 24))
        t = enumerate_open_sets(s)
        assert_matches_literal(s, t, (k, s.up))
        assert oracle_structure_checks(t, s) == literal_structure_checks(t, s), k
        for _ in range(40):
            mask = rng.getrandbits(s.n)
            assert oracle_closure(t, mask) == literal_closure(t, mask), (k, mask)
            assert oracle_interior(t, mask) == literal_interior(t, mask), (k, mask)
        most_opens = max(most_opens, len(t.opens))
    assert 100 < most_opens <= 336


def test_topology_check_matches_literal_on_arbitrary_families():
    # every family on up to 3 points: 1 + 1 + 4 + 29 labeled topologies
    topologies = 0
    for n in range(4):
        full = (1 << n) - 1
        for pick in range(1, 1 << (1 << n)):
            opens = tuple(_bits(pick))
            t = FiniteTopology(n=n, opens=opens, full=full)
            verdict = literal_is_topology(opens, full)
            assert oracle._is_topology(t) == verdict, (n, opens)
            topologies += verdict
    assert topologies == 35
    rng = random.Random(5)
    verdicts = set()
    for _ in range(3000):
        n = rng.randint(0, 5)
        full = (1 << n) - 1
        if rng.random() < 0.5:
            family = set(literal_opens(random_preorder_space(rng, n)))
            for _ in range(rng.randint(0, 2)):
                family ^= {rng.randint(0, full)}
        else:
            family = {rng.randint(0, full) for _ in range(rng.randint(1, 12))}
        opens = tuple(sorted(family))
        t = FiniteTopology(n=n, opens=opens, full=full)
        verdict = literal_is_topology(opens, full)
        assert oracle._is_topology(t) == verdict, (n, opens)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_enumeration_rejects_a_family_that_is_not_a_topology():
    # U_0 & U_1 = {1} is not a union of basis sets
    fake = SimpleNamespace(n=3, up=(0b011, 0b110, 0b110), full=0b111)
    assert not oracle_axiom(enumerate_open_sets(fake), "alexandrov")
