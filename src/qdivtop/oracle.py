"""Definitional finite-topology engine.

The topology of a quasi divisor space is generated by the basis sets U_a.
This module enumerates every open set as a union of basis sets (encoded as
bit vectors over point indices) and decides each axiom from that family
alone.  It never consults the poset fast paths, which makes it the
independent ground truth those fast paths are verified against.  The
unions are the up-sets of the specialization order (Stong 1966), found by
closing {empty set} under o | U_a at a cost of |opens|·n, so the one cap
counts open sets, not points.

The checks rest on the minimal-open lemma for finite (Alexandrov) spaces:
the intersection m_i of the members that contain point i is the smallest
open set around i, and every open set is the union of the m_i of its
points.  The m_i are read off the family once, and each check quantifies
over them or over the points instead of over pairs of open sets:

* the family is a topology iff it holds the empty set and o | m_i lies
  in it for every member o and point i;
* a set is dense iff it meets every m_i, so the intersection of the whole
  dense family is the binding Baire case;
* T4 (T5) tests each closed set (each subset) against the largest closed
  (separated) set apart from it, because open hulls are monotone;
* every nonempty open (closed) set contains some m_i (some point
  closure), so hyper- and ultraconnectedness are decided on pairs of
  those.

Where an axiom asks for an existential open set around a given set, the
minimal open superset, the union of the m_i over the set, is the witness;
it succeeds whenever any open superset does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .modules import SizeCapExceeded, _bits
from .topology import QuasiDivisorSpace, maximal_classes

OPEN_SET_CAP = 1 << 14
T5_CAP = 12


class FiniteTopology:
    """An explicit point count plus the full sorted family of open sets,
    each encoded as a bit vector over point indices.  ``min_opens[i]`` is
    the intersection of the members containing point i, and ``dense`` the
    members that meet every one of them."""

    __slots__ = ("n", "opens", "full", "min_opens", "dense", "_open_set", "_closed")

    def __init__(self, n: int, opens: tuple, full: int):
        self.n = n
        self.opens = opens
        self.full = full
        self._open_set = frozenset(opens)
        self._closed = tuple(full & ~o for o in opens)
        min_opens = [full] * n
        for o in opens:
            for i in _bits(o):
                min_opens[i] &= o
        self.min_opens = tuple(min_opens)
        self.dense = tuple(o for o in opens if all(o & m for m in min_opens))

    def is_open(self, mask: int) -> bool:
        return mask in self._open_set

    def closed_sets(self):
        return self._closed


@dataclass(frozen=True)
class StructureChecks:
    minimal_neighborhoods_ok: bool
    closure_union_ok: bool
    open_dense_contains_maximal_ok: bool


def _is_topology(topo: FiniteTopology) -> bool:
    """Closure of the family under pairwise union and intersection.

    Exact with |opens|·n membership tests.  Suppose the empty set is a
    member and o | m_i is a member for every member o and point i.  Then
    every union of the m_i is a member, starting from the empty set.  Each
    member o contains m_i for every point i of o (m_i is the intersection
    of the members holding i), so o is the union of the m_i over its
    points.  The family is thus the set of unions of the m_i: it holds the
    full set and is closed under union, and under intersection because
    m_i & m_j is the union of the m_k over its points k.
    """
    is_open = topo.is_open
    return is_open(0) and all(
        is_open(o | m) for o in topo.opens for m in topo.min_opens
    )


def enumerate_open_sets(space: QuasiDivisorSpace) -> FiniteTopology:
    """All unions of basis sets: the closure of {empty set} under o | U_a,
    which stops with ``SizeCapExceeded`` past ``OPEN_SET_CAP`` open sets.

    The family must contain the empty and full sets and be closed under
    pairwise union and intersection.  By the minimal-open lemma this is
    checked exactly on the members against the minimal open sets m_i, at a
    cost of |opens|·n instead of |opens|^2.
    """
    seen = {0}
    stack = [0]
    while stack:
        o = stack.pop()
        for u in space.up:
            w = o | u
            if w not in seen:
                seen.add(w)
                if len(seen) > OPEN_SET_CAP:
                    raise SizeCapExceeded(
                        f"open-set enumeration is capped at {OPEN_SET_CAP} open sets"
                    )
                stack.append(w)
    topo = FiniteTopology(n=space.n, opens=tuple(sorted(seen)), full=space.full)
    if not _is_topology(topo):
        raise AssertionError("the generated family is not a topology")
    return topo


def oracle_closure(topo: FiniteTopology, mask: int) -> int:
    """Intersection of every closed superset."""
    out = topo.full
    for c in topo.closed_sets():
        if not (mask & ~c):
            out &= c
    return out


def oracle_interior(topo: FiniteTopology, mask: int) -> int:
    """Union of every open subset."""
    out = 0
    for o in topo.opens:
        if not (o & ~mask):
            out |= o
    return out


def _point_closures(topo: FiniteTopology):
    return [oracle_closure(topo, 1 << i) for i in range(topo.n)]


def _open_hull(topo: FiniteTopology, mask: int) -> int:
    """The smallest open superset of the given set (a member of the family)."""
    out = 0
    for i in _bits(mask):
        out |= topo.min_opens[i]
    return out


def _axiom_t0(topo):
    # every open set around i contains m_i, so some open set holds exactly
    # one of i, j iff m_i or m_j does, which fails iff each holds the other
    # point, i.e. iff m_i = m_j
    return len(set(topo.min_opens)) == topo.n


def _axiom_t1(topo):
    # some open set holds i but not j iff m_i does, so one does for every
    # j != i iff m_i = {i}
    return all(m == 1 << i for i, m in enumerate(topo.min_opens))


def _axiom_t2(topo):
    min_opens = topo.min_opens
    for i in range(topo.n):
        for j in range(i + 1, topo.n):
            if min_opens[i] & min_opens[j]:
                return False
    return True


def _axiom_t3(topo):
    # for every closed C and x outside it: disjoint opens around C and x
    for c in topo.closed_sets():
        hull_c = _open_hull(topo, c)
        for x in _bits(topo.full & ~c):
            if hull_c & topo.min_opens[x]:
                return False
    return True


def _axiom_t4(topo):
    # a closed set misses c1 iff it misses the open hull of c1, so the
    # largest closed set disjoint from c1 binds every pair through c1
    for c1 in topo.closed_sets():
        if not c1:
            continue
        hull1 = _open_hull(topo, c1)
        c2 = topo.full & ~hull1
        if c2 and hull1 & _open_hull(topo, c2):
            return False
    return True


def _axiom_t5(topo):
    # every pair of nonempty separated sets has disjoint open supersets;
    # b is separated from a iff each point x of b lies outside cl(a) and
    # has cl(x) disjoint from a, so for each nonempty subset a the largest
    # such b binds every pair through a
    if topo.n > T5_CAP:
        raise SizeCapExceeded(f"the T5 sweep is capped at {T5_CAP} points")
    cl1 = _point_closures(topo)
    full = topo.full
    for a in range(1, full + 1):
        cl_a = 0
        for i in _bits(a):
            cl_a |= cl1[i]
        b = 0
        for x in _bits(full & ~cl_a):
            if not (cl1[x] & a):
                b |= 1 << x
        if b and _open_hull(topo, a) & _open_hull(topo, b):
            return False
    return True


def _axiom_discrete(topo):
    return all(topo.is_open(1 << i) for i in range(topo.n))


def _axiom_connected(topo):
    for o1 in topo.opens:
        if not o1:
            continue
        o2 = topo.full & ~o1
        if o2 and topo.is_open(o2):
            return False
    return True


def _axiom_hyperconnected(topo):
    # every nonempty open set contains the minimal open set of its points
    m = topo.min_opens
    return all(m[i] & m[j] for i in range(topo.n) for j in range(i + 1, topo.n))


def _axiom_ultraconnected(topo):
    # every nonempty closed set contains the closure of its points
    cl1 = _point_closures(topo)
    return all(
        cl1[i] & cl1[j] for i in range(topo.n) for j in range(i + 1, topo.n)
    )


def _axiom_noetherian(topo):
    # every finite topology is noetherian; reported for API symmetry
    return True


def _axiom_baire(topo):
    """Every intersection of dense open sets is dense.

    Density is superset-monotone, so the intersection of the whole dense
    family is the binding case.
    """
    acc = topo.full
    for o in topo.dense:
        acc &= o
    return all(acc & m for m in topo.min_opens)


_AXIOMS = {
    "T0": _axiom_t0,
    "T1": _axiom_t1,
    "T2": _axiom_t2,
    "T3": _axiom_t3,
    "T4": _axiom_t4,
    "T5": _axiom_t5,
    "discrete": _axiom_discrete,
    "connected": _axiom_connected,
    "hyperconnected": _axiom_hyperconnected,
    "ultraconnected": _axiom_ultraconnected,
    # closure under pairwise intersection implies closure under arbitrary
    # intersections of the finite family
    "alexandrov": _is_topology,
    "noetherian": _axiom_noetherian,
    "baire": _axiom_baire,
}

AXIOMS = tuple(_AXIOMS)


def oracle_axiom(topo: FiniteTopology, axiom: str) -> bool:
    try:
        fn = _AXIOMS[axiom]
    except KeyError:
        raise ValueError(f"unknown axiom {axiom!r}") from None
    return fn(topo)


EXHAUSTIVE_SUBSET_CAP = 8
SUBSET_SAMPLE = 100


def subset_sweep(n: int):
    """Every subset mask for up to 8 points; above that, a deterministic
    sample of 100 masks from a fixed linear congruential stream."""
    if n <= EXHAUSTIVE_SUBSET_CAP:
        yield from range(1 << n)
        return
    full = (1 << n) - 1
    state = 0x9E3779B9 ^ n
    seen = set()
    while len(seen) < SUBSET_SAMPLE:
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        mask = state & full
        if mask not in seen:
            seen.add(mask)
            yield mask


def oracle_structure_checks(
    topo: FiniteTopology, space: QuasiDivisorSpace
) -> StructureChecks:
    """Checks of the three structural facts: basis sets are minimal
    neighborhoods (each U_i against m_i), closure distributes over unions
    (every subset up to 8 points, a fixed sample above), and every open
    dense set contains the maximal classes (every dense member)."""
    # m_i is a member of the family, so U_i is the minimal neighborhood of
    # i exactly when it equals m_i
    minimal_ok = all(m == u for m, u in zip(topo.min_opens, space.up))

    cl1 = _point_closures(topo)
    union_ok = True
    for mask in subset_sweep(topo.n):
        acc = 0
        for i in _bits(mask):
            acc |= cl1[i]
        if oracle_closure(topo, mask) != acc:
            union_ok = False
            break

    target = maximal_classes(space)
    dense_ok = all(not (target & ~o) for o in topo.dense)

    return StructureChecks(
        minimal_neighborhoods_ok=minimal_ok,
        closure_union_ok=union_ok,
        open_dense_contains_maximal_ok=dense_ok,
    )
