"""Definitional finite-topology engine.

The topology of a quasi divisor space is generated by the basis sets U_a.
This module enumerates every open set as a union of basis sets (encoded as
bit vectors over point indices) and decides each axiom from that family
alone.  It never consults the poset fast paths, which makes it the
independent ground truth those fast paths are verified against.  The
unions are the up-sets of the specialization order (Stong 1966).  They are
found by closing {empty set} under o | U_a one basis set at a time, at a
cost of at most |opens|·n set insertions; the family only grows, so the
one cap counts open sets, not points.  The family is not judged there:
whether it is a topology is the ``alexandrov`` axiom, which R1 reads, so
basis sets from faulty images fail a rule instead of stopping the run.

**The transposed family.**  With K = |opens|, ``holds[i]`` is a K-bit int
whose bit k is set when ``opens[k]`` contains point i.  It is built once,
one byte plane of the packed members per point (``_transpose``), and
every later question about the family is a few AND operations on
these n ints instead of a pass over the K members:

* the members disjoint from a set S are the AND of ``~holds[i]`` over the
  points i of S, and the closure of S (the intersection of its closed
  supersets, the complements of those members) is the set of points held
  by none of them: n operations per call instead of K;
* the interior of S (the union of the members inside S) is read the same
  way from the points outside S;
* m_i, the intersection of the members that contain i, is the set of the
  j with ``holds[i] & ~holds[j] == 0``, and the point closure cl{i} the
  set of the j with ``holds[j] & ~holds[i] == 0``;
* a member is dense iff it meets every m_i, i.e. holds some point of each.

The checks rest on the minimal-open lemma for finite (Alexandrov) spaces:
m_i is the smallest open set around i, and every open set is the union of
the m_i of its points.  Also, i lies in cl{x} iff x lies in m_i, and x
lies in cl(A) iff m_x meets A.  The closure of a finite union is the union
of the closures.

**The axioms.**  Each check quantifies over the points, the pairs of
points or the members, never over the closed sets or over pairs of open
sets:

* the family is a topology iff it holds the empty set and o | m_i lies in
  it for every member o and point i (``_is_topology``);
* T3: for every closed c and x outside it there are disjoint open sets
  around c and x.  It fails iff some x, y have meeting m_x and m_y but y
  is not in m_x.  If so, the closed set cl{y} does not hold x (x lies in
  cl{y} iff y lies in m_x), and every pair of open sets around cl{y} and
  x contains m_y and m_x, which meet.  Conversely, if T3 fails for c and
  x, some y in c has m_y meeting m_x, and cl{y} lies inside c, so x is
  not in cl{y}.  So a meeting pair x, y passes only if each lies in the
  other's m;
* T4: disjoint closed F and G have disjoint open supersets iff hull(F)
  and hull(G), the unions of the m_i over their points, are disjoint.  If
  m_x meets m_y for x in F and y in G, the disjoint closed cl{x} and
  cl{y} fail too.  So T4 fails iff some x, y with disjoint point closures
  have meeting m_x and m_y;
* T5: every pair of nonempty separated sets has disjoint open supersets.
  If separated a and b have meeting hulls, through x in a and y in b,
  then {x} and {y} are separated (x lies outside cl(b), which holds
  cl{y}, and y outside cl(a), which holds cl{x}), i.e. incomparable.  So
  T5 fails iff some incomparable x, y have meeting m_x and m_y;
* a set is dense iff it meets every m_i, so the intersection of the whole
  dense family is the binding Baire case;
* every nonempty open (closed) set contains some m_i (some point
  closure), so hyper- and ultraconnectedness are decided on pairs of
  those.

**Cost model.**  n points and K open sets.  Enumeration and the topology
check: at most n·K set operations.  The transposed family: one pass over
the members, then n² operations on K-bit ints for the m_i and the point
closures.  A closure or interior: n operations on K-bit ints.  T2 to T5
(T5 up to ``T5_CAP`` points) and hyper- and ultraconnectedness: one test
per pair of points, all six in one scan.  The subset sweeps of R7 and R8
read one table each of closures and interiors, cached on the topology.
Up to ``EXHAUSTIVE_SUBSET_CAP`` points they hold all 2^n masks, at most
256.  The AND of ``lacks[i]`` over a mask's points is one more AND on the
AND of the mask without its top point, so ``_prefix_ands`` costs one AND
per mask, and ``closure_table`` n operations per distinct AND, i.e. per
closed set.  The members inside a set are the members disjoint from its
complement, so ``interior_table``, built only when asked for, is the
closure table read backwards, each entry complemented.  Past 8 points the
tables hold one ``oracle_closure`` or ``oracle_interior`` per sampled
mask.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress

from .rings import SizeCapExceeded, _bits, _flag_mask, _flags
from .topology import QuasiDivisorSpace, maximal_classes

OPEN_SET_CAP = 1 << 14
T5_CAP = 12


class FiniteTopology:
    """An explicit point count plus the full sorted family of open sets,
    each encoded as a bit vector over point indices.

    ``holds[i]`` has bit k set when ``opens[k]`` contains point i, and
    ``lacks[i]`` is its complement within ``members``, the mask of every
    member index.
    ``min_opens[i]`` is the intersection of the members containing point
    i, ``point_closures[i]`` the closure of {i}, and ``dense`` the members
    that meet every ``min_opens[i]``.  ``pair_verdicts`` holds the axioms
    decided on pairs of points, from the m_i and the point closures alone,
    and ``closure_table`` and ``interior_table`` the closures and interiors
    of the masks of ``subset_sweep(n)``; all three are built on first use.
    The family need not be a topology: ``_is_topology`` decides that, as
    the ``alexandrov`` axiom."""

    def __init__(self, n: int, opens: tuple, full: int):
        self.n = n
        self.opens = opens
        self.full = full
        self._open_set = frozenset(opens)
        self.holds = holds = _transpose(n, opens)
        self.members = members = (1 << len(opens)) - 1
        self.lacks = lacks = tuple(members ^ h for h in holds)
        points = range(n)
        # j is in m_i iff every member holding i holds j, and in cl{i} iff
        # every member holding j holds i
        self.min_opens = min_opens = tuple(
            sum(1 << j for j in points if not h & lacks[j]) for h in holds
        )
        self.point_closures = tuple(
            sum(1 << j for j in points if not holds[j] & lack) for lack in lacks
        )
        dense = members
        for m in min_opens:
            meets = 0
            for j in _bits(m):
                meets |= holds[j]
            dense &= meets
        self.dense = tuple(compress(opens, _flags(dense)))

    def is_open(self, mask: int) -> bool:
        return mask in self._open_set

    @cached_property
    def pair_verdicts(self):
        """T2 to T5, hyper- and ultraconnectedness from one scan over the
        pairs of points: each fails on some pair (module docstring)."""
        m, cl = self.min_opens, self.point_closures
        t2 = t3 = t4 = t5 = hyper = ultra = True
        for i, j in combinations(range(self.n), 2):
            apart = not cl[i] & cl[j]
            if m[i] & m[j]:
                t2 = False
                # each must lie in the other's m for T3, one for T5
                t3 = t3 and bool(m[i] >> j & m[j] >> i & 1)
                t4 = t4 and not apart
                t5 = t5 and bool((m[i] >> j | m[j] >> i) & 1)
            else:
                hyper = False
            ultra = ultra and not apart
            if not (t2 or t3 or t4 or t5 or hyper or ultra):
                break
        return dict(
            T2=t2, T3=t3, T4=t4, T5=t5, hyperconnected=hyper, ultraconnected=ultra
        )

    @cached_property
    def closure_table(self):
        """``oracle_closure`` of each mask of ``subset_sweep(n)``, in its
        order.  Up to 8 points that is mask k at entry k: the points held
        by no member disjoint from k, whose AND over ``lacks`` is read off
        ``_prefix_ands``, once per distinct AND.  Past 8 points, one
        ``oracle_closure`` per sampled mask."""
        if self.n > EXHAUSTIVE_SUBSET_CAP:
            return tuple(oracle_closure(self, mask) for mask in subset_sweep(self.n))
        ands = _prefix_ands(self.members, self.lacks)
        read = {missing: _held_by_none(self.holds, missing) for missing in set(ands)}
        return tuple(map(read.__getitem__, ands))

    @cached_property
    def interior_table(self):
        """``oracle_interior`` of each mask of ``subset_sweep(n)``, in its
        order.  Up to 8 points, the members inside mask k are the members
        disjoint from its complement full ^ k, mask 2^n - 1 - k, and the
        points some of them hold are the points outside that mask's
        closure.  Past 8 points, one ``oracle_interior`` per sampled
        mask."""
        if self.n > EXHAUSTIVE_SUBSET_CAP:
            return tuple(oracle_interior(self, mask) for mask in subset_sweep(self.n))
        full = self.full
        return tuple(full ^ closure for closure in reversed(self.closure_table))


# entry b of table k is bit k of the byte b, as a flag byte 0 or 1
_BIT_FLAGS = tuple(bytes((b >> k) & 1 for b in range(256)) for k in range(8))


def _transpose(n: int, opens) -> tuple:
    """holds[i] for each of the n points: the mask over member indices of
    the members holding point i.  The members are packed w bytes each, low
    byte first (two bytes up to 16 points), so byte i // 8 of every member,
    read with step w, is one plane, and bit i % 8 of each of its bytes is
    bit i of one member: one ``translate`` to flags per point, read as a
    mask.  An empty family holds nothing."""
    if not opens:
        return (0,) * n
    if n <= 16:
        w, packed = 2, array("H", opens)
        if sys.byteorder == "big":
            packed.byteswap()
        raw = packed.tobytes()
    else:
        w = (n + 7) // 8
        raw = b"".join([o.to_bytes(w, "little") for o in opens])
    return tuple(
        _flag_mask(raw[i // 8 :: w].translate(_BIT_FLAGS[i % 8])) for i in range(n)
    )


@dataclass(frozen=True)
class StructureChecks:
    minimal_neighborhoods_ok: bool
    closure_union_ok: bool
    open_dense_contains_maximal_ok: bool


def _is_topology(topo: FiniteTopology) -> bool:
    """Closure of the family under pairwise union and intersection: the
    ``alexandrov`` axiom.

    Exact with at most |opens|·n membership tests.  Suppose the empty set
    is a member and o | m_i is a member for every member o and point i.
    Then every union of the m_i is a member, starting from the empty set.
    Each member o contains m_i for every point i of o (m_i is the
    intersection of the members holding i), so o is the union of the m_i
    over its points.  The family is thus the set of unions of the m_i: it
    holds the full set and is closed under union, and under intersection
    because m_i & m_j is the union of the m_k over its points k.  A member
    o that holds i contains m_i, so o | m_i = o is a member, and only the
    members that lack i, the bits of ``lacks[i]``, are tested against
    m_i.
    """
    opens, open_set = topo.opens, topo._open_set
    return 0 in open_set and all(
        open_set.issuperset([o | m for o in compress(opens, _flags(lack))])
        for m, lack in zip(topo.min_opens, topo.lacks)
    )


def enumerate_open_sets(space: QuasiDivisorSpace) -> FiniteTopology:
    """All unions of basis sets: the closure of {empty set} under o | U_a,
    one basis set at a time, which stops with ``SizeCapExceeded`` past
    ``OPEN_SET_CAP`` open sets.  Whether the family is a topology is left
    to the ``alexandrov`` axiom."""
    family = {0}
    for u in space.up:
        family |= {o | u for o in family}
        if len(family) > OPEN_SET_CAP:
            raise SizeCapExceeded(
                f"open-set enumeration is capped at {OPEN_SET_CAP} open sets"
            )
    return FiniteTopology(n=space.n, opens=tuple(sorted(family)), full=space.full)


def _prefix_ands(first: int, lacks) -> list:
    """Entry k, for every mask k below 2^len(lacks): first AND ``lacks[i]``
    over the points i of k.  The masks whose top point is i are the masks
    below 2^i with i added, so their entries are the entries so far, each
    ANDed with ``lacks[i]``: one AND per entry."""
    table = [first]
    for lack in lacks:
        table += [entry & lack for entry in table]
    return table


def _held_by_none(holds, members: int) -> int:
    """The points held by no member of the given mask over member indices."""
    out, bit = 0, 1
    for h in holds:
        if not h & members:
            out |= bit
        bit <<= 1
    return out


def oracle_closure(topo: FiniteTopology, mask: int) -> int:
    """Intersection of every closed superset: the points held by no member
    disjoint from the set."""
    missing = topo.members
    lacks = topo.lacks
    for i in _bits(mask):
        missing &= lacks[i]
    return _held_by_none(topo.holds, missing)


def oracle_interior(topo: FiniteTopology, mask: int) -> int:
    """Union of every open subset: the points held by some member inside
    the set."""
    inside = topo.members
    lacks = topo.lacks
    for i in _bits(topo.full & ~mask):
        inside &= lacks[i]
    out, bit = 0, 1
    for h in topo.holds:
        if h & inside:
            out |= bit
        bit <<= 1
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
    return topo.pair_verdicts["T2"]


def _axiom_t3(topo):
    # fails iff two points with meeting m_x and m_y do not each lie in the
    # other's m
    return topo.pair_verdicts["T3"]


def _axiom_t4(topo):
    # fails iff two points with disjoint closures have meeting m_x and m_y
    return topo.pair_verdicts["T4"]


def _axiom_t5(topo):
    # fails iff two incomparable points have meeting m_x and m_y
    if topo.n > T5_CAP:
        raise SizeCapExceeded(f"the T5 check is capped at {T5_CAP} points")
    return topo.pair_verdicts["T5"]


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
    return topo.pair_verdicts["hyperconnected"]


def _axiom_ultraconnected(topo):
    # every nonempty closed set contains the closure of its points
    return topo.pair_verdicts["ultraconnected"]


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
    """Every subset mask for up to 8 points; above that, the n singletons,
    so that each point is swept alone, then a deterministic sample of 100
    masks from a fixed linear congruential stream."""
    if n <= EXHAUSTIVE_SUBSET_CAP:
        yield from range(1 << n)
        return
    yield from (1 << i for i in range(n))
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
    (every subset up to 8 points, the singletons and a fixed sample
    above), and every open dense set contains the maximal classes (every
    dense member).

    The closures are the topology's ``closure_table``.  Up to 8 points the
    unions of the point closures are built by prefix too: the union over a
    mask is the union over the mask without its top point, OR that point's
    closure.  Past 8 points each sampled mask's union is its own OR."""
    # m_i is a member of the family, so U_i is the minimal neighborhood of
    # i exactly when it equals m_i
    minimal_ok = all(m == u for m, u in zip(topo.min_opens, space.up))

    closures = topo.point_closures
    if topo.n <= EXHAUSTIVE_SUBSET_CAP:
        unions = [0]
        for closure in closures:
            unions += [union | closure for union in unions]
        union_ok = tuple(unions) == topo.closure_table
    else:
        union_ok = True
        for mask, closure in zip(subset_sweep(topo.n), topo.closure_table):
            union = 0
            for i in _bits(mask):
                union |= closures[i]
            if union != closure:
                union_ok = False
                break

    target = maximal_classes(space)
    dense_ok = all(not (target & ~o) for o in topo.dense)

    return StructureChecks(
        minimal_neighborhoods_ok=minimal_ok,
        closure_union_ok=union_ok,
        open_dense_contains_maximal_ok=dense_ok,
    )
