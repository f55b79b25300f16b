"""Definitional finite-topology engine.

The topology of a quasi divisor space is generated by the basis sets U_a.
This module enumerates every open set as a union of basis sets (encoded as
bit vectors over point indices) and decides each axiom from that family
alone.  It never consults the poset fast paths, which makes it the
independent ground truth those fast paths are verified against.  The
unions are the up-sets of the specialization order (Stong 1966).  They are
found by closing {empty set} under o | U_a one basis set at a time, at a
cost of at most |opens|·n set insertions; the family only grows, so the
one cap counts open sets, not points.

**The transposed family.**  With K = |opens|, ``holds[i]`` is a K-bit int
whose bit k is set when ``opens[k]`` contains point i.  It is built once,
and every later question about the family is a few AND operations on
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

**Union tables.**  The open hull of a set (the union of the m_i over it,
its smallest open superset) and the closure of a set (the union of the
cl{i} over it) are read from one table per 8 points, built on first use:
entry b of table c is the union over the bits k of b of part 8c + k.  A
read costs one lookup per 8 points.

**The axioms.**  Each check quantifies over the points, the m_i, the
closed sets or the subsets, never over pairs of open sets:

* the family is a topology iff it holds the empty set and o | m_i lies in
  it for every member o and point i; the verdict is kept on the topology;
* T3: for every closed c and x outside it there are disjoint open sets
  around c and x.  It fails iff cl(hull(c)) is not inside c for some
  closed c.  Proof: every open set around c contains hull(c), and every
  open set around x contains m_x, so some pair of them is disjoint iff
  hull(c) and m_x are.  m_x meets hull(c) iff x lies in cl(hull(c)), so a
  point x outside c has no disjoint pair iff cl(hull(c)) holds a point
  outside c;
* T4: a closed set misses c1 iff it misses hull(c1) (a point y of hull(c1)
  has some i of c1 in cl{y}, which every closed set holding y contains),
  so the largest closed set apart from c1 binds every pair through c1;
* T5: every pair of nonempty separated sets has disjoint open supersets.
  For a nonempty subset a, the largest b separated from it is
  full & ~(cl(a) | hull(a)).  Proof: b is separated from a iff b misses
  cl(a) and cl(b) misses a.  cl(b) is the union of cl{x} over x in b, and
  cl{x} meets a iff x lies in m_i for some i of a, i.e. iff x lies in
  hull(a).  That b is itself separated from a, and every other one lies
  inside it, so by monotonicity of hulls it binds every pair through a;
* a set is dense iff it meets every m_i, so the intersection of the whole
  dense family is the binding Baire case;
* every nonempty open (closed) set contains some m_i (some point
  closure), so hyper- and ultraconnectedness are decided on pairs of
  those.

**Cost model.**  n points and K open sets.  Enumeration and the topology
check: at most n·K set operations.  The transposed family: one pass over
the members, then n² operations on K-bit ints for the m_i and the point
closures.  A closure or interior: n operations on K-bit ints.  A union
read: ceil(n/8) lookups.  T3 and T4: two union reads per closed set.
T5: three union reads per subset, up to ``T5_CAP`` points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .rings import SizeCapExceeded, _bits, _flags
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
    that meet every ``min_opens[i]``.  ``topology_ok`` is the verdict of
    ``_is_topology`` once it has run."""

    def __init__(self, n: int, opens: tuple, full: int):
        self.n = n
        self.opens = opens
        self.full = full
        self._open_set = frozenset(opens)
        self._closed = tuple(full & ~o for o in opens)
        # row r of the text is opens[-1 - r] written in n binary digits, so
        # column n - 1 - i, read down the rows, is bit i of every member (an
        # empty family has no rows)
        top = 1 << n
        rows = "".join([bin(o | top)[3:] for o in reversed(opens)])
        self.holds = holds = tuple(
            int(rows[n - 1 - i :: n] or "0", 2) for i in range(n)
        )
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
        self.topology_ok = None

    def is_open(self, mask: int) -> bool:
        return mask in self._open_set

    def closed_sets(self):
        return self._closed

    @cached_property
    def hull_tables(self):
        """Union tables of the m_i: ``_union`` of a mask is its open hull."""
        return _union_tables(self.min_opens)

    @cached_property
    def closure_tables(self):
        """Union tables of the point closures: ``_union`` of a mask is its
        closure."""
        return _union_tables(self.point_closures)


def _union_tables(parts):
    """One table per 8 points: entry b of table c is the union of
    parts[8c + k] over the bits k of b."""
    tables = []
    for start in range(0, len(parts), 8):
        table = [0]
        for part in parts[start : start + 8]:
            table += [t | part for t in table]
        tables.append(table)
    return tables


def _union(tables, mask: int) -> int:
    """The union of the parts over the points of the mask, one lookup per
    table."""
    out = 0
    for table in tables:
        out |= table[mask & 0xFF]
        mask >>= 8
    return out


@dataclass(frozen=True)
class StructureChecks:
    minimal_neighborhoods_ok: bool
    closure_union_ok: bool
    open_dense_contains_maximal_ok: bool


def _is_topology(topo: FiniteTopology) -> bool:
    """Closure of the family under pairwise union and intersection.

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
    m_i.  The verdict is kept on the topology and read back on later calls.
    """
    if topo.topology_ok is None:
        opens, open_set = topo.opens, topo._open_set
        topo.topology_ok = 0 in open_set and all(
            open_set.issuperset([o | m for o in compress(opens, _flags(lack))])
            for m, lack in zip(topo.min_opens, topo.lacks)
        )
    return topo.topology_ok


def enumerate_open_sets(space: QuasiDivisorSpace) -> FiniteTopology:
    """All unions of basis sets: the closure of {empty set} under o | U_a,
    one basis set at a time, which stops with ``SizeCapExceeded`` past
    ``OPEN_SET_CAP`` open sets.

    The family must contain the empty and full sets and be closed under
    pairwise union and intersection.  By the minimal-open lemma this is
    checked exactly on the members against the minimal open sets m_i, at a
    cost of |opens|·n instead of |opens|^2.
    """
    family = {0}
    for u in space.up:
        family |= {o | u for o in family}
        if len(family) > OPEN_SET_CAP:
            raise SizeCapExceeded(
                f"open-set enumeration is capped at {OPEN_SET_CAP} open sets"
            )
    topo = FiniteTopology(n=space.n, opens=tuple(sorted(family)), full=space.full)
    if not _is_topology(topo):
        raise AssertionError("the generated family is not a topology")
    return topo


def oracle_closure(topo: FiniteTopology, mask: int) -> int:
    """Intersection of every closed superset: the points held by no member
    disjoint from the set."""
    missing = topo.members
    lacks = topo.lacks
    for i in _bits(mask):
        missing &= lacks[i]
    out, bit = 0, 1
    for h in topo.holds:
        if not h & missing:
            out |= bit
        bit <<= 1
    return out


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
    min_opens = topo.min_opens
    for i in range(topo.n):
        for j in range(i + 1, topo.n):
            if min_opens[i] & min_opens[j]:
                return False
    return True


def _axiom_t3(topo):
    # T3 fails iff m_x meets hull(c) for some closed c and x outside it,
    # i.e. iff cl(hull(c)) leaves c (module docstring)
    hulls, closures = topo.hull_tables, topo.closure_tables
    return all(
        not (_union(closures, _union(hulls, c)) & ~c) for c in topo.closed_sets()
    )


def _axiom_t4(topo):
    # a closed set misses c1 iff it misses the open hull of c1, so the
    # largest closed set disjoint from c1 binds every pair through c1
    hulls, full = topo.hull_tables, topo.full
    for c1 in topo.closed_sets():
        if not c1:
            continue
        hull1 = _union(hulls, c1)
        c2 = full & ~hull1
        if c2 and hull1 & _union(hulls, c2):
            return False
    return True


def _axiom_t5(topo):
    # every pair of nonempty separated sets has disjoint open supersets; the
    # largest b separated from a is the complement of cl(a) | hull(a), and
    # it binds every pair through a (module docstring)
    if topo.n > T5_CAP:
        raise SizeCapExceeded(f"the T5 sweep is capped at {T5_CAP} points")
    hulls, closures, full = topo.hull_tables, topo.closure_tables, topo.full
    for a in range(1, full + 1):
        hull_a = _union(hulls, a)
        b = full & ~(_union(closures, a) | hull_a)
        if b and hull_a & _union(hulls, b):
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
    cl1 = topo.point_closures
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

    closures = topo.closure_tables
    union_ok = all(
        oracle_closure(topo, mask) == _union(closures, mask)
        for mask in subset_sweep(topo.n)
    )

    target = maximal_classes(space)
    dense_ok = all(not (target & ~o) for o in topo.dense)

    return StructureChecks(
        minimal_neighborhoods_ok=minimal_ok,
        closure_union_ok=union_ok,
        open_dense_contains_maximal_ok=dense_ok,
    )
