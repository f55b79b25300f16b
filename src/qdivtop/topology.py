"""The quasi divisor space of a finite module.

Points are the residue classes [a], one per distinct cyclic image aE,
ordered by inclusion of those images (``build_space`` reads it off the
points a*(1,...,1)); so the order is a partial order and the space is T0.
The basis set U_a is the up-set of [a] and is the smallest open set
containing it; the closure of a point is its down-set.  Every predicate here
is decided on that order without materializing open sets: hyper- and
ultraconnectedness count the maximal and minimal points, and nestedness the
distinct up-set sizes.  The definitional enumeration lives in the oracle
module and is cross-checked against these fast paths by the verifier.

Conventions for the empty space (second modules): every separation flag is
vacuously true and the connectivity record carries ``empty=True`` as the
vacuousness marker.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import modules
from .modules import FiniteModule, _bits, _mask


@dataclass(frozen=True)
class SeparationReport:
    t0: bool
    t1: bool
    t2: bool
    t3: bool
    discrete: bool
    metrizable: bool
    empty: bool


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    hyperconnected: bool
    ultraconnected: bool
    nested: bool
    noetherian: bool
    empty: bool


class QuasiDivisorSpace:
    """A finite poset of scalar classes with up-set/down-set masks: down[j]
    holds i when a_iE <= a_jE, and up is its transpose."""

    def __init__(self, classes, down, provenance):
        self.classes = tuple(classes)
        self.n = len(self.classes)
        self.labels = tuple(c.label for c in self.classes)
        self.provenance = provenance
        self.down = tuple(down)
        up = [0] * self.n
        for j, d in enumerate(self.down):
            for i in _bits(d):
                up[i] |= 1 << j
        self.up = tuple(up)
        self.full = (1 << self.n) - 1

    def label_set(self, mask: int) -> list:
        return [self.labels[i] for i in _bits(mask)]

    def __repr__(self):
        return f"<QuasiDivisorSpace {self.provenance} points={self.n}>"


def build_space(E: FiniteModule) -> QuasiDivisorSpace:
    """The space of E's scalar classes.  E is the product of its summand rings
    S and aE of their ideals aS, and aS <= bS exactly when a lies in bS; so
    aE <= bE exactly when the point a*(1,...,1) lies in bE, one per class."""
    classes = modules.scalar_classes(E)
    ring, join = E.residue_ring, E.layout.join

    def part(S, r):
        # the residue at index r in the summand S, by value unless S is the ring
        return r if S is ring else S.index(S.reduce(ring.elements[r]))

    points = [join([[part(S, c.members[0])] for S in E.summands])[0] for c in classes]
    position = {p: i for i, p in enumerate(points)}
    held = _mask(points, E.order)
    down = [
        _mask([position[p] for p in _bits(c.image.mask & held)], len(points))
        for c in classes
    ]
    return QuasiDivisorSpace(classes, down, provenance=E.spec_text)


def closure(space: QuasiDivisorSpace, mask: int) -> int:
    """Union of the principal down-sets of the given points."""
    out = 0
    for i in _bits(mask):
        out |= space.down[i]
    return out


def interior(space: QuasiDivisorSpace, mask: int) -> int:
    """Points of the set whose whole up-set stays inside it."""
    out = 0
    for i in _bits(mask):
        if not (space.up[i] & ~mask):
            out |= 1 << i
    return out


def maximal_classes(space: QuasiDivisorSpace) -> int:
    """Points whose image is maximal, i.e. whose up-set is a singleton.
    The up-set is the point's basis set, so these are the isolated points."""
    out = 0
    for i in range(space.n):
        if space.up[i] == 1 << i:
            out |= 1 << i
    return out


def minimal_classes(space: QuasiDivisorSpace) -> int:
    out = 0
    for i in range(space.n):
        if space.down[i] == 1 << i:
            out |= 1 << i
    return out


def separation_report(space: QuasiDivisorSpace) -> SeparationReport:
    """T0 always holds; T1, T2, discreteness and metrizability coincide and
    hold exactly when the order is an antichain; T3 asks every basis set to
    be closed, i.e. every up-set to be its own down-closure."""
    antichain = maximal_classes(space) == space.full
    t3 = all(closure(space, space.up[i]) == space.up[i] for i in range(space.n))
    return SeparationReport(
        t0=True,
        t1=antichain,
        t2=antichain,
        t3=t3,
        discrete=antichain,
        metrizable=antichain,
        empty=space.n == 0,
    )


def connectivity_report(space: QuasiDivisorSpace) -> ConnectivityReport:
    """Connectivity of the comparability graph; hyper/ultra ask every point
    pair for a common upper/lower bound; nested means the order is total.
    Finite spaces are always noetherian, reported for API symmetry."""
    n = space.n
    connected = True
    if n > 1:
        seen = 1
        frontier = [0]
        while frontier:
            i = frontier.pop()
            comp = space.up[i] | space.down[i]
            new = comp & ~seen
            seen |= new
            frontier.extend(_bits(new))
        connected = seen == space.full
    # every point lies below a maximal one, and two maximal points have no
    # common upper bound, so every pair has one iff there is at most one
    hyper = maximal_classes(space).bit_count() <= 1
    # the same argument, read downwards
    ultra = minimal_classes(space).bit_count() <= 1
    # a chain's up-sets have the sizes 1..n; conversely, n distinct sizes in
    # 1..n give a point above which all n lie, which no other up-set holds,
    # so the other n - 1 keep distinct sizes and form a chain by induction
    nested = len({u.bit_count() for u in space.up}) == n
    return ConnectivityReport(
        connected=connected,
        hyperconnected=hyper,
        ultraconnected=ultra,
        nested=nested,
        noetherian=True,
        empty=n == 0,
    )


def hasse_edges(space: QuasiDivisorSpace) -> list:
    """Covering relations as (lower, upper) index pairs, sorted: they are
    produced in that order."""
    edges = []
    for i in range(space.n):
        for j in _bits(space.up[i] & ~(1 << i)):
            between = space.up[i] & space.down[j]
            if between == (1 << i) | (1 << j):
                edges.append((i, j))
    return edges
