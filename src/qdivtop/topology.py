"""The quasi divisor space of a finite module.

Points are the residue classes [a] with a common cyclic image aE, ordered
by inclusion of those images.  The basis set U_a is the up-set of [a] and
is the smallest open set containing it; the closure of a point is its
down-set.  Every predicate here is decided on that order without
materializing open sets; the definitional enumeration lives in the oracle
module and is cross-checked against these fast paths by the verifier.

Conventions for the empty space (second modules): every separation flag is
vacuously true and the connectivity record carries ``empty=True`` as the
vacuousness marker.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

from . import modules
from .modules import FiniteModule, SizeCapExceeded, _bits

HOMEO_CAP = 10


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
    """A finite poset of scalar classes with up-set/down-set masks."""

    def __init__(self, classes, provenance):
        self.classes = tuple(classes)
        self.n = len(self.classes)
        self.labels = tuple(c.label for c in self.classes)
        self.provenance = provenance
        # up[i] holds j when a_iE <= a_jE, and down is its transpose.  Equal
        # images relate both ways; otherwise only a smaller image can lie
        # in a larger one, so each pair of points of unequal sizes is
        # compared once
        masks = [c.image.mask for c in self.classes]
        same = {}
        for i, m in enumerate(masks):
            same[m] = same.get(m, 0) | 1 << i
        up = [same[m] for m in masks]
        down = list(up)
        order = sorted(range(self.n), key=lambda i: masks[i].bit_count())
        sizes = [masks[i].bit_count() for i in order]
        for pos, i in enumerate(order):
            mi = masks[i]
            for j in order[bisect.bisect_right(sizes, sizes[pos], pos) :]:
                if not (mi & ~masks[j]):
                    up[i] |= 1 << j
                    down[j] |= 1 << i
        self.up = tuple(up)
        self.down = tuple(down)
        self.full = (1 << self.n) - 1

    def le(self, i: int, j: int) -> bool:
        """Specialization order: point i below point j when a_iE <= a_jE."""
        return bool((self.up[i] >> j) & 1)

    def label_set(self, mask: int) -> list:
        return [self.labels[i] for i in _bits(mask)]

    def __repr__(self):
        return f"<QuasiDivisorSpace {self.provenance} points={self.n}>"


def build_space(E: FiniteModule) -> QuasiDivisorSpace:
    return QuasiDivisorSpace(modules.scalar_classes(E), provenance=E.spec_text)


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
    hyper = all(
        space.up[i] & space.up[j]
        for i, j in itertools.combinations(range(n), 2)
    )
    ultra = all(
        space.down[i] & space.down[j]
        for i, j in itertools.combinations(range(n), 2)
    )
    nested = all(
        space.le(i, j) or space.le(j, i)
        for i, j in itertools.combinations(range(n), 2)
    )
    return ConnectivityReport(
        connected=connected,
        hyperconnected=hyper,
        ultraconnected=ultra,
        nested=nested,
        noetherian=True,
        empty=n == 0,
    )


def hasse_edges(space: QuasiDivisorSpace) -> list:
    """Covering relations as (lower, upper) index pairs, sorted."""
    edges = []
    for i in range(space.n):
        for j in _bits(space.up[i] & ~(1 << i)):
            between = space.up[i] & space.down[j]
            if between == (1 << i) | (1 << j):
                edges.append((i, j))
    edges.sort()
    return edges


def is_homeomorphic(s1: QuasiDivisorSpace, s2: QuasiDivisorSpace) -> bool:
    """Order isomorphism search; for these spaces homeomorphism is exactly
    order isomorphism.  Capped at 10 points per side."""
    if s1.n > HOMEO_CAP or s2.n > HOMEO_CAP:
        raise SizeCapExceeded(
            f"homeomorphism search is capped at {HOMEO_CAP} points"
        )
    if s1.n != s2.n:
        return False
    n = s1.n
    if n == 0:
        return True

    def signature(space, i):
        return (
            bin(space.up[i]).count("1"),
            bin(space.down[i]).count("1"),
        )

    sig1 = [signature(s1, i) for i in range(n)]
    sig2 = [signature(s2, i) for i in range(n)]
    if sorted(sig1) != sorted(sig2):
        return False

    assigned = [-1] * n
    used = [False] * n

    def backtrack(i):
        if i == n:
            return True
        for j in range(n):
            if used[j] or sig1[i] != sig2[j]:
                continue
            ok = True
            for k in range(i):
                if s1.le(i, k) != s2.le(j, assigned[k]) or s1.le(k, i) != s2.le(
                    assigned[k], j
                ):
                    ok = False
                    break
            if ok:
                assigned[i] = j
                used[j] = True
                if backtrack(i + 1):
                    return True
                used[j] = False
        return False

    return backtrack(0)
