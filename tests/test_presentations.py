"""Isomorphic presentations of one module give one space and one set of
verdicts: a metamorphic check (T. Y. Chen, S. C. Cheung and S. M. Yiu,
"Metamorphic testing", HKUST-CS98-01, 1998), which needs no oracle.

Two cyclic sums over Z with the same elementary divisors are isomorphic
(Dummit and Foote, *Abstract Algebra*, §12.1), and so is Z:n with the ring
Zn(n) over itself; all of them have the residue ring Zn(lcm), so their
labeled spaces are equal.  Zn(mn) and Prod(Zn(m),Zn(n)) for coprime m, n
are isomorphic rings (the Chinese remainder theorem), and so are
GF(p,f*g) and Prod(GF(p,f),GF(p,g)) for coprime f, g, and Ideal(Zn(p),1)
and GF(p,x^2) = F_p[x]/(x^2); their labels differ, so the
point count and the up-set sizes are compared.  Every rule that does not
read the presentation gives one verdict on the whole group."""

import collections
import math

import pytest

from qdivtop import modules, topology
from qdivtop.scalars import parse_poly, pgcd, pmul
from qdivtop.verifier import RULE_IDS, Instance, generate_corpus, run_all
from test_mutants import (
    idealization_without_the_translation,
    product_rows_joined_in_swapped_order,
)

# R14 and R15 are ring rules, R19 and R21 read the summands of a cyclic
# sum, and R20 runs on Zn residue rings only
PRESENTATION_FREE_RULES = tuple(
    r for r in RULE_IDS if r not in ("R14", "R15", "R19", "R20", "R21")
)

# (p, f, g, f*g) for coprime f and g over F_p; the Prod rings of order 81
# and 128 lie past rings.CONSTRUCTION_CHECK_CAP
COPRIME_MODULI = [
    (2, "x^3+x+1", "x^4+x+1", "x^7+x^5+x^3+x^2+1"),
    (2, "x^3", "x^2+x+1", "x^5+x^4+x^3"),
    (2, "x^4", "x^3+x+1", "x^7+x^5+x^4"),
    (3, "x^2", "x^2+1", "x^4+x^2"),
    (2, "x^2", "x^2+x+1", "x^4+x^3+x^2"),
    (5, "x", "x+1", "x^2+x"),
    (3, "x^3", "x+1", "x^4+x^3"),
]

# (product or idealization, cyclic ring or quotient); the last two lie
# past rings.CONSTRUCTION_CHECK_CAP, where the rows are joined from the
# factors' rows
ISOMORPHIC_RINGS = [
    (f"ring:Prod(Zn({m}),Zn({n}))", f"ring:Zn({m * n})")
    for m, n in [(2, 3), (2, 5), (3, 4), (3, 5), (2, 9), (4, 5), (4, 9), (5, 7), (7, 8)]
] + [
    (f"ring:Prod(GF({p},{f}),GF({p},{g}))", f"ring:GF({p},{fg})")
    for p, f, g, fg in COPRIME_MODULI
] + [
    ("ring:Prod(Zn(9),Zn(16))", "ring:Zn(144)"),
    ("ring:Ideal(Zn(11),1)", "ring:GF(11,x^2)"),
]


def elementary_divisors(spec):
    """The prime powers of the moduli of ``Z:...`` or ``ring:Zn(n)``."""
    if spec.startswith("ring:Zn("):
        moduli = [int(spec[8:-1])]
    else:
        moduli = [int(d) for d in spec[2:].split(",")]
    out = []
    for d in moduli:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d, q = d // p, q * p
            if q > 1:
                out.append(q)
            p += 1
    return tuple(sorted(out))


def verdicts(specs):
    report = run_all([Instance("module", s) for s in specs], PRESENTATION_FREE_RULES)
    out = collections.defaultdict(list)
    for outcome in report.outcomes:
        out[outcome.instance].append(outcome.verdict)
    return out


def labeled_space(spec):
    space = topology.build_space(modules.build_module(spec))
    return space.labels, space.up


def space_shape(spec):
    space = topology.build_space(modules.build_module(spec))
    return space.n, sorted(u.bit_count() for u in space.up)


def test_isomorphic_cyclic_sums_have_one_labeled_space_and_one_verdict():
    # the default Z: sums and Zn(n) rings, and Z:mn beside each coprime sum
    # Z:m,n of the corpus
    specs = [
        i.spec_text
        for i in generate_corpus()
        if i.kind == "module" and i.spec_text.startswith(("Z:", "ring:Zn("))
    ]
    for spec in list(specs):
        m, _, n = spec[2:].partition(",")
        if n and math.gcd(int(m), int(n)) == 1 and f"Z:{int(m) * int(n)}" not in specs:
            specs.append(f"Z:{int(m) * int(n)}")
    groups = collections.defaultdict(list)
    for spec in specs:
        groups[elementary_divisors(spec)].append(spec)
    groups = [g for g in groups.values() if len(g) > 1]
    assert ["Z:6", "Z:2,3", "ring:Zn(6)"] in groups
    rule_verdicts = verdicts([s for g in groups for s in g])
    for group in groups:
        assert len({repr(labeled_space(s)) for s in group}) == 1, group
        assert len({tuple(rule_verdicts[s]) for s in group}) == 1, group


def test_coprime_moduli_multiply_to_the_quotient_modulus():
    for p, f, g, fg in COPRIME_MODULI:
        f, g = parse_poly(f, p), parse_poly(g, p)
        assert pgcd(f, g, p) == (1,) and pmul(f, g, p) == parse_poly(fg, p)


def test_isomorphic_rings_have_one_space_shape_and_one_verdict():
    rule_verdicts = verdicts([s for pair in ISOMORPHIC_RINGS for s in pair])
    for a, b in ISOMORPHIC_RINGS:
        assert space_shape(a) == space_shape(b), (a, b)
        assert rule_verdicts[a] == rule_verdicts[b], (a, b)


@pytest.mark.parametrize(
    "plant, pair",
    [
        (product_rows_joined_in_swapped_order, ISOMORPHIC_RINGS[-2]),
        (idealization_without_the_translation, ISOMORPHIC_RINGS[-1]),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_a_fault_in_the_joined_rows_splits_an_isomorphic_pair(monkeypatch, plant, pair):
    # the shapes, or else the verdicts, differ.  Under the product fault the
    # points of Prod(Zn(9),Zn(16)) lie in images that are not its ideals,
    # so its order is not transitive and the oracle refuses it
    plant(monkeypatch)
    a, b = pair
    if space_shape(a) == space_shape(b):
        rule_verdicts = verdicts(pair)
        assert rule_verdicts[a] != rule_verdicts[b]
