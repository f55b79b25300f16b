"""Corpus generation and the executable rule suite.

Each rule states one verifiable law tying module algebra, the
order-theoretic predicates and the enumerated-topology oracle together.
Rules run per corpus instance and return pass, fail (with a re-checkable
witness) or vacuous; an instance that does not satisfy a rule's hypothesis
is counted vacuous, never silently passed.  Reports are deterministic:
fixed iteration orders, no randomness, and a corpus fingerprint.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

from . import modules, oracle, rings, scalars, topology

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"

# hook for the harness self-test: rules read this at call time, so a test
# can swap in a deliberately broken predicate and watch R2 and R14 catch it
QS_VIOLATION_FINDER = modules.find_quasi_second_violation


@dataclass(frozen=True)
class CorpusSpec:
    """Integer moduli run from 2, polynomial moduli are over F_2, and the
    catalog holds Trunc(2,k) for k <= 3 and Ideal(Zn(2),d) for d <= 2, of
    order at most min(element_cap, 64)."""

    int_modulus_max: int = 9
    max_summands: int = 2
    element_cap: int = 81
    poly_max_degree: int = 3

    def __post_init__(self):
        if self.max_summands < 1 or self.element_cap < 1:
            raise ValueError("corpus caps must be positive")


DEFAULT_CORPUS = CorpusSpec()

MAX_INSTANCES = 100_000


@dataclass(frozen=True)
class Instance:
    kind: str  # "module" | "ring"
    spec_text: str


class _Outcome(NamedTuple):
    rule_id: str
    instance: str
    verdict: str
    witness: str | None = None
    note: str | None = None


class RuleOutcome(_Outcome):
    """One rule's verdict on one instance: a tuple, since every pass makes
    one per rule and instance."""

    __slots__ = ()

    def __new__(cls, rule_id, instance, verdict, witness=None, note=None):
        if verdict == FAIL and not witness:
            raise ValueError("a failing outcome needs a witness")
        return super().__new__(cls, rule_id, instance, verdict, witness, note)


_GF_POLYS = {
    4: (2, "x^2+x+1"),
    8: (2, "x^3+x+1"),
    9: (3, "x^2+1"),
    16: (2, "x^4+x+1"),
    25: (5, "x^2+2"),
    27: (3, "x^3+2*x+1"),
    32: (2, "x^5+x^2+1"),
}


def _field_specs(order_cap: int):
    out = []
    for q in range(2, order_cap // 2 + 1):
        if scalars.is_prime(q):
            out.append((q, f"Zn({q})"))
        elif q in _GF_POLYS:
            p, f = _GF_POLYS[q]
            out.append((q, f"GF({p},{f})"))
    return out


def catalog_ring_specs(cs: CorpusSpec) -> list:
    cap = min(cs.element_cap, 64)
    specs = [f"Zn({n})" for n in range(2, cap + 1)]
    for k in range(1, 4):
        if 2 ** (k + 1) <= cap:
            specs.append(f"Trunc(2,{k})")
    for d in range(1, 3):
        if 2 ** (d + 1) <= cap:
            specs.append(f"Ideal(Zn(2),{d})")
    fields = _field_specs(cap)
    for i, (q1, s1) in enumerate(fields):
        for q2, s2 in fields[i:]:
            if q1 * q2 <= cap:
                specs.append(f"Prod({s1},{s2})")
    return specs


def _capped_multisets(items, sizes, k, cap):
    """The multisets of k items whose sizes multiply to at most cap, as
    tuples in ``itertools.combinations_with_replacement`` order.  The
    sizes ascend with the items, so an item at a place with r places
    left, itself included, is followed only by items at least as large:
    once the product so far times its size**r passes the cap, no item
    from it on fits at that place, and the loop there stops."""

    def walk(start, prefix, product, r):
        if r == 0:
            yield prefix
            return
        for i in range(start, len(items)):
            if product * sizes[i] ** r > cap:
                break
            yield from walk(i, prefix + (items[i],), product * sizes[i], r - 1)

    return walk(0, (), 1, k)


def generate_corpus(cs: CorpusSpec = DEFAULT_CORPUS) -> list:
    """Deterministic instance list: integer cyclic sums, their F_2[x]
    analogues (single moduli and pairwise direct sums within the element
    cap), and every catalog ring both as a ring and as a cyclic module.
    The instances are listed one by one, and the listing stops as soon as
    it passes ``MAX_INSTANCES``."""
    out = list(itertools.islice(_corpus_instances(cs), MAX_INSTANCES + 1))
    if len(out) > MAX_INSTANCES:
        raise ValueError(f"corpus exceeds {MAX_INSTANCES} instances")
    return out


def _corpus_instances(cs: CorpusSpec):
    # every summand has at least 2 elements, so k summands at least 2^k
    max_summands = min(cs.max_summands, cs.element_cap.bit_length() - 1)
    mods = range(2, cs.int_modulus_max + 1)
    for k in range(1, max_summands + 1):
        for combo in _capped_multisets(mods, mods, k, cs.element_cap):
            yield Instance("module", "Z:" + ",".join(map(str, combo)))

    p = 2
    polys = []
    for deg in range(1, cs.poly_max_degree + 1):
        polys.extend(scalars.monic_polys(p, deg))
    polys.sort(key=lambda c: (len(c), c))
    sizes = [p ** scalars.pdeg(m) for m in polys]
    for k in range(1, max_summands + 1):
        for combo in _capped_multisets(polys, sizes, k, cs.element_cap):
            text = ",".join(scalars.format_poly(m) for m in combo)
            yield Instance("module", f"F{p}[x]:{text}")

    ring_specs = catalog_ring_specs(cs)
    yield from (Instance("ring", spec) for spec in ring_specs)
    yield from (Instance("module", f"ring:{spec}") for spec in ring_specs)


# -- per-instance evaluation contexts -----------------------------------


class _ModuleCtx:
    """One instance's lazily computed facts.  A ring instance R runs on the
    module ``ring:R``: R is quasi second exactly when it is as a module over
    itself, and R is the module's residue ring."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.kind = instance.kind
        prefix = "ring:" if instance.kind == "ring" else ""
        self.E = modules.build_module(prefix + instance.spec_text)
        self._axioms = {}

    @cached_property
    def classes(self):
        return modules.scalar_classes(self.E)

    @cached_property
    def space(self):
        return topology.build_space(self.E)

    @property
    def n(self):
        return self.space.n

    @cached_property
    def _topo_or_cap(self):
        # cached_property does not cache an exception, so the cap outcome
        # is kept as a value and the closure runs at most once
        try:
            return oracle.enumerate_open_sets(self.space)
        except modules.SizeCapExceeded as exc:
            return exc

    @property
    def topo(self):
        if isinstance(self._topo_or_cap, modules.SizeCapExceeded):
            raise self._topo_or_cap
        return self._topo_or_cap

    @cached_property
    def sep(self):
        return topology.separation_report(self.space)

    @cached_property
    def conn(self):
        return topology.connectivity_report(self.space)

    @cached_property
    def preds(self):
        return modules.structural_predicates(self.E)

    @cached_property
    def semiprime(self):
        return modules.semiprime_annihilator(self.E)

    @cached_property
    def ann_prime(self):
        ring = self.E.residue_ring
        return ring.order > 1 and ring.is_field()

    @cached_property
    def qs_violation(self):
        return QS_VIOLATION_FINDER(self.E)

    @property
    def qs(self):
        return self.qs_violation is None

    @cached_property
    def maximal_images(self):
        """Per point: whether no class image strictly contains its image."""
        masks = [c.image.mask for c in self.classes]
        return tuple(
            not any(m != other and not (m & ~other) for other in masks)
            for m in masks
        )

    @cached_property
    def all_images_second(self):
        return all(modules.is_second_submodule(c.image) for c in self.classes)

    @cached_property
    def classification(self):
        return rings.classify_quasi_second_ring(self.E.residue_ring)

    @cached_property
    def all_ann_maximal(self):
        return all(modules.submodule_annihilator(c.image)[1] for c in self.classes)

    def axiom(self, name):
        """The oracle's verdict on the named axiom."""
        if name not in self._axioms:
            self._axioms[name] = oracle.oracle_axiom(self.topo, name)
        return self._axioms[name]

    def witness_violation(self):
        v = self.qs_violation
        if v is None:
            return ""
        return (
            f"a={v['a']} b={v['b']} aE={{{','.join(v['aE'])}}} "
            f"bE={{{','.join(v['bE'])}}}"
        )


# -- rules ---------------------------------------------------------------


def _empty(ctx):
    return ctx.n == 0


def _r1(ctx):
    if _empty(ctx):
        return VACUOUS, None, "empty space"
    if not ctx.axiom("alexandrov"):
        # the unions of basis sets are closed under intersection iff any two
        # basis sets meet in one of them; failing that, they miss a point
        space, is_open = ctx.space, ctx.topo.is_open
        up, labels = space.up, space.labels
        for i, j in itertools.combinations(range(space.n), 2):
            if not is_open(up[i] & up[j]):
                return FAIL, (
                    f"not a topology: the basis sets of {labels[i]} and {labels[j]} "
                    f"meet in {space.label_set(up[i] & up[j])}, which is not open"
                ), None
        return FAIL, "not a topology: the basis sets miss a point", None
    t0 = ctx.axiom("T0")
    if t0 and ctx.sep.t0:
        return PASS, None, None
    return FAIL, f"T0 fast={ctx.sep.t0} definitional={t0}", None


def _r2(ctx):
    t1 = ctx.axiom("T1")
    if t1 == ctx.qs:
        return PASS, None, None
    witness = f"T1={t1} but quasi_second={ctx.qs}"
    if not ctx.qs:
        witness += "; " + ctx.witness_violation()
    else:
        labels = ctx.space.labels
        for i, u in enumerate(ctx.space.up):
            above = u & ~(1 << i)
            if above:
                j = (above & -above).bit_length() - 1
                witness += f"; comparable points {labels[i]} <= {labels[j]}"
                break
    return FAIL, witness, None


def _r3(ctx):
    values = {
        "quasi_second": ctx.qs,
        "all_images_maximal": all(ctx.maximal_images),
        "discrete": ctx.axiom("discrete"),
        "metrizable": ctx.sep.metrizable,
        "T2": ctx.axiom("T2"),
        "T1": ctx.axiom("T1"),
    }
    if len(set(values.values())) == 1:
        return PASS, None, None
    return FAIL, str(values), None


def _r4(ctx):
    if _empty(ctx):
        return VACUOUS, None, "empty space"
    if not ctx.preds.multiplication:
        return VACUOUS, None, "not a multiplication module"
    nested = ctx.conn.nested
    uniserial = ctx.preds.uniserial
    if nested == uniserial:
        return PASS, None, None
    return FAIL, f"uniserial={uniserial} nested={nested}", None


def _r5(ctx):
    if _empty(ctx):
        return VACUOUS, None, "empty space"
    E = ctx.E
    masks = [c.image.mask for c in ctx.classes]
    criterion = True
    witness_pair = None
    for i, j in itertools.combinations_with_replacement(range(len(masks)), 2):
        total = E.join_masks(masks[i], masks[j])
        if not any(not (total & ~m) for m in masks):
            criterion = False
            witness_pair = (ctx.classes[i].label, ctx.classes[j].label)
            break
    hyper = ctx.axiom("hyperconnected")
    if criterion == hyper:
        return PASS, None, None
    return FAIL, (
        f"sum-bound criterion={criterion} (pair {witness_pair}) but "
        f"hyperconnected={hyper}"
    ), None


def _r6(ctx):
    if _empty(ctx):
        return VACUOUS, None, "empty space"
    space, topo = ctx.space, ctx.topo
    for i in range(space.n):
        singleton_basis = space.up[i] == 1 << i
        is_maximal = ctx.maximal_images[i]
        isolated = topo.is_open(1 << i)
        if not (isolated == singleton_basis == is_maximal):
            return FAIL, (
                f"point {space.labels[i]}: isolated={isolated} "
                f"singleton_basis={singleton_basis} maximal_image={is_maximal}"
            ), None
    return PASS, None, None


def _r7(ctx):
    if _empty(ctx):
        return VACUOUS, None, "empty space"
    space, topo = ctx.space, ctx.topo
    sweep = zip(oracle.subset_sweep(space.n), topo.closure_table, topo.interior_table)
    for mask, closure, interior in sweep:
        if topology.closure(space, mask) != closure:
            return FAIL, f"closure formula differs on {space.label_set(mask)}", None
        if topology.interior(space, mask) != interior:
            return FAIL, f"interior formula differs on {space.label_set(mask)}", None
    return PASS, None, None


def _r8(ctx):
    if _empty(ctx):
        return VACUOUS, None, "empty space"
    checks = oracle.oracle_structure_checks(ctx.topo, ctx.space)
    if (
        checks.open_dense_contains_maximal_ok
        and checks.minimal_neighborhoods_ok
        and checks.closure_union_ok
    ):
        return PASS, None, None
    return FAIL, str(checks), None


def _r9(ctx):
    qs = ctx.qs
    allsecond = ctx.all_images_second
    semi = ctx.semiprime
    if qs and not allsecond:
        bad = next(c for c in ctx.classes if not modules.is_second_submodule(c.image))
        return FAIL, (
            f"quasi second, but {bad.label} with image "
            f"{{{','.join(bad.image.element_strs())}}} is not second"
        ), None
    if semi and allsecond and not qs:
        return FAIL, (
            "semiprime annihilator and all class images second, yet "
            + ctx.witness_violation()
        ), None
    if qs or (semi and allsecond):
        return PASS, None, None
    return VACUOUS, None, "hypotheses not satisfied"


def _r10(ctx):
    if not ctx.qs:
        return VACUOUS, None, "not quasi second"
    if not ctx.classes:
        return VACUOUS, None, "no classes"
    E = ctx.E
    for c in ctx.classes:
        gen, maximal = modules.submodule_annihilator(c.image)
        if not maximal:
            ann = f"generator {gen}"
            if E.moduli is None:  # a catalog ring's killer ideal, as a mask
                ann = "killer ideal {" + ",".join(E.format_mask(gen)) + "}"
            return FAIL, (
                f"class {c.label}: annihilator of the image is not maximal ({ann})"
            ), None
    return PASS, None, None


def _r11(ctx):
    if not ctx.preds.comultiplication:
        return VACUOUS, None, "not a comultiplication module"
    values = {
        "quasi_second": ctx.qs,
        "all_images_second": ctx.all_images_second,
        "all_annihilators_maximal": ctx.all_ann_maximal,
    }
    if len(set(values.values())) == 1:
        return PASS, None, None
    return FAIL, str(values), None


def _r12(ctx):
    if not (ctx.preds.comultiplication and ctx.preds.semiprime_annihilator):
        return VACUOUS, None, "needs comultiplication and a semiprime annihilator"
    split = modules.weak_idempotent_split(ctx.E)
    rhs = split.kind in ("simple", "split")
    if ctx.qs == rhs:
        return PASS, None, None
    detail = split.kind
    if split.kind == "split":
        ring = ctx.E.residue_ring
        detail += f" at e={ring.labels[ring.index(split.idempotent)]}"
    return FAIL, f"quasi_second={ctx.qs} but decomposition={detail}", None


def _r13(ctx):
    if not (ctx.preds.comultiplication and ctx.preds.semiprime_annihilator):
        return VACUOUS, None, "needs comultiplication and a semiprime annihilator"
    t1 = ctx.axiom("T1")
    discrete = ctx.axiom("discrete")
    rhs = ctx.n == 0 or (discrete and ctx.n == 2)
    if t1 == rhs:
        return PASS, None, None
    return FAIL, f"T1={t1} but points={ctx.n} discrete={discrete}", None


def _r14(ctx):
    v = ctx.qs_violation
    brute = v is None
    structural = ctx.classification != rings.NOT_QS
    if brute == structural:
        return PASS, None, None
    detail = f"brute={brute} classification={ctx.classification}"
    if v is not None:
        detail += (
            f"; witness a={v['a']} b={v['b']} (a)={{{','.join(v['aE'])}}} "
            f"(b)={{{','.join(v['bE'])}}}"
        )
    return FAIL, detail, None


def _r15(ctx):
    ring = ctx.E.residue_ring
    # the exact class: Trunc(p,k) is built as Ideal(Zn(p),k) but keeps the
    # verdict "not an idealization" that its report and digests record
    if type(ring) is not rings.IdealizeRing:
        return VACUOUS, None, "not an idealization"
    if not ring.base.is_field():
        return VACUOUS, None, "base ring is not a field"
    v = ctx.qs_violation
    if v is None:
        return PASS, None, None
    return FAIL, f"idealization of a field not quasi second: a={v['a']} b={v['b']}", None


def _r16(ctx):
    if not ctx.qs:
        return VACUOUS, None, "not quasi second"
    # past the lattice cap enumerate_submodules raises SizeCapExceeded,
    # which _evaluate turns into a vacuous outcome
    for sub in modules.enumerate_submodules(ctx.E):
        for section, name in ((sub, "submodule"), (sub.quotient(), "quotient by")):
            v = QS_VIOLATION_FINDER(section)
            if v is not None:
                return FAIL, (
                    f"{name} {{{','.join(sub.element_strs())}}} is not quasi "
                    f"second: a={v['a']} b={v['b']}"
                ), None
    return PASS, None, None


def _r17(ctx):
    if _empty(ctx):
        return VACUOUS, None, "empty space"
    fast = ctx.sep.t3
    definitional = ctx.axiom("T3")
    if fast == definitional:
        return PASS, None, None
    return FAIL, f"T3 fast={fast} definitional={definitional}", None


def _r18(ctx):
    if not ctx.ann_prime:
        return VACUOUS, None, "annihilator is not prime"
    if _empty(ctx):
        return VACUOUS, None, (
            "prime annihilator reachable only via empty spaces at this scale; "
            "ultraconnectedness and T4 hold vacuously"
        )
    ultra = ctx.axiom("ultraconnected")
    t4 = ctx.axiom("T4")
    if ultra and t4:
        return PASS, None, None
    return FAIL, f"prime annihilator but ultraconnected={ultra} T4={t4}", None


def _summand_views(E):
    """The summands A/(d_1) and A/(d_2) of a two-summand sum, each the
    cyclic submodule of its unit vector, seen through E's own action."""
    one, zero = E.residue_ring.one, E.residue_ring.zero
    return [
        modules.Submodule._trusted(E, E.cyclic_mask(E.elem_index(unit)))
        for unit in ((one, zero), (zero, one))
    ]


def _summand_images(views, r):
    """Per summand: the mask of the residue at index r times it, and whether
    its class set holds r (the image is neither zero nor the whole
    summand)."""
    masks = [view.image_mask(r) for view in views]
    return [(m, m not in (v.zero_mask, v.full_mask)) for m, v in zip(masks, views)]


def _r19(ctx):
    E = ctx.E
    if E.moduli is None or len(E.moduli) != 2:
        return VACUOUS, None, "not a two-summand direct sum"
    if not ctx.semiprime:
        return VACUOUS, None, "annihilator is not semiprime"
    views = _summand_views(E)
    ring = E.residue_ring
    zero, one = ring.zero_index, ring.one_index

    for r, g in enumerate(ring.divisor_table()):
        if r == zero or g == one:
            continue
        mask = E.image_mask(r)
        if mask == E.zero_mask or mask == E.full_mask:
            continue
        if not all(inside for _, inside in _summand_images(views, r)):
            return VACUOUS, None, (
                "the direct sum has scalars outside both summand class sets"
            )

    lhs = ctx.qs
    rhs = all(QS_VIOLATION_FINDER(view) is None for view in views)
    detail = None
    if rhs:
        for r in range(ring.order):
            (m1, in1), (m2, in2) = _summand_images(views, r)
            if not (in1 and in2):
                continue
            (gen1, max1), (gen2, max2) = (
                modules.submodule_annihilator(modules.Submodule._trusted(E, m))
                for m in (m1, m2)
            )
            if gen1 != gen2 or not (max1 and max2):
                rhs = False
                detail = (
                    f"scalar {ring.labels[r]}: annihilators "
                    f"{gen1} (maximal={max1}) vs {gen2} (maximal={max2})"
                )
                break
    if lhs == rhs:
        return PASS, None, None
    witness = f"quasi_second={lhs} but summand condition={rhs}"
    if detail:
        witness += "; " + detail
    if not lhs:
        witness += "; " + ctx.witness_violation()
    return FAIL, witness, None


def _r20(ctx):
    E = ctx.E
    if not isinstance(E.residue_ring, rings.ZnRing):
        return VACUOUS, None, "integer instances only"
    if _empty(ctx):
        return VACUOUS, None, "empty space"
    space = ctx.space
    n = E.residue_ring.n
    class_of = {}
    for idx, c in enumerate(ctx.classes):
        for member in c.members:
            class_of[member] = idx
    residues = sorted(class_of)
    ups = space.up
    # the lcm sweep reads only the three classes, so it runs once per triple
    checked = set()
    for a in residues:
        ua = ups[class_of[a]]
        for b in residues:
            ub = ups[class_of[b]]
            if b % a == 0 and (ua & ~ub):
                return FAIL, f"{a} divides {b} but U_{a} is not inside U_{b}", None
            g = math.gcd(a, b)
            gr = g % n
            if gr in class_of and ups[class_of[gr]] != (ua & ub):
                return FAIL, (
                    f"U_gcd({a},{b}) != U_{a} & U_{b}: "
                    f"{space.label_set(ups[class_of[gr]])} vs "
                    f"{space.label_set(ua & ub)}"
                ), None
            lcm = a * b // g
            lr = lcm % n
            if lr in class_of:
                key = (class_of[a], class_of[b], class_of[lr])
                if key in checked:
                    continue
                checked.add(key)
                ul = ups[class_of[lr]]
                for i in range(space.n):
                    uc = ups[i]
                    if not (uc & ~ua) and not (uc & ~ub) and (uc & ~ul):
                        return FAIL, (
                            f"U_{space.labels[i]} inside U_{a} and U_{b} "
                            f"but not inside U_lcm({a},{b})"
                        ), None
    return PASS, None, (
        "the faithful-multiplication lcm identity has no finite instances "
        "and is not checked"
    )


def _direct_image(E):
    """(images, summand): images(samples, codes) -> the mask of aE for each
    sample a, in order, and k -> the mask of the k-th summand A/(d_k), from
    the presentation alone: E's moduli, its domain, its element index and
    plain scalar arithmetic, never its residue ring, rows, images or digit
    layout, so no fault can hide on both sides of R21.

    A scalar is worked on as a code. An integer is its own code. An F_p[x]
    scalar is the base-p integer whose digit k is the coefficient of x^k, so
    over F_2 bit k. The operations that depend on p are x + c*y digit by
    digit mod p, an XOR over F_2 and a digit loop otherwise, and reducing a
    mod d (E's moduli are monic). That clears a's digits from the top down,
    each with a shifted multiple of d, until the degree is below d's: over
    F_2 a shift-and-XOR loop on ``bit_length``, which XORs d shifted under
    a's top bit until a is shorter than d, and otherwise a digit loop with
    ``axpy``. gcds are Euclid on these reductions. None of this shares code
    with ``rings``, whose residue rings compute on element indices.

    ``codes[k]`` is the code of ``samples[k]``; the samples past the codes
    are encoded and reduced one by one. The coded samples are reduced by
    one residue list per distinct modulus d. Over Z it is a % d for each.
    Over F_p[x] the codes are every code below some power p^m, and a mod d
    is F_p-linear in a's digits, so the residue table of every code below
    p^(k+1) is the table below p^k followed by, for each c from 1 to p - 1,
    that table plus c times t^k mod d: one XOR per entry over F_2, one
    ``axpy`` per entry otherwise.

    Over a PID a(A/(d)) = g(A/(d)) for g = gcd(a, d), so an image is keyed
    on the tuple of gcd(a mod d, d) over the distinct moduli d, each gcd
    memoized per (d, residue), so computed once per distinct residue. The
    keys are read in bulk, but each mask is built when its sample is
    reached, once per key. g(A/(d)) is the set of multiples of g below d,
    in closed form: range(0, d, g) over Z, and over F_p[x] the products g*q
    for every q of degree below deg d - deg g, which need no reduction;
    they are listed by adding c*g*t^k for each digit c of q, and turned
    into elements once per (d, g). The k-th summand is the product of
    1(A/(d_k)) at place k with d_j(A/(d_j)) = 0 at every other place j.
    The memos live in the returned closures, so none outlives one _r21
    call."""
    if E.domain.kind == "int":
        encode = int
        reduce = operator.mod
        gcd = math.gcd

        def residues(d, codes):
            return [a % d for a in codes]

        def multiples(d, g):
            return range(0, d, g)

    else:
        p = E.domain.char
        pw = [1, p]

        def encode(a):
            while len(pw) <= len(a):
                pw.append(pw[-1] * p)
            return sum(map(operator.mul, a, pw))

        def decode(code):
            digits = []
            while code:
                code, c = divmod(code, p)
                digits.append(c)
            return tuple(digits)

        def degree(a):
            while pw[-1] <= a:
                pw.append(pw[-1] * p)
            return bisect.bisect_right(pw, a) - 1

        if p == 2:
            def axpy(x, c, y):
                # c is 1: the only nonzero coefficient
                return x ^ y

            def reduce(a, d):
                # a mod d: while a's top bit sits at or above d's, clear it
                # with d shifted under it
                n = d.bit_length()
                while (k := a.bit_length()) >= n:
                    a ^= d << (k - n)
                return a

            def plus_place(table, shift):
                return [r ^ shift for r in table]
        else:
            def axpy(x, c, y):
                out, place = 0, 1
                while x or y:
                    x, u = divmod(x, p)
                    y, v = divmod(y, p)
                    out += (u + c * v) % p * place
                    place *= p
                return out

            def reduce(a, d):
                # a mod the monic d: for each digit c of a at k >= n = deg
                # d, from the top down, a less c*t^(k-n)*d
                n = degree(d)
                for k in range(degree(a), n - 1, -1):
                    c = a // pw[k] % p
                    if c:
                        a = axpy(a, p - c, d * pw[k - n])
                return a

            def plus_place(table, shift):
                return [axpy(r, c, shift) for c in range(1, p) for r in table]

        def residues(d, codes):
            # the residue table below p^m, one digit place at a time, with
            # shift = t^k mod d at place k
            table, place, top = [0], 1, max(codes, default=0)
            while len(table) <= top:
                table += plus_place(table, reduce(place, d))
                place *= p
            return list(map(table.__getitem__, codes))

        def gcd(a, b):
            while b:
                # b made monic: b times the inverse of its leading coefficient
                n = degree(b)
                b = axpy(0, pow(b // pw[n], p - 2, p), b)
                a, b = b, reduce(a, b)
            return a

        def multiples(d, g):
            out = [0]
            for k in range(degree(d) - degree(g)):
                shifted = g * pw[k]
                out += [axpy(x, c, shifted) for c in range(1, p) for x in out]
            return [decode(x) for x in out]

    moduli = [encode(m.value) for m in E.moduli]
    distinct = list(dict.fromkeys(moduli))
    slots = [distinct.index(d) for d in moduli]
    divisor = cache(gcd)
    members = cache(multiples)

    def product_mask(gens):
        # the multiples of gens[j] in A/(d_j) at each place j; they hold no
        # repeats, so the sum of the bits is their union
        vals = itertools.product(*(members(d, g) for d, g in zip(moduli, gens)))
        return sum(1 << E.elem_index(v) for v in vals)

    @cache
    def mask_of(key):
        return product_mask([key[i] for i in slots])

    def key(a):
        a = encode(a)
        return tuple([divisor(d, reduce(a, d)) for d in distinct])

    def images(samples, codes):
        columns = []
        for d in distinct:
            found = residues(d, codes)
            gcds = {r: divisor(d, r) for r in set(found)}
            columns.append(map(gcds.__getitem__, found))
        keys = itertools.chain(zip(*columns), map(key, samples[len(codes) :]))
        return map(mask_of, keys)

    def summand(k):
        return product_mask([1 if j == k else d for j, d in enumerate(moduli)])

    return images, summand


def _r21(ctx):
    """Residue classes against scalars of A drawn directly. For each sample
    a, whether [a] lies in W(E)# must agree between the residue side (a's
    residue is nonzero and not a unit) and the direct side (aE is neither 0
    nor E), and the direct image aE (``_direct_image``: in each summand
    A/(d), the multiples of gcd(a, d)) must equal E's image of a's residue
    ``ring.reduce(a)``. The samples run in (length, coefficients) order:
    over Z every integer in [-2n, 2n]; over F_p[x] every polynomial of
    degree at most deg g + 1 for the annihilator g, listed as each prefix
    followed by each nonzero top coefficient, then monomials and
    near-multiples of g up to degree 2 deg g. Then E's cyclic submodule
    R·e_k of each unit vector e_k must equal the k-th summand read off the
    presentation. The first mismatch is the witness."""
    E = ctx.E
    if E.moduli is None:
        return VACUOUS, None, "needs an explicit cyclic-sum presentation"
    ring = E.residue_ring
    zero, units = ring.zero_index, set(map(ring.index, ring.units()))
    images, summand = _direct_image(E)
    if E.domain.kind == "int":
        n = ring.n
        samples = codes = range(-2 * n, 2 * n + 1)
        fmt = str
    else:
        p = E.domain.char
        g = ring.modulus
        deg = scalars.pdeg(g)
        extra = set()
        for j in range(deg + 2, 2 * deg + 1):
            mono = (0,) * j + (1,)
            extra.add(mono)
            extra.add(scalars.padd(mono, (1,), p))
            shift = (0,) * (j - deg) + (1,)
            extra.add(scalars.padd(scalars.pmul(g, shift, p), (1, 1), p))
        # each short sample's code next to it: a prefix of length k and
        # top coefficient c has the prefix's code plus c*p^k, and the
        # prefix codes run in the order of itertools.product
        short, codes, prefix_codes = [()], [0], [0]
        for length in range(deg + 2):
            place = p**length
            short += [
                prefix + (c,)
                for prefix in itertools.product(range(p), repeat=length)
                for c in range(1, p)
            ]
            codes += [x + c * place for x in prefix_codes for c in range(1, p)]
            if length <= deg:
                prefix_codes = [x + c * place for x in prefix_codes for c in range(p)]
        samples = short + sorted(extra, key=lambda c: (len(c), c))
        fmt = scalars.format_poly
    direct_masks = images(samples, codes)
    index, reduce, image_mask = ring.index, ring.reduce, E.image_mask
    outside = (E.zero_mask, E.full_mask)
    for a in samples:
        residue = index(reduce(a))
        direct_mask = next(direct_masks)
        in_w_direct = direct_mask not in outside
        in_w_residue = residue != zero and residue not in units
        if in_w_direct != in_w_residue:
            return FAIL, (
                f"scalar {fmt(a)}: direct membership {in_w_direct} but "
                f"residue membership {in_w_residue}"
            ), None
        if direct_mask != image_mask(residue):
            return FAIL, (
                f"scalar {fmt(a)}: direct image "
                f"{{{','.join(E.format_mask(direct_mask))}}} differs from the "
                f"residue image"
            ), None
    zero, one = (0, 1) if E.domain.kind == "int" else ((), (1,))
    places = range(len(E.moduli))
    for k in places:
        i = E.elem_index(tuple(one if j == k else zero for j in places))
        cyclic = E.cyclic_mask(i)
        if cyclic != summand(k):
            return FAIL, (
                f"unit vector {E.labels[i]}: cyclic submodule "
                f"{{{','.join(E.format_mask(cyclic))}}} differs from the summand"
            ), None
    return PASS, None, None


def _r22(ctx):
    E = ctx.E
    if E.moduli is not None and len(E.moduli) != 1:
        return VACUOUS, None, "not a cyclic module"
    if not ctx.ann_prime:
        return VACUOUS, None, "annihilator is not prime"
    # a finite T0 space is its specialization order (Stong 1966), so equal
    # labeled orders are equal spaces
    residue_space = topology.build_space(modules.ring_cyclic(E.residue_ring))
    if (ctx.space.labels, ctx.space.up) == (residue_space.labels, residue_space.up):
        return VACUOUS, None, (
            "prime annihilator forces a field residue ring at this scale; "
            "both spaces are empty and compare equal vacuously"
        )
    return FAIL, (
        f"space with {ctx.n} points differs from the residue-ring divisor "
        f"space with {residue_space.n} points"
    ), None


@dataclass(frozen=True)
class RuleDef:
    rule_id: str
    anchors: str
    kind: str
    fn: object


RULES = {
    r.rule_id: r
    for r in (
        RuleDef("R1", "every space is T0", "module", _r1),
        RuleDef("R2", "T1 holds exactly for quasi second modules", "module", _r2),
        RuleDef(
            "R3",
            "quasi second, maximal images, discrete, metrizable, T2, T1 agree",
            "module",
            _r3,
        ),
        RuleDef(
            "R4",
            "for multiplication modules: uniserial equals nested",
            "module",
            _r4,
        ),
        RuleDef(
            "R5",
            "common-upper-bound criterion equals hyperconnectedness",
            "module",
            _r5,
        ),
        RuleDef(
            "R6",
            "isolated point, singleton basis set and maximal image agree",
            "module",
            _r6,
        ),
        RuleDef(
            "R7",
            "order formulas for closure and interior match the oracle",
            "module",
            _r7,
        ),
        RuleDef("R8", "every open dense set contains the maximal classes", "module", _r8),
        RuleDef(
            "R9",
            "quasi second forces second images; converse under semiprime annihilator",
            "module",
            _r9,
        ),
        RuleDef(
            "R10",
            "class image annihilators are maximal in quasi second modules",
            "module",
            _r10,
        ),
        RuleDef(
            "R11",
            "comultiplication: quasi second, second images, maximal annihilators agree",
            "module",
            _r11,
        ),
        RuleDef(
            "R12",
            "comultiplication + semiprime: quasi second equals simple-or-split",
            "module",
            _r12,
        ),
        RuleDef(
            "R13",
            "comultiplication + semiprime: T1 equals empty or two-point discrete",
            "module",
            _r13,
        ),
        RuleDef(
            "R14",
            "brute-force quasi second ring test equals the structural classification",
            "ring",
            _r14,
        ),
        RuleDef("R15", "idealizations of fields are quasi second rings", "ring", _r15),
        RuleDef(
            "R16",
            "quasi second passes to submodules, quotients and direct summands",
            "module",
            _r16,
        ),
        RuleDef("R17", "closed basis sets equal definitional T3", "module", _r17),
        RuleDef(
            "R18",
            "prime annihilator forces ultraconnected and T4",
            "module",
            _r18,
        ),
        RuleDef("R19", "two-summand quasi second reduction", "module", _r19),
        RuleDef(
            "R20",
            "divisibility monotonicity and gcd/lcm basis identities over the integers",
            "module",
            _r20,
        ),
        RuleDef(
            "R21",
            "residue class enumeration matches direct scalar sampling",
            "module",
            _r21,
        ),
        RuleDef(
            "R22",
            "cyclic module with prime annihilator matches the residue-ring divisor space",
            "module",
            _r22,
        ),
    )
}

RULE_IDS = tuple(RULES)


class TheoremReport:
    def __init__(self, corpus, rule_ids, outcomes):
        self.corpus_size = len(corpus)
        digest = hashlib.sha256()
        for inst in corpus:
            digest.update(f"{inst.kind}:{inst.spec_text}\n".encode())
        self.fingerprint = digest.hexdigest()
        self.rule_ids = tuple(rule_ids)
        self.outcomes = tuple(outcomes)

    def tallies(self):
        out = {rid: {PASS: 0, FAIL: 0, VACUOUS: 0} for rid in self.rule_ids}
        for o in self.outcomes:
            out[o.rule_id][o.verdict] += 1
        return out

    def failures(self, rule_id=None):
        return [
            o
            for o in self.outcomes
            if o.verdict == FAIL and (rule_id is None or o.rule_id == rule_id)
        ]

    @property
    def total_failures(self):
        return len(self.failures())

    def payload(self):
        tallies = self.tallies()
        rules_out = []
        for rid in self.rule_ids:
            t = tallies[rid]
            rules_out.append(
                {
                    "rule_id": rid,
                    "anchors": RULES[rid].anchors,
                    "pass": t[PASS],
                    "fail": t[FAIL],
                    "vacuous": t[VACUOUS],
                    "failures": [
                        {"instance": o.instance, "witness": o.witness}
                        for o in self.failures(rid)
                    ],
                }
            )
        return {
            "corpus_size": self.corpus_size,
            "fingerprint": self.fingerprint,
            "rules": rules_out,
            "total_failures": self.total_failures,
        }


def _evaluate(rule: RuleDef, ctx) -> RuleOutcome:
    if rule.kind != ctx.kind:
        return RuleOutcome(
            rule.rule_id,
            ctx.instance.spec_text,
            VACUOUS,
            note=f"rule applies to {rule.kind} instances",
        )
    try:
        verdict, witness, note = rule.fn(ctx)
    except modules.SizeCapExceeded as exc:
        return RuleOutcome(
            rule.rule_id, ctx.instance.spec_text, VACUOUS, note=f"size cap: {exc}"
        )
    except Exception as exc:
        # a fault in the library that raises fails the rule, as a wrong
        # verdict would, instead of stopping the run
        verdict, witness, note = FAIL, f"{type(exc).__name__}: {exc}", None
    return RuleOutcome(rule.rule_id, ctx.instance.spec_text, verdict, witness, note)


def run_rule(rule_id: str, instance: Instance) -> RuleOutcome:
    if rule_id not in RULES:
        raise ValueError(f"unknown rule id {rule_id!r}")
    return _evaluate(RULES[rule_id], _ModuleCtx(instance))


def run_all(corpus=None, rule_ids=None) -> TheoremReport:
    """Evaluate the rule suite over a corpus (a CorpusSpec, an instance
    list, or the default corpus) and return the deterministic report.  A
    rule id given twice runs once, at its first place; no ids is an
    error."""
    if corpus is None:
        corpus = generate_corpus(DEFAULT_CORPUS)
    elif isinstance(corpus, CorpusSpec):
        corpus = generate_corpus(corpus)
    if rule_ids is None:
        rule_ids = RULE_IDS
    else:
        rule_ids = tuple(dict.fromkeys(rule_ids))
        if not rule_ids:
            raise ValueError("no rule ids given")
        for rid in rule_ids:
            if rid not in RULES:
                raise ValueError(f"unknown rule id {rid!r}")
    outcomes = []
    for instance in corpus:
        ctx = _ModuleCtx(instance)
        for rid in rule_ids:
            outcomes.append(_evaluate(RULES[rid], ctx))
    return TheoremReport(corpus, rule_ids, outcomes)
