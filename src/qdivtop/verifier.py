"""Corpus generation and the executable rule suite.

Each rule states one verifiable law tying module algebra, the
order-theoretic predicates and the enumerated-topology oracle together.
Rules run per corpus instance and return pass, fail (with a re-checkable
witness) or vacuous; an instance that does not satisfy a rule's hypothesis
is counted vacuous, never silently passed.  Reports are deterministic:
fixed iteration orders, no randomness, and a corpus fingerprint.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

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
    catalog holds Trunc(2,k) for k <= 3 and Ideal(Zn(2),d) for d <= 2."""

    int_modulus_max: int = 9
    max_summands: int = 2
    element_cap: int = 81
    poly_max_degree: int = 3
    ring_order_cap: int = 64

    def __post_init__(self):
        if self.max_summands < 1 or self.element_cap < 1:
            raise ValueError("corpus caps must be positive")


DEFAULT_CORPUS = CorpusSpec()

MAX_INSTANCES = 100_000


@dataclass(frozen=True)
class Instance:
    kind: str  # "module" | "ring"
    spec_text: str


@dataclass(frozen=True)
class RuleOutcome:
    rule_id: str
    instance: str
    verdict: str
    witness: str | None = None
    note: str | None = None

    def __post_init__(self):
        if self.verdict == FAIL and not self.witness:
            raise ValueError("a failing outcome needs a witness")


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
    specs = [f"Zn({n})" for n in range(2, cs.ring_order_cap + 1)]
    for k in range(1, 4):
        if 2 ** (k + 1) <= cs.ring_order_cap:
            specs.append(f"Trunc(2,{k})")
    for d in range(1, 3):
        if 2 ** (d + 1) <= cs.ring_order_cap:
            specs.append(f"Ideal(Zn(2),{d})")
    fields = _field_specs(cs.ring_order_cap)
    for i, (q1, s1) in enumerate(fields):
        for q2, s2 in fields[i:]:
            if q1 * q2 <= cs.ring_order_cap:
                specs.append(f"Prod({s1},{s2})")
    return specs


def generate_corpus(cs: CorpusSpec = DEFAULT_CORPUS) -> list:
    """Deterministic instance list: integer cyclic sums, their F_2[x]
    analogues (single moduli and pairwise direct sums within the element
    cap), and every catalog ring both as a ring and as a cyclic module."""
    out = []
    mods = range(2, cs.int_modulus_max + 1)
    for k in range(1, cs.max_summands + 1):
        for combo in itertools.combinations_with_replacement(mods, k):
            size = 1
            for m in combo:
                size *= m
            if size <= cs.element_cap:
                out.append(Instance("module", "Z:" + ",".join(map(str, combo))))

    p = 2
    polys = []
    for deg in range(1, cs.poly_max_degree + 1):
        polys.extend(scalars.monic_polys(p, deg))
    polys.sort(key=lambda c: (len(c), c))
    for k in range(1, cs.max_summands + 1):
        for combo in itertools.combinations_with_replacement(polys, k):
            size = 1
            for m in combo:
                size *= p ** scalars.pdeg(m)
            if size <= cs.element_cap:
                text = ",".join(scalars.format_poly(m) for m in combo)
                out.append(Instance("module", f"F{p}[x]:{text}"))

    ring_specs = catalog_ring_specs(cs)
    out.extend(Instance("ring", spec) for spec in ring_specs)
    out.extend(Instance("module", f"ring:{spec}") for spec in ring_specs)
    if len(out) > MAX_INSTANCES:
        raise ValueError(f"corpus of {len(out)} instances exceeds {MAX_INSTANCES}")
    return out


# -- per-instance evaluation contexts -----------------------------------


class _ModuleCtx:
    """One instance's lazily computed facts.  A ring instance R runs on the
    module ``ring:R``: R is quasi second exactly when it is as a module over
    itself, and R is the module's residue ring."""

    def __init__(self, instance: Instance, qs_finder):
        self.instance = instance
        self.kind = instance.kind
        self.qs_finder = qs_finder
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
        return self.qs_finder(self.E)

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
        return all(
            modules.is_second_submodule(self.E, c.image) for c in self.classes
        )

    @cached_property
    def classification(self):
        return rings.classify_quasi_second_ring(self.E.residue_ring)

    @cached_property
    def all_ann_maximal(self):
        return all(
            modules.submodule_annihilator(self.E, c.image)[1] for c in self.classes
        )

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
        for i in range(ctx.n):
            for j in range(ctx.n):
                if i != j and ctx.space.le(i, j):
                    witness += (
                        f"; comparable points {ctx.space.labels[i]} <= "
                        f"{ctx.space.labels[j]}"
                    )
                    break
            else:
                continue
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
    for mask in oracle.subset_sweep(space.n):
        if topology.closure(space, mask) != oracle.oracle_closure(topo, mask):
            return FAIL, f"closure formula differs on {space.label_set(mask)}", None
        if topology.interior(space, mask) != oracle.oracle_interior(topo, mask):
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
        bad = next(
            c for c in ctx.classes
            if not modules.is_second_submodule(ctx.E, c.image)
        )
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
    for c in ctx.classes:
        gen, maximal = modules.submodule_annihilator(ctx.E, c.image)
        if not maximal:
            return FAIL, (
                f"class {c.label}: annihilator of the image is not maximal "
                f"(generator {gen})"
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
        detail += f" at e={ctx.E.residue_ring.format_element(split.idempotent)}"
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
    if not isinstance(ring, rings.IdealizeRing):
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
    E = ctx.E
    # past the lattice cap enumerate_submodules raises SizeCapExceeded,
    # which _evaluate turns into a vacuous outcome
    for sub in modules.enumerate_submodules(E):
        v = ctx.qs_finder(modules.InducedAction(E, sub, quotient=False))
        if v is not None:
            return FAIL, (
                f"submodule {{{','.join(sub.element_strs())}}} is not quasi "
                f"second: a={v['a']} b={v['b']}"
            ), None
        v = ctx.qs_finder(modules.InducedAction(E, sub, quotient=True))
        if v is not None:
            return FAIL, (
                f"quotient by {{{','.join(sub.element_strs())}}} is not quasi "
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
    views = []
    for unit in ((one, zero), (zero, one)):
        N = modules.Submodule._trusted(E, E.cyclic_mask(E.elem_index(unit)))
        views.append(modules.InducedAction(E, N, quotient=False))
    return views


def _summand_images(views, r):
    """Per summand: the mask of r times it, and whether its class set holds r
    (the image is neither zero nor the whole summand)."""
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
    units = ring.units()

    for r in ring.elements:
        if r == ring.zero or r in units:
            continue
        mask = E.image_mask(r)
        if mask == E.zero_mask or mask == E.full_mask:
            continue
        if not all(inside for _, inside in _summand_images(views, r)):
            return VACUOUS, None, (
                "the direct sum has scalars outside both summand class sets"
            )

    lhs = ctx.qs
    rhs = all(ctx.qs_finder(view) is None for view in views)
    detail = None
    if rhs:
        for r in ring.elements:
            (m1, in1), (m2, in2) = _summand_images(views, r)
            if not (in1 and in2):
                continue
            (gen1, max1), (gen2, max2) = (
                modules.submodule_annihilator(E, modules.Submodule._trusted(E, m))
                for m in (m1, m2)
            )
            if gen1 != gen2 or not (max1 and max2):
                rhs = False
                detail = (
                    f"scalar {ring.format_element(r)}: annihilators "
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
    """a -> the mask of aE from the presentation alone. x -> a*x mod d is
    additive, so a(A/(d)) is spanned by the columns a*g mod d over the
    additive generators g of A/(d): 1 over Z; 1, t, ..., t^(deg d - 1) over
    F_p[x]. Column 0 is the full a reduced mod d. Column i+1 is t times
    column i mod d: a shift, then at most one subtraction of a multiple of
    the monic d. Spans are memoized only with two or more summands, where a
    summand's span recurs next to different spans of the others; the mask
    memo ends with one _r21 call."""
    moduli = [m.value for m in E.moduli]
    if E.domain.kind == "int":
        zero = 0

        def columns(a, d):
            return (a % d,)

        def add(x, y, d):
            return (x + y) % d

    else:
        p, zero = E.domain.char, ()

        def columns(a, d):
            col, top = scalars.pdivmod(a, d, p)[1], scalars.pdeg(d)
            cols = [col]
            for _ in range(top - 1):
                col = (0,) + col if col else ()
                if len(col) > top:
                    c = col[top]
                    col = scalars.ptrim(tuple((x - c * y) % p for x, y in zip(col, d)))
                cols.append(col)
            return tuple(cols)

        def add(x, y, d):
            return scalars.padd(x, y, p)

    def span(d, cols):
        out, members = [zero], {zero}
        for c in cols:
            if c in members:
                continue
            # appending while iterating closes the span under adding c
            for x in out:
                y = add(x, c, d)
                if y not in members:
                    members.add(y)
                    out.append(y)
        return out

    if len(moduli) > 1:
        span = cache(span)

    @cache
    def mask_of(key):
        # spans hold no repeats, so the sum of the bits is their union
        vals = itertools.product(*(span(d, c) for d, c in zip(moduli, key)))
        return sum(1 << E.elem_index(v) for v in vals)

    distinct = set(moduli)

    def image(a):
        cols = {d: columns(a, d) for d in distinct}
        return mask_of(tuple(cols[d] for d in moduli))

    return image


def _r21(ctx):
    E = ctx.E
    if E.moduli is None:
        return VACUOUS, None, "needs an explicit cyclic-sum presentation"
    ring = E.residue_ring
    units = ring.units()
    image = _direct_image(E)
    if E.domain.kind == "int":
        n = ring.n
        samples = [(a, a % n, image(a)) for a in range(-2 * n, 2 * n + 1)]
        fmt = str
    else:
        p = E.domain.char
        g = ring.modulus
        deg = scalars.pdeg(g)
        sample_polys = set()
        for length in range(deg + 3):
            for c in itertools.product(range(p), repeat=length):
                sample_polys.add(scalars.ptrim(c))
        for j in range(deg + 2, 2 * deg + 1):
            mono = (0,) * j + (1,)
            sample_polys.add(mono)
            sample_polys.add(scalars.padd(mono, (1,), p))
            shift = (0,) * (j - deg) + (1,)
            sample_polys.add(scalars.padd(scalars.pmul(g, shift, p), (1, 1), p))
        samples = [
            (a, scalars.pdivmod(a, g, p)[1], image(a))
            for a in sorted(sample_polys, key=lambda c: (len(c), c))
        ]
        fmt = scalars.format_poly
    for a, residue, direct_mask in samples:
        in_w_direct = direct_mask != E.zero_mask and direct_mask != E.full_mask
        in_w_residue = residue != ring.zero and residue not in units
        if in_w_direct != in_w_residue:
            return FAIL, (
                f"scalar {fmt(a)}: direct membership {in_w_direct} but "
                f"residue membership {in_w_residue}"
            ), None
        if direct_mask != E.image_mask(residue):
            return FAIL, (
                f"scalar {fmt(a)}: direct image "
                f"{{{','.join(E.format_mask(direct_mask))}}} differs from the "
                f"residue image"
            ), None
    return PASS, None, None


def _r22(ctx):
    E = ctx.E
    if E.moduli is not None and len(E.moduli) != 1:
        return VACUOUS, None, "not a cyclic module"
    if not ctx.ann_prime:
        return VACUOUS, None, "annihilator is not prime"
    residue_space = topology.build_space(modules.ring_cyclic(E.residue_ring))
    if topology.is_homeomorphic(ctx.space, residue_space):
        return VACUOUS, None, (
            "prime annihilator forces a field residue ring at this scale; "
            "both spaces are empty and compare homeomorphic vacuously"
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
    return RuleOutcome(rule.rule_id, ctx.instance.spec_text, verdict, witness, note)


def run_rule(rule_id: str, instance: Instance, qs_finder=None) -> RuleOutcome:
    if rule_id not in RULES:
        raise ValueError(f"unknown rule id {rule_id!r}")
    finder = qs_finder or QS_VIOLATION_FINDER
    return _evaluate(RULES[rule_id], _ModuleCtx(instance, finder))


def run_all(corpus=None, rule_ids=None, qs_finder=None) -> TheoremReport:
    """Evaluate the rule suite over a corpus (a CorpusSpec, an instance
    list, or the default corpus) and return the deterministic report."""
    if corpus is None:
        corpus = generate_corpus(DEFAULT_CORPUS)
    elif isinstance(corpus, CorpusSpec):
        corpus = generate_corpus(corpus)
    if rule_ids is None:
        rule_ids = RULE_IDS
    else:
        for rid in rule_ids:
            if rid not in RULES:
                raise ValueError(f"unknown rule id {rid!r}")
    finder = qs_finder or QS_VIOLATION_FINDER
    outcomes = []
    for instance in corpus:
        ctx = _ModuleCtx(instance, finder)
        for rid in rule_ids:
            outcomes.append(_evaluate(RULES[rid], ctx))
    return TheoremReport(corpus, rule_ids, outcomes)
