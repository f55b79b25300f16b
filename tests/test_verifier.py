import itertools
import json
import math
import random
import time
from types import SimpleNamespace

import pytest

from qdivtop import cli, modules, oracle, rings, scalars, topology, verifier
from qdivtop.verifier import (
    FAIL,
    PASS,
    VACUOUS,
    CorpusSpec,
    Instance,
    RuleOutcome,
    RULE_IDS,
    RULES,
    generate_corpus,
    run_all,
    run_rule,
)
from common import CAP_LADDER_RINGS, mutated_qs_finder

SMALL_CORPUS = [
    Instance("module", s)
    for s in [
        "Z:4", "Z:5", "Z:6", "Z:8", "Z:12", "Z:2,4", "Z:6,6",
        "F2[x]:x^2", "F2[x]:x^3", "ring:Trunc(2,3)", "ring:Prod(Zn(2),Zn(3))",
    ]
] + [Instance("ring", s) for s in ["Zn(4)", "Zn(6)", "Zn(8)", "Ideal(Zn(2),2)", "Ideal(Zn(4),1)"]]


def test_corpus_membership():
    corpus = generate_corpus()
    texts = {i.spec_text for i in corpus if i.kind == "module"}
    for expected in ["Z:6", "Z:8", "Z:2,4", "F2[x]:x^2", "F2[x]:x^3", "F2[x]:x^2+x"]:
        assert expected in texts
    ring_texts = {i.spec_text for i in corpus if i.kind == "ring"}
    for expected in [
        "Zn(4)", "Zn(6)", "Zn(8)", "Zn(64)",
        "Trunc(2,1)", "Trunc(2,2)", "Trunc(2,3)",
        "Ideal(Zn(2),1)", "Ideal(Zn(2),2)",
        "Prod(Zn(2),Zn(3))", "Prod(GF(2,x^2+x+1),GF(2,x^2+x+1))",
    ]:
        assert expected in ring_texts
    # every ring also appears as a cyclic module
    assert all(f"ring:{r}" in texts for r in ring_texts)
    # bounds respected
    assert all(
        not t.startswith("Z:") or eval_size(t) <= 81 for t in texts
    )


def eval_size(text):
    mods = text.split(":", 1)[1].split(",")
    size = 1
    for m in mods:
        size *= int(m)
    return size


def test_corpus_respects_caps():
    # the element cap bounds the catalog rings too, at min(element_cap, 64)
    small = CorpusSpec(max_summands=2, element_cap=4, poly_max_degree=1)
    corpus = generate_corpus(small)
    texts = [i.spec_text for i in corpus]
    assert "Z:2,2" in texts and "Z:2,3" not in texts
    assert "Zn(4)" in texts and "Zn(5)" not in texts


def test_corpus_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(max_summands=0)


def test_summands_past_log2_of_the_element_cap_add_nothing():
    # k summands have at least 2^k elements: at the cap of 81, k stops at 6
    start = time.perf_counter()
    twenty = generate_corpus(CorpusSpec(max_summands=20))
    assert time.perf_counter() - start < 5
    assert twenty == generate_corpus(CorpusSpec(max_summands=6))


def test_rule_examples():
    assert run_rule("R2", Instance("module", "Z:8")).verdict == PASS
    assert run_rule("R2", Instance("module", "Z:4")).verdict == PASS
    assert run_rule("R14", Instance("ring", "Zn(6)")).verdict == PASS
    assert run_rule("R15", Instance("ring", "Ideal(Zn(2),2)")).verdict == PASS
    assert run_rule("R15", Instance("ring", "Ideal(Zn(4),1)")).verdict == VACUOUS
    # Trunc(p,k) is built as Ideal(Zn(p),k), but R15 reads it as before
    for spec in ("Trunc(2,1)", "Trunc(2,3)", "Trunc(2,7)", "Trunc(3,2)"):
        outcome = run_rule("R15", Instance("ring", spec))
        assert (outcome.verdict, outcome.note) == (VACUOUS, "not an idealization"), spec
    assert run_rule("R14", Instance("module", "Z:8")).verdict == VACUOUS
    assert run_rule("R4", Instance("module", "Z:2,4")).verdict == VACUOUS
    assert run_rule("R18", Instance("module", "Z:2,2")).verdict == VACUOUS
    assert run_rule("R22", Instance("module", "Z:7")).verdict == VACUOUS
    assert run_rule("R19", Instance("module", "Z:6,6")).verdict == PASS
    assert run_rule("R20", Instance("module", "F2[x]:x^3")).verdict == VACUOUS


def test_r14_r15_on_the_ring_cap_ladder():
    # the module quasi-second search against the classification at the cap:
    # square-zero on the maximal ideal's generators takes 0.01-0.06 s a
    # ring, and on every pair of it 5.6 s for Trunc(2,11).  GF(3,x^7+x+1)
    # is a product of fields of 3 and 729 elements, each tested through
    # the units of the ring: a search for inverses in the larger took 0.75 s
    for spec in CAP_LADDER_RINGS + ("GF(3,x^7+x+1)",):
        start = time.perf_counter()
        r14, r15 = (run_rule(r, Instance("ring", spec)).verdict for r in ("R14", "R15"))
        assert (r14, r15 != FAIL) == (PASS, True), spec
        assert time.perf_counter() - start < 10, spec


def test_unknown_rule():
    with pytest.raises(ValueError):
        run_rule("R99", Instance("module", "Z:8"))
    with pytest.raises(ValueError):
        run_all(SMALL_CORPUS, rule_ids=["R1", "R99"])


def test_outcome_invariant():
    with pytest.raises(ValueError):
        RuleOutcome("R1", "Z:8", FAIL, witness=None)


def test_small_corpus_all_pass():
    report = run_all(SMALL_CORPUS)
    assert report.total_failures == 0
    tallies = report.tallies()
    assert set(tallies) == set(RULE_IDS)
    for rid in RULE_IDS:
        total = sum(tallies[rid].values())
        assert total == len(SMALL_CORPUS)


def test_report_determinism():
    r1 = run_all(SMALL_CORPUS)
    r2 = run_all(SMALL_CORPUS)
    assert json.dumps(r1.payload()) == json.dumps(r2.payload())
    assert r1.fingerprint == r2.fingerprint
    r3 = run_all(SMALL_CORPUS[:-1])
    assert r3.fingerprint != r1.fingerprint


def test_rule_subset():
    report = run_all(SMALL_CORPUS, rule_ids=["R2", "R14"])
    payload = report.payload()
    assert [r["rule_id"] for r in payload["rules"]] == ["R2", "R14"]
    assert all(
        sum((r["pass"], r["fail"], r["vacuous"])) == len(SMALL_CORPUS)
        for r in payload["rules"]
    )


def test_empty_corpus_is_all_vacuous():
    spec = CorpusSpec(int_modulus_max=2, max_summands=1,
                      element_cap=1, poly_max_degree=1)
    corpus = generate_corpus(spec)
    assert corpus == []
    report = run_all(corpus)
    assert report.total_failures == 0
    assert all(
        t == {PASS: 0, FAIL: 0, VACUOUS: 0} for t in report.tallies().values()
    )


def test_mutated_predicate_fails_r2_with_z4_witness(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(verifier, "QS_VIOLATION_FINDER", mutated_qs_finder)
        report = run_all(SMALL_CORPUS, rule_ids=["R2"])
    failing = {o.instance for o in report.failures()}
    assert "Z:4" in failing
    witness = next(o.witness for o in report.failures() if o.instance == "Z:4")
    assert "T1=True" in witness and "quasi_second=False" in witness
    pristine = run_all(SMALL_CORPUS, rule_ids=["R2"])
    assert pristine.total_failures == 0


def test_r14_failure_names_the_ring_witness(monkeypatch):
    # no corpus ring fails R14, so force a disagreement on Zn(8)
    monkeypatch.setattr(
        rings, "classify_quasi_second_ring", lambda ring: rings.QS_LOCAL_SQUARE_ZERO
    )
    outcome = run_rule("R14", Instance("ring", "Zn(8)"))
    assert outcome.verdict == FAIL
    assert outcome.witness == (
        "brute=False classification=LocalSquareZeroMax; "
        "witness a=2 b=4 (a)={0,2,4,6} (b)={0,4}"
    )


def test_r1_names_two_basis_sets_when_the_family_is_not_a_topology():
    # R1 reads the alexandrov axiom before T0, on fake spaces: the unions of
    # the basis sets are not closed under intersection, or miss a point
    def r1(up):
        n = len(up)
        labels = [f"p{i}" for i in range(n)]
        space = SimpleNamespace(
            n=n, up=up, full=(1 << n) - 1, labels=labels,
            label_set=lambda mask: [labels[i] for i in modules._bits(mask)],
        )
        topo = oracle.enumerate_open_sets(space)
        ctx = SimpleNamespace(
            n=n, space=space, topo=topo, sep=SimpleNamespace(t0=True),
            axiom=lambda a: oracle.oracle_axiom(topo, a),
        )
        return verifier._r1(ctx)

    assert r1((0b011, 0b110, 0b110)) == (
        FAIL,
        "not a topology: the basis sets of p0 and p1 meet in ['p1'], which is not open",
        None,
    )
    assert r1((0b01, 0b01)) == (FAIL, "not a topology: the basis sets miss a point", None)
    assert r1((0b01, 0b11)) == (PASS, None, None)


def test_r16_failure_names_the_submodule_witness(monkeypatch):
    # no fault tried makes R16 fail on a submodule of a corpus module, so
    # inject a finder that passes Z:4 and its quotients but reports a
    # violation on its submodule {0,2}
    def finder(E):
        if isinstance(E, modules.Submodule) and E.zero_mask == E.module.zero_mask:
            if E.element_strs() == ["0", "2"]:
                return {"a": "2", "b": "0", "aE": [], "bE": []}
        return modules.find_quasi_second_violation(E)

    monkeypatch.setattr(verifier, "QS_VIOLATION_FINDER", finder)
    outcome = run_rule("R16", Instance("module", "Z:4"))
    assert (outcome.verdict, outcome.witness) == (
        FAIL,
        "submodule {0,2} is not quasi second: a=2 b=0",
    )


def test_payload_shape():
    payload = run_all(SMALL_CORPUS, rule_ids=["R2"]).payload()
    assert list(payload) == ["corpus_size", "fingerprint", "rules", "total_failures"]
    entry = payload["rules"][0]
    assert list(entry) == ["rule_id", "anchors", "pass", "fail", "vacuous", "failures"]


def test_vacuous_notes_for_r18_r22():
    outcome = run_rule("R18", Instance("module", "Z:3,3"))
    assert outcome.verdict == VACUOUS
    assert "empty spaces" in outcome.note
    outcome22 = run_rule("R22", Instance("module", "Z:5"))
    assert outcome22.verdict == VACUOUS
    assert "vacuous" in outcome22.note


def test_r22_fails_when_the_residue_ring_space_differs(monkeypatch):
    # no corpus instance reaches R22's failure branch, so plant the module of
    # a non-field, Zn(4), in place of the residue ring Zn(5) of Z:5
    ring_cyclic = modules.ring_cyclic
    monkeypatch.setattr(
        modules, "ring_cyclic", lambda ring: ring_cyclic(rings.build_ring("Zn(4)"))
    )
    outcome = run_rule("R22", Instance("module", "Z:5"))
    assert (outcome.verdict, outcome.witness) == (
        FAIL,
        "space with 0 points differs from the residue-ring divisor space "
        "with 1 points",
    )


def test_r16_uses_the_injected_predicate(monkeypatch):
    # under the broken predicate Z:4 itself tests non-quasi-second, so the
    # rule's hypothesis fails and it reports vacuous instead of passing
    with monkeypatch.context() as m:
        m.setattr(verifier, "QS_VIOLATION_FINDER", mutated_qs_finder)
        report = run_all([Instance("module", "Z:4")], rule_ids=["R16"])
    assert report.tallies()["R16"][VACUOUS] == 1
    pristine = run_all([Instance("module", "Z:4")], rule_ids=["R16"])
    assert pristine.tallies()["R16"][PASS] == 1


def test_r10_r11_r16_r19_build_no_derived_module(monkeypatch):
    # annihilators are decided on the residue ring itself (R10, R11), and N,
    # E/N (R16) and the summands of a direct sum (R19) are read through the
    # instance module's own action: the only module built is the instance's
    built = []
    module_init = modules.FiniteModule.__init__

    def recording_module_init(self, **kwargs):
        built.append(kwargs["spec_text"])
        module_init(self, **kwargs)

    monkeypatch.setattr(modules.FiniteModule, "__init__", recording_module_init)
    corpus = [i for i in generate_corpus() if i.kind == "module"]
    report = run_all(corpus, rule_ids=["R10", "R11", "R16", "R19"])
    assert built == [i.spec_text for i in corpus]
    tallies = report.tallies()
    assert [tallies[r][PASS] for r in ("R10", "R11", "R16", "R19")] == [
        117, 201, 153, 13
    ]
    assert tallies["R19"] == {PASS: 13, FAIL: 0, VACUOUS: 264}


def test_r19_summand_views_match_the_summand_modules():
    # each summand view of a two-summand sum against the summand A/(d_k)
    # built as a module of its own: class-set membership and image
    # annihilator for every residue, and the quasi second verdict
    modules_checked = annihilators = 0
    for inst in generate_corpus():
        if inst.kind != "module":
            continue
        E = modules.build_module(inst.spec_text)
        if E.moduli is None or len(E.moduli) != 2:
            continue
        views = verifier._summand_views(E)
        alone = [modules.cyclic_sum(E.domain, (d,)) for d in E.moduli]
        for view, S in zip(views, alone):
            assert view.full_mask.bit_count() == S.order, inst.spec_text
            assert (modules.find_quasi_second_violation(view) is None) == (
                modules.is_quasi_second(S)
            ), inst.spec_text
        for i, r in enumerate(E.residue_ring.elements):
            for (mask, inside), S in zip(verifier._summand_images(views, i), alone):
                s_ring = S.residue_ring
                s_mask = S.image_mask(s_ring.index(s_ring.reduce(r)))
                assert inside == (s_mask not in (S.zero_mask, S.full_mask)), (
                    inst.spec_text, r
                )
                assert mask.bit_count() == s_mask.bit_count(), (inst.spec_text, r)
                via_view = modules.submodule_annihilator(
                    modules.Submodule._trusted(E, mask)
                )
                via_alone = modules.submodule_annihilator(
                    modules.Submodule._trusted(S, s_mask)
                )
                assert via_view == via_alone, (inst.spec_text, r)
                annihilators += 1
        modules_checked += 1
    assert modules_checked == 141
    assert annihilators == 6364


def always_violated(E):
    return {"a": "?", "b": "?", "aE": [], "bE": []}


def test_r19_reads_the_injected_predicate_on_the_summands(monkeypatch):
    # both sides of the reduction read the hook: a predicate that rejects
    # every module leaves them agreeing, and one that rejects only the
    # summand views makes R19 fail on Z:6,6
    monkeypatch.setattr(verifier, "QS_VIOLATION_FINDER", always_violated)
    outcome = run_rule("R19", Instance("module", "Z:6,6"))
    assert outcome.verdict == PASS

    def summands_violated(E):
        if isinstance(E, modules.Submodule):
            return always_violated(E)
        return modules.find_quasi_second_violation(E)

    monkeypatch.setattr(verifier, "QS_VIOLATION_FINDER", summands_violated)
    outcome = run_rule("R19", Instance("module", "Z:6,6"))
    assert outcome.verdict == FAIL
    assert outcome.witness == "quasi_second=True but summand condition=False"


# spaces of 16-18 points, past the old 14-point oracle cap, whose open sets
# fit the open-set cap: the oracle decides every axiom-reading rule
WIDE_SLICE = ["Z:180", "Z:240", "Z:288", "F2[x]:x^3+x^2+x+1,x^4"]
ORACLE_RULES = ("R1", "R2", "R3", "R5", "R6", "R7", "R8", "R17")


@pytest.mark.parametrize("error", [rings.RingError, OverflowError])
def test_a_rule_that_raises_fails_with_the_exception_as_witness(monkeypatch, capsys, error):
    # a RingError is a ValueError, which the CLI reads as a usage error
    # (exit 2), and an OverflowError would end the run in a traceback; both
    # fail the rule instead, and verify exits 1
    def planted(space):
        raise error("planted")

    monkeypatch.setattr(topology, "separation_report", planted)
    outcome = run_rule("R17", Instance("module", "Z:8"))
    assert (outcome.verdict, outcome.witness) == (FAIL, f"{error.__name__}: planted")
    assert cli.main(["verify", "--rules", "R17", "--max-order", "8"]) == 1
    assert "verify: FAILURES" in capsys.readouterr().err


def test_wide_slice_is_checked_by_the_oracle():
    corpus = [Instance("module", s) for s in WIDE_SLICE]
    report = run_all(corpus)
    assert report.total_failures == 0
    for o in report.outcomes:
        if o.rule_id in ORACLE_RULES:
            assert o.verdict == PASS, (o.rule_id, o.instance, o.note)


def test_past_the_open_set_cap_oracle_rules_are_vacuous(monkeypatch):
    # ring:Trunc(2,4) is a 15-point antichain with 2^15 open sets
    calls = []
    enumerate_open_sets = verifier.oracle.enumerate_open_sets

    def counting(space):
        calls.append(space.n)
        return enumerate_open_sets(space)

    monkeypatch.setattr(verifier.oracle, "enumerate_open_sets", counting)
    report = run_all([Instance("module", "ring:Trunc(2,4)")])
    assert calls == [15]
    assert report.total_failures == 0
    for o in report.outcomes:
        if o.rule_id in ORACLE_RULES:
            assert o.verdict == VACUOUS, o.rule_id
            assert o.note.startswith("size cap: open-set enumeration"), o.rule_id


def per_pair_r20(ctx):
    """R20's three checks on every ordered pair of class residues, the lcm
    sweep included: the definition the once-per-class-triple sweep must
    reproduce, witness and all."""
    space, n = ctx.space, ctx.E.residue_ring.n
    class_of = {m: k for k, c in enumerate(ctx.classes) for m in c.members}
    ups = space.up
    for a in sorted(class_of):
        ua = ups[class_of[a]]
        for b in sorted(class_of):
            ub = ups[class_of[b]]
            if b % a == 0 and (ua & ~ub):
                return FAIL, f"{a} divides {b} but U_{a} is not inside U_{b}"
            g = math.gcd(a, b)
            if g % n in class_of and ups[class_of[g % n]] != (ua & ub):
                return FAIL, (
                    f"U_gcd({a},{b}) != U_{a} & U_{b}: "
                    f"{space.label_set(ups[class_of[g % n]])} vs "
                    f"{space.label_set(ua & ub)}"
                )
            lr = (a * b // g) % n
            if lr in class_of:
                ul = ups[class_of[lr]]
                for i in range(space.n):
                    uc = ups[i]
                    if not (uc & ~ua) and not (uc & ~ub) and (uc & ~ul):
                        return FAIL, (
                            f"U_{space.labels[i]} inside U_{a} and U_{b} "
                            f"but not inside U_lcm({a},{b})"
                        )
    return PASS, None


def planted_contexts(spec, rng, trials):
    """R20 contexts on the classes of spec with wrong orders planted: the
    space as it is, or with two of its points merged into one (classes and
    up-sets joined), and each time one to three bits of the up-sets flipped
    (ten times as many trials on the space as it is).  Merged classes make
    the lcm class depend on more than the classes of the pair."""
    ctx = verifier._ModuleCtx(Instance("module", spec))
    classes, space = ctx.classes, ctx.space
    n = space.n
    for merge in [None] + list(itertools.combinations(range(n), 2)):
        keep = [k for k in range(n) if merge is None or k != merge[1]]
        pos = {k: p for p, k in enumerate(keep)}
        if merge is not None:
            pos[merge[1]] = pos[merge[0]]
        members = [() for _ in keep]
        ups = [0] * len(keep)
        for k in range(n):
            members[pos[k]] += classes[k].members
            for q in modules._bits(space.up[k]):
                ups[pos[k]] |= 1 << pos[q]
        labels = [space.labels[k] for k in keep]
        for _ in range(trials if merge is not None else 10 * trials):
            up = list(ups)
            for _ in range(rng.randint(1, 3)):
                k, q = rng.sample(range(len(up)), 2)
                up[k] ^= 1 << q
            planted = SimpleNamespace(
                up=tuple(up),
                n=len(up),
                labels=labels,
                label_set=lambda m, ls=labels: [ls[q] for q in modules._bits(m)],
            )
            yield merge is not None, SimpleNamespace(
                E=ctx.E,
                classes=[SimpleNamespace(members=m) for m in members],
                space=planted,
                n=planted.n,
            )


def test_r20_matches_the_per_pair_sweep_on_planted_orders():
    # R20 runs its lcm sweep once per class triple; on every planted order
    # it must fail exactly where the per-pair sweep fails, with its witness
    rng = random.Random(20)
    lcm_witnesses = {False: 0, True: 0}
    for spec in ("Z:12", "Z:36", "Z:2,12"):
        for merged, ctx in planted_contexts(spec, rng, 30):
            expected = per_pair_r20(ctx)
            assert RULES["R20"].fn(ctx)[:2] == expected, (spec, ctx.space.up)
            lcm_witnesses[merged] += "U_lcm" in (expected[1] or "")
    assert lcm_witnesses == {False: 19, True: 89}


# R21 builds each direct image as a span of a*g; every sample it draws is
# checked here against the literal {a*x mod d : x in A/(d)} over every x
R21_EXTRA = [
    "Z:64,64", "F2[x]:x^8", "F3[x]:x^5", "F3[x]:x^2+1,x^3", "F5[x]:x^2,x+1",
]


def literal_image_mask(E, a, literal):
    """The mask of the product over the summands of {a*x mod d}. a*x and
    a'*x agree mod d when a and a' do, so each set is built once per residue
    of a mod d, with the first sample a that has that residue."""
    sets = []
    for m in E.moduli:
        d = m.value
        if E.domain.kind == "int":
            key = (d, a % d)
            if key not in literal:
                literal[key] = {a * x % d for x in range(d)}
        else:
            p = E.domain.char
            key = (d, scalars.pdivmod(a, d, p)[1])
            if key not in literal:
                literal[key] = {
                    scalars.pdivmod(scalars.pmul(a, x, p), d, p)[1]
                    for x in itertools.product(range(p), repeat=scalars.pdeg(d))
                }
        sets.append(literal[key])
    mask = 0
    for val in itertools.product(*sets):
        mask |= 1 << E.elem_index(val)
    return mask


def test_r21_direct_images_match_the_literal_definition(monkeypatch):
    modules_seen, drawn, summands = [], [], []
    span_built = verifier._direct_image

    def recording(E):
        modules_seen.append(E)
        image, summand = span_built(E)

        def record(a):
            drawn.append((a, image(a)))
            return drawn[-1][1]

        def record_summand(k):
            summands.append((k, summand(k)))
            return summands[-1][1]

        return record, record_summand

    monkeypatch.setattr(verifier, "_direct_image", recording)
    specs = [i.spec_text for i in generate_corpus() if i.kind == "module"] + R21_EXTRA
    checked = 0
    for spec in specs:
        modules_seen.clear()
        drawn.clear()
        summands.clear()
        outcome = run_rule("R21", Instance("module", spec))
        if outcome.verdict == VACUOUS:
            assert spec.startswith("ring:") and not modules_seen, spec
            continue
        assert outcome.verdict == PASS, spec
        [E], literal = modules_seen, {}
        assert drawn, spec
        for a, mask in drawn:
            assert mask == literal_image_mask(E, a, literal), (spec, a)
        # the k-th summand: every element whose other coordinates are zero
        zero = E.elements[E.zero]
        assert [k for k, _ in summands] == list(range(len(E.moduli))), spec
        for k, mask in summands:
            inside = [x for x in E.elements if x[:k] + x[k + 1 :] == zero[:k] + zero[k + 1 :]]
            assert mask == sum(1 << E.elem_index(x) for x in inside), (spec, k)
        checked += 1
    assert checked == 163 + len(R21_EXTRA)
