import json

import pytest

from qdivtop import modules, verifier
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

SMALL_CORPUS = [
    Instance("module", s)
    for s in [
        "Z:4", "Z:5", "Z:6", "Z:8", "Z:12", "Z:2,4", "Z:6,6",
        "F2[x]:x^2", "F2[x]:x^3", "ring:Trunc(2,3)", "ring:Prod(Zn(2),Zn(3))",
    ]
] + [Instance("ring", s) for s in ["Zn(4)", "Zn(6)", "Zn(8)", "Ideal(Zn(2),2)", "Ideal(Zn(4),1)"]]


def mutated_qs_finder(E):
    # the deliberately broken predicate: the aE != E guard is missing
    ring = E.residue_ring
    zmask = E.zero_mask
    for ra in ring.elements:
        ma = E.image_mask(ra)
        for rb in ring.elements:
            mb = E.image_mask(rb)
            if mb == zmask or mb & ~ma:
                continue
            if mb != ma:
                return {
                    "a": ring.format_element(ra),
                    "b": ring.format_element(rb),
                    "aE": E.format_mask(ma),
                    "bE": E.format_mask(mb),
                }
    return None


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
    small = CorpusSpec(int_modulus_max=3, max_summands=1, element_cap=3,
                       ring_order_cap=4, poly_max_degree=1)
    corpus = generate_corpus(small)
    texts = [i.spec_text for i in corpus]
    assert "Z:2" in texts and "Z:3" in texts and "Z:4" not in texts
    assert "Zn(4)" in texts and "Zn(5)" not in texts


def test_corpus_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(max_summands=0)
    with pytest.raises(ValueError):
        CorpusSpec(poly_char=6)


def test_rule_examples():
    assert run_rule("R2", Instance("module", "Z:8")).verdict == PASS
    assert run_rule("R2", Instance("module", "Z:4")).verdict == PASS
    assert run_rule("R14", Instance("ring", "Zn(6)")).verdict == PASS
    assert run_rule("R15", Instance("ring", "Ideal(Zn(2),2)")).verdict == PASS
    assert run_rule("R15", Instance("ring", "Ideal(Zn(4),1)")).verdict == VACUOUS
    assert run_rule("R14", Instance("module", "Z:8")).verdict == VACUOUS
    assert run_rule("R4", Instance("module", "Z:2,4")).verdict == VACUOUS
    assert run_rule("R18", Instance("module", "Z:2,2")).verdict == VACUOUS
    assert run_rule("R22", Instance("module", "Z:7")).verdict == VACUOUS
    assert run_rule("R19", Instance("module", "Z:6,6")).verdict == PASS
    assert run_rule("R20", Instance("module", "F2[x]:x^3")).verdict == VACUOUS


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
    spec = CorpusSpec(int_modulus_min=2, int_modulus_max=2, max_summands=1,
                      element_cap=1, ring_order_cap=1, poly_max_degree=1)
    corpus = generate_corpus(spec)
    assert corpus == []
    report = run_all(corpus)
    assert report.total_failures == 0
    assert all(
        t == {PASS: 0, FAIL: 0, VACUOUS: 0} for t in report.tallies().values()
    )


def test_mutated_predicate_fails_r2_with_z4_witness():
    report = run_all(SMALL_CORPUS, rule_ids=["R2"], qs_finder=mutated_qs_finder)
    failing = {o.instance for o in report.failures()}
    assert "Z:4" in failing
    witness = next(o.witness for o in report.failures() if o.instance == "Z:4")
    assert "T1=True" in witness and "quasi_second=False" in witness
    pristine = run_all(SMALL_CORPUS, rule_ids=["R2"])
    assert pristine.total_failures == 0


def test_monkeypatched_hook_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(verifier, "QS_VIOLATION_FINDER", mutated_qs_finder)
    outcome = run_rule("R2", Instance("module", "Z:4"))
    assert outcome.verdict == FAIL
    assert "Z:4" == outcome.instance


def test_r14_failure_names_the_ring_witness(monkeypatch):
    # no corpus ring fails R14, so force a disagreement on Zn(8)
    from qdivtop import rings

    monkeypatch.setattr(
        rings, "classify_quasi_second_ring", lambda ring: rings.QS_LOCAL_SQUARE_ZERO
    )
    outcome = run_rule("R14", Instance("ring", "Zn(8)"))
    assert outcome.verdict == FAIL
    assert outcome.witness == (
        "brute=False classification=LocalSquareZeroMax; "
        "witness a=2 b=4 (a)={0,2,4,6} (b)={0,4}"
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


def test_r16_uses_the_injected_predicate():
    # under the broken predicate Z:4 itself tests non-quasi-second, so the
    # rule's hypothesis fails and it reports vacuous instead of passing
    report = run_all(
        [Instance("module", "Z:4")], rule_ids=["R16"], qs_finder=mutated_qs_finder
    )
    assert report.tallies()["R16"][VACUOUS] == 1
    pristine = run_all([Instance("module", "Z:4")], rule_ids=["R16"])
    assert pristine.tallies()["R16"][PASS] == 1


# spaces of 16-18 points, past the old 14-point oracle cap, whose open sets
# fit the open-set cap: the oracle decides every axiom-reading rule
WIDE_SLICE = ["Z:180", "Z:240", "Z:288", "F2[x]:x^3+x^2+x+1,x^4"]
ORACLE_RULES = ("R1", "R2", "R3", "R5", "R6", "R7", "R8", "R17")


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
