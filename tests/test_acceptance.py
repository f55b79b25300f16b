"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole-corpus criteria reuse module-scoped fixtures so the corpus
is generated and verified once.
"""

import hashlib
import json
import time

import pytest

from qdivtop import cli, modules, oracle, topology, verifier


def check(cid, ok, detail=""):
    print(f"[acceptance] {cid}: {'pass' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{cid} failed: {detail}"


@pytest.fixture(scope="module")
def default_corpus():
    return verifier.generate_corpus()


def analyze_payload(capsys, spec):
    code = cli.main(["analyze", spec])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out.partition("\n")[2])


def test_c1_analyze_z8(capsys):
    start = time.perf_counter()
    payload = analyze_payload(capsys, "Z:8")
    elapsed = time.perf_counter() - start
    classes = {c["label"]: c for c in payload["classes"]}
    ok = (
        sorted(classes) == ["[2]", "[4]"]
        and payload["basis"]["[2]"] == ["[2]"]
        and payload["basis"]["[4]"] == ["[2]", "[4]"]
        and payload["separation"]["T0"] is True
        and payload["separation"]["T1"] is False
        # grouping is by equal images: 6*Z8 = {0,2,4,6} = 2*Z8, so the
        # residue 6 joins the class of 2, never of 4 (the same gcd collapse
        # that puts 4 in [2] for Z:6)
        and classes["[2]"]["members"] == ["2", "6"]
        and classes["[4]"]["members"] == ["4"]
        and "6" not in classes["[4]"]["members"]
        and elapsed < 1.0
    )
    check("C1 analyze Z:8", ok, f"{elapsed:.3f}s")


def test_c2_analyze_z6(capsys):
    start = time.perf_counter()
    payload = analyze_payload(capsys, "Z:6")
    elapsed = time.perf_counter() - start
    classes = {c["label"]: c for c in payload["classes"]}
    ok = (
        sorted(classes) == ["[2]", "[3]"]
        and classes["[2]"]["members"] == ["2", "4"]  # 2E = {0,2,4} = 4E
        and classes["[2]"]["image"] == ["0", "2", "4"]
        and payload["points"] == 2
        and payload["separation"]["discrete"] is True
        and payload["separation"]["T1"] is True
        and elapsed < 1.0
    )
    check("C2 analyze Z:6", ok, f"{elapsed:.3f}s")


def test_c3_analyze_trunc(capsys):
    start = time.perf_counter()
    payload = analyze_payload(capsys, "ring:Trunc(2,3)")
    elapsed = time.perf_counter() - start
    images_ok = all(
        c["image_size"] == 2 and c["image"][0] == "0" and f"[{c['image'][1]}]" == c["label"]
        for c in payload["classes"]
    )
    ok = (
        payload["ring_order"] == 16
        and len(payload["classes"]) == 7
        and payload["points"] == 7
        and payload["separation"]["T1"] is True
        and payload["separation"]["discrete"] is True
        and images_ok
        and elapsed < 1.0
    )
    check("C3 analyze ring:Trunc(2,3)", ok, f"{elapsed:.3f}s")


# sha256 of the default ``verify --out`` report; a deliberate output change
# re-records it and says so in CHANGES.md
DEFAULT_REPORT_SHA256 = "4604ae24cd97b2ba8121da4d79b2e3c41990277ff3e206e32ba0adac223b661a"


def test_c4_default_corpus_verify(capsys, tmp_path):
    target = tmp_path / "report.json"
    start = time.perf_counter()
    code = cli.main(["verify", "--out", str(target)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    payload = json.loads(target.read_text().partition("\n")[2])
    by_rule = {r["rule_id"]: r for r in payload["rules"]}
    ok = (
        code == 0
        and payload["total_failures"] == 0
        and len(payload["rules"]) == 22
        and set(by_rule) == set(verifier.RULE_IDS)
        and by_rule["R18"]["vacuous"] > 0
        and by_rule["R22"]["vacuous"] > 0
        and all(r["fail"] == 0 for r in payload["rules"])
        and "verify: OK" in err
        and elapsed < 60.0
    )
    check(
        "C4 verify default corpus",
        ok,
        f"{payload['corpus_size']} instances, {payload['total_failures']} "
        f"failures, {elapsed:.1f}s, R18 vacuous={by_rule['R18']['vacuous']}, "
        f"R22 vacuous={by_rule['R22']['vacuous']}",
    )
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    check("C4 report digest", digest == DEFAULT_REPORT_SHA256, digest)


def test_c5_oracle_equivalence(default_corpus):
    mismatches = []
    spaces = swept = 0
    for inst in default_corpus:
        if inst.kind != "module":
            continue
        E = modules.build_module(inst.spec_text)
        space = topology.build_space(E)
        if space.n > 12:
            continue
        spaces += 1
        topo = oracle.enumerate_open_sets(space)
        sep = topology.separation_report(space)
        conn = topology.connectivity_report(space)
        fast = {
            "T0": sep.t0,
            "T1": sep.t1,
            "T2": sep.t2,
            "T3": sep.t3,
            "discrete": sep.discrete,
            "connected": conn.connected,
            "hyperconnected": conn.hyperconnected,
            "ultraconnected": conn.ultraconnected,
        }
        for name, value in fast.items():
            if oracle.oracle_axiom(topo, name) != value:
                mismatches.append((inst.spec_text, name))
        if space.n <= 8:
            swept += 1
            for mask in range(1 << space.n):
                if topology.closure(space, mask) != oracle.oracle_closure(topo, mask):
                    mismatches.append((inst.spec_text, f"closure {mask}"))
                if topology.interior(space, mask) != oracle.oracle_interior(topo, mask):
                    mismatches.append((inst.spec_text, f"interior {mask}"))
    ok = not mismatches and spaces > 0 and swept > 0
    check(
        "C5 oracle equivalence",
        ok,
        f"{spaces} spaces, {swept} closure sweeps, mismatches={mismatches[:5]}",
    )


def test_c6_quasi_second_ring_classification(default_corpus):
    from qdivtop import rings

    def ring_is_quasi_second(ring):
        return modules.is_quasi_second(modules.ring_cyclic(ring))

    expected = {
        "Zn(4)": (True, rings.QS_LOCAL_SQUARE_ZERO),
        "Zn(6)": (True, rings.QS_TWO_FIELDS),
        "Zn(8)": (False, rings.NOT_QS),
        "Ideal(Zn(2),2)": (True, rings.QS_LOCAL_SQUARE_ZERO),
        "Ideal(Zn(4),1)": (False, rings.NOT_QS),
    }
    seen = {}
    agree = True
    ring_count = 0
    for inst in default_corpus:
        if inst.kind != "ring":
            continue
        ring_count += 1
        ring = rings.build_ring(inst.spec_text)
        brute = ring_is_quasi_second(ring)
        cls = rings.classify_quasi_second_ring(ring)
        if brute != (cls != rings.NOT_QS):
            agree = False
        if inst.spec_text in expected:
            seen[inst.spec_text] = (brute, cls)
    extra = rings.build_ring("Ideal(Zn(4),1)")
    seen.setdefault(
        "Ideal(Zn(4),1)",
        (ring_is_quasi_second(extra), rings.classify_quasi_second_ring(extra)),
    )
    named_ok = all(seen.get(k) == v for k, v in expected.items())
    ok = agree and named_ok and ring_count > 100
    check(
        "C6 quasi second ring classification",
        ok,
        f"{ring_count} catalog rings, named verdicts {seen}",
    )


def test_c7_homeomorphism():
    # a finite T0 space is its specialization order, and two finite chains
    # of equal length are order-isomorphic: Z:8 and F2[x]:x^3 are both
    # 2-point chains, and Z:6 has 2 incomparable points
    start = time.perf_counter()
    s_z8 = topology.build_space(modules.build_module("Z:8"))
    s_poly = topology.build_space(modules.build_module("F2[x]:x^3"))
    s_z6 = topology.build_space(modules.build_module("Z:6"))
    same = all(
        s.n == 2 and topology.connectivity_report(s).nested for s in (s_z8, s_poly)
    )
    different = s_z6.n == 2 and not s_z6.le(0, 1) and not s_z6.le(1, 0)
    elapsed = time.perf_counter() - start
    ok = same and different and elapsed < 1.0
    check("C7 homeomorphism", ok, f"{elapsed:.3f}s")


def test_c8_harness_self_test(default_corpus, monkeypatch):
    def mutated_finder(E):
        # the quasi-second search with the aE != E guard removed
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

    # one hook serves the module rules and the ring rules
    rule_ids = ["R2", "R14"]
    with monkeypatch.context() as m:
        m.setattr(verifier, "QS_VIOLATION_FINDER", mutated_finder)
        mutated = verifier.run_all(default_corpus, rule_ids=rule_ids)
    failing = {(o.rule_id, o.instance) for o in mutated.failures()}
    pristine = verifier.run_all(default_corpus, rule_ids=rule_ids)
    ok = (
        ("R2", "Z:4") in failing
        and ("R14", "Zn(4)") in failing
        and pristine.total_failures == 0
    )
    check(
        "C8 harness self-test",
        ok,
        f"mutated failures={mutated.total_failures} (R2 Z:4 and R14 Zn(4) "
        f"witnessed), pristine={pristine.total_failures}",
    )
