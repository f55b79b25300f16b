import hashlib
import json

import pytest

from qdivtop import cli, modules, rings


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_of(out):
    header, _, body = out.partition("\n")
    assert header.startswith("# qdivtop ")
    return json.loads(body)


def test_parse_spec_roundtrip():
    for text in ["Z:8", "Z:2,4", "F2[x]:x^3", "ring:Trunc(2,3)", "ring:Zn(8)"]:
        E = cli.parse_spec(text)
        assert cli.parse_spec(E.spec_text).spec_text == E.spec_text
    # user formatting normalizes to the canonical form
    assert cli.parse_spec("Z: 4 , 2").spec_text == "Z:2,4"
    assert cli.parse_spec("ring: Ideal( GF(2) , 2 )").spec_text == "ring:Ideal(Zn(2),2)"


def test_analyze_z8(capsys):
    code, out, err = run_cli(capsys, "analyze", "Z:8")
    assert code == 0
    payload = payload_of(out)
    assert payload["spec"] == "Z:8"
    assert [c["label"] for c in payload["classes"]] == ["[2]", "[4]"]
    assert payload["basis"] == {"[2]": ["[2]"], "[4]": ["[2]", "[4]"]}
    assert payload["separation"]["T0"] is True
    assert payload["separation"]["T1"] is False
    assert payload["quasi_second"] is False
    assert "Z:8" in err


def test_analyze_second_module_note(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Z:7")
    payload = payload_of(out)
    assert payload["points"] == 0
    assert payload["second_module"] is True
    assert payload["note"] == "second module (empty space)"


def test_analyze_ring_cyclic(capsys):
    code, out, _ = run_cli(capsys, "analyze", "ring:Trunc(2,3)")
    payload = payload_of(out)
    assert payload["ring_order"] == 16
    assert payload["order"] == 16
    assert payload["points"] == 7
    assert payload["separation"]["discrete"] is True


def test_analyze_oracle_agreement(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Z:12", "--oracle")
    payload = payload_of(out)
    oracle_part = payload["oracle"]
    assert all(oracle_part["agreement"].values())
    assert oracle_part["axioms"]["T0"] is True
    assert oracle_part["structure"]["minimal_neighborhoods_ok"] is True


def test_analyze_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "Z:12", "--oracle")
    _, out2, _ = run_cli(capsys, "analyze", "Z:12", "--oracle")
    assert out1 == out2


def test_analyze_compact_json(capsys):
    _, out, _ = run_cli(capsys, "analyze", "Z:8", "--json")
    header, _, body = out.partition("\n")
    assert "\n" not in body.strip()
    assert json.loads(body)["spec"] == "Z:8"


def test_analyze_mixed_characteristic_product(capsys):
    code, out, _ = run_cli(capsys, "analyze", "ring:Prod(GF(2,x^2+x+1),GF(3))")
    payload = payload_of(out)
    assert code == 0
    assert payload["points"] == 2
    assert payload["separation"]["discrete"] is True
    assert payload["quasi_second"] is True


def test_analyze_oracle_skip_above_cap(capsys):
    # a 15-point antichain: every one of its 2^15 subsets is open
    code, out, _ = run_cli(capsys, "analyze", "ring:Trunc(2,4)", "--oracle")
    payload = payload_of(out)
    assert code == 0
    assert payload["points"] == 15
    assert payload["oracle"] == {"skipped": "beyond the oracle open-set cap"}


def test_analyze_oracle_past_fourteen_points(capsys):
    for spec, points in [("Z:2310", 30), ("Z:1260", 34)]:
        code, out, _ = run_cli(capsys, "analyze", spec, "--oracle")
        payload = payload_of(out)
        assert code == 0
        assert payload["points"] == points
        part = payload["oracle"]
        assert part["axioms"]["T5"] is None, spec
        assert all(part["agreement"].values()), spec
        assert all(part["structure"].values()), spec


def test_analyze_parse_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "Z:1")
    assert code == 2
    assert "unit" in err
    assert run_cli(capsys, "analyze", "nonsense")[0] == 2
    assert run_cli(capsys, "analyze", "ring:Wat(2)")[0] == 2


def test_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "ring:Zn(5000)")
    assert code == 3


def test_usage_error(capsys):
    assert cli.main([]) == 2
    assert cli.main(["bogus"]) == 2


def test_dot_export(capsys):
    code, out, _ = run_cli(capsys, "dot", "Z:8")
    assert code == 0
    assert 'n0 [label="[2] |aE|=4"]' in out
    assert "n1 -> n0;" in out
    code, out12, _ = run_cli(capsys, "dot", "Z:12")
    assert out12.count("->") == 3
    assert out12.count("[label=") == 4


def test_dot_empty(capsys):
    code, out, _ = run_cli(capsys, "dot", "Z:7")
    assert code == 0
    assert "// empty space (second module)" in out
    assert "->" not in out


def test_dot_out_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, out, err = run_cli(capsys, "dot", "Z:8", "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("digraph")


def test_verify_rules_subset(capsys):
    code, out, err = run_cli(capsys, "verify", "--rules", "R2,R14", "--max-order", "12")
    assert code == 0
    payload = payload_of(out)
    assert [r["rule_id"] for r in payload["rules"]] == ["R2", "R14"]
    assert payload["total_failures"] == 0
    assert "R2: pass=" in err
    assert "verify: OK" in err


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "--rules", "R1", "--max-order", "8", "--out", str(target)
    )
    assert code == 0
    text = target.read_text()
    header, _, body = text.partition("\n")
    assert header.startswith("# qdivtop")
    assert json.loads(body)["total_failures"] == 0


def test_verify_bad_rule(capsys):
    code, _, err = run_cli(capsys, "verify", "--rules", "R99")
    assert code == 2


def test_verify_empty_corpus(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-order", "1")
    assert code == 0
    payload = payload_of(out)
    assert payload["corpus_size"] == 0
    assert payload["total_failures"] == 0


def test_verify_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--rules", "R2,R6", "--max-order", "10")
    _, out2, _ = run_cli(capsys, "verify", "--rules", "R2,R6", "--max-order", "10")
    assert out1 == out2


def test_summands_flag(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--max-order", "81", "--summands", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert "module\tZ:8" in lines
    assert all("," not in line for line in lines if line.startswith("module\tZ:"))


def test_analyze_out_file(tmp_path, capsys):
    target = tmp_path / "analysis.json"
    code, _, _ = run_cli(capsys, "analyze", "Z:8", "--out", str(target))
    assert code == 0
    body = target.read_text().partition("\n")[2]
    assert json.loads(body)["spec"] == "Z:8"


def test_corpus_listing(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--max-order", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert "module\tZ:6" in lines
    assert "ring\tZn(4)" in lines
    assert all("\t" in line for line in lines)


def test_analyze_at_the_element_cap(capsys, monkeypatch):
    # 4096 elements, but rows only for the 13 monic divisors of x^12
    built = []
    parse = cli.parse_spec

    def recording_parse(text):
        built.append(parse(text))
        return built[-1]

    monkeypatch.setattr(cli, "parse_spec", recording_parse)
    # one polynomial gcd per residue, shared by the units and the divisors
    gcd_calls = []

    def counted(gcd):
        def wrapper(*args):
            gcd_calls.append(args)
            return gcd(*args)

        return wrapper

    for owner in (modules, rings):
        monkeypatch.setattr(owner, "pgcd", counted(owner.pgcd))
    code, out, _ = run_cli(capsys, "analyze", "F2[x]:x^12")
    assert code == 0
    payload = payload_of(out)
    assert payload["order"] == 4096
    assert payload["points"] == 11
    assert [c["label"] for c in payload["classes"]] == ["[x]"] + [
        f"[x^{k}]" for k in range(2, 12)
    ]
    assert payload["connectivity"]["nested"] is True
    assert payload["quasi_second"] is False
    assert payload["predicates"] is None  # the lattice cap
    assert len(built[-1]._rows) <= 13
    assert len(gcd_calls) <= 4096
    # Z:2310 has 32 divisors
    code, out, _ = run_cli(capsys, "analyze", "Z:2310")
    assert code == 0
    assert len(built[-1]._rows) <= 32


def test_analyze_ring_at_the_element_cap(capsys, monkeypatch):
    # 4096 elements, 2048 nonunits, but rows only for the k+1 = 12
    # additive generators of Trunc(2,11): each image is a span of rR
    built = []
    parse = cli.parse_spec

    def recording_parse(text):
        built.append(parse(text))
        return built[-1]

    monkeypatch.setattr(cli, "parse_spec", recording_parse)
    products = []
    mul = rings.TruncRing.mul

    def counted(self, x, y):
        products.append(None)
        return mul(self, x, y)

    monkeypatch.setattr(rings.TruncRing, "mul", counted)
    code, out, _ = run_cli(capsys, "analyze", "ring:Trunc(2,11)")
    assert code == 0
    payload = payload_of(out)
    assert payload["order"] == 4096
    assert payload["points"] == 2047
    assert payload["quasi_second"] is True
    assert payload["separation"]["T1"] is True
    assert payload["predicates"] is None  # the lattice cap
    assert len(built[-1]._rows) <= 12
    # one product per generator for each generator row, plus one square
    # per element for the idempotents; one product per element for each
    # row would be 12 * 4096 more
    assert len(products) <= 4096 + 12 * 12


def test_analyze_composite_ring_rows_take_one_product_per_digit(capsys, monkeypatch):
    # Ideal(Trunc(2,2),3) has 4096 elements and 12 binary digits: each of
    # its 12 generator rows takes 12 ring products, not 4096
    products = []
    mul = rings.IdealizeRing.mul

    def counted(self, x, y):
        products.append(None)
        return mul(self, x, y)

    monkeypatch.setattr(rings.IdealizeRing, "mul", counted)
    code, out, _ = run_cli(capsys, "analyze", "ring:Ideal(Trunc(2,2),3)")
    assert code == 0
    payload = payload_of(out)
    assert payload["order"] == 4096
    assert payload["points"] == 283
    # the rows, plus one square per element for the idempotents
    assert len(products) <= 4096 + 12 * 12


# sha256 of the stdout of ``analyze``, ``analyze --oracle`` and ``dot`` per
# spec.  Together the specs reach every domain label (Z, F_p[x], F_p[x1..xk],
# Z[x1,x2,...]), both annihilator forms (a scalar, a ring-side ideal) and
# ``ring_order``; a deliberate output change updates the digests.
PINNED_STDOUT_SHA256 = {
    "Z:12": (
        "b1a648d002fade8e29afb20737429fb2d4ce8a85b67668cb4069a9133d66185b",
        "4eac11298d923206ad313bce0947fe93e86f7759b89704d5999e665dd70c81b3",
        "4454ddf6a0ec3dbeb5b0bff0abe4021f806ae685ccae9de0eaba0a64aed04642",
    ),
    "Z:2,4": (
        "35f41432e9c1fb58463bb2831459e25c875d64988a7679fc77c129d7f7f2b02d",
        "0178a312870875b07288185349109bf8d211ed47148dd828d8d701e4d0ea3fe1",
        "b5d909995febbc18b47ea60b1b9a8393158371cf5094d4c5c0c49a24d7749e64",
    ),
    "F2[x]:x^3": (
        "e43ed4e8199ca7b0a1fedc6ad1e4a9b4d077c6af26db77e24f6e157e81756ea8",
        "be9d1dbe60641505d3b66cfcc720663a6225c810d7d821d66b2acfc0a04a2c68",
        "26fa3e27fa40cf06c7ccc8ed1bbc1107488413e212db586aae22a2afdfff1344",
    ),
    "F2[x]:x^2+x,x^2": (
        "3fde46d9bbbd2a3c4c4cb814031488715d4b49e80c169839daeb42bd7c6315bf",
        "a0ca874fbc76a63b603ac38fe4afad5edf67bc9651bbc26d1f35c80f69372311",
        "f0b5cde15b6ce835de99725a5d20131c75228a2c3d7e3218770f3b9ecc563608",
    ),
    "ring:Zn(8)": (
        "20a2448df4c2788b6b9e8c95b14b989cb92e49d04a8451d11e0b680e6b8e0405",
        "88d87206e224e42e4614d2c02b183db9ae5f70b0a97237a81d49b8c74485b623",
        "a6722ac14d3973f99ebf407ed49461bbd150608fa7ae653bf946ccc6b390d615",
    ),
    "ring:Trunc(2,2)": (
        "6b69919122e17a4c1440ff03a4f4f92606b69962197a6a853e7bc44c83b34c5d",
        "be842d57aa80d2594e4d54223e45e8ded85d60287c48c0735b0f818c5e1326f6",
        "0360d90d1325423f470280467a1b53ac4331a304a916b07cbc51ff67fa2837a7",
    ),
    "ring:Prod(Zn(2),Zn(3))": (
        "f2841ae79f19bce45c33a34f9fd8e220df6b17f0f8117aab71431cbebbd4d5fa",
        "742cb09c84b072e7cb0644af301fec1171e2b745bbef80d369985c221f3ea081",
        "973d0c10164304d0ccc061ccc72a2f6ab5635069a7914e961adb5266c06034d2",
    ),
    "ring:GF(2,x^2+x+1)": (
        "65c6a67bae114a6f923420b73435abd994ac06d67796806d1e8a1ac28d98f4f6",
        "196677df8f5f255f7c83e3f9f987cf60b58b2962b7afaa1be4c136d6a7c68404",
        "bde04a31c223f04c16b025641876225797f9db645b775c3939b3bcd66576934c",
    ),
    # an empty space, split "simple"
    "Z:5": (
        "085322fe79361232f1a84606a12d0e0d1568e965bbb5ce2486a9d488fe751372",
        "0580f59443fdeef4889ee1e06036b10939ebf0211a0cdc73dffdd66e8fd35def",
        "8a74a59017d01e41584f88094e20d8d298a6daf6fbb2b36fbb6399a82409be4b",
    ),
    # 14 points, T5 null in the oracle
    "Z:210": (
        "11caf0b7730bf4157f5416a823b7bc306fc54abbb80f14c9817227500817be28",
        "286e1cb61d009c5d0f0f7331d2d3b8d8a87cc9a00b8d67efb0c8b02375512afc",
        "6ed230f3c5dcce3cf682d3107712d9eb2dd369b0b3279b9f36446a2e1d16bae4",
    ),
    # predicates null past the lattice cap
    "Z:16,32": (
        "dd39dff4a0bb4cd2542bdc6b61b6c49832733dfdac4b4ee821e0610cb1be9a46",
        "6533cc045c3d82d21150ff57c616dcdeb384bf331be3c4771a3a6b311e5346f4",
        "d9779289c7afd73dde520ae18011fa422bb6cd76ded8e136a68fd8d73ee2b48a",
    ),
    # the oracle skipped past its open-set cap
    "ring:Trunc(2,4)": (
        "8ef17fb7230098f418e9036fe35511103db662c1ebbef59cc4c7b1c560837876",
        "6da9a2a06c6239c720c3f2b8c4c6bb3b7addc51d1acaafaad5536ecd774b3718",
        "22cb432ea353eefaaf9fc657711af60807108ba5f8717adf01cc80b8d55cf540",
    ),
}


def test_analyze_and_dot_stdout_pinned(capsys):
    for spec, digests in PINNED_STDOUT_SHA256.items():
        for argv, digest in zip(
            (["analyze", spec], ["analyze", "--oracle", spec], ["dot", spec]), digests
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
