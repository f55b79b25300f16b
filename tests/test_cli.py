import hashlib
import json
import os
import sys
import time
import tracemalloc

import pytest

from qdivtop import cli, modules, rings, scalars
from qdivtop.rings import SizeCapExceeded
from common import CAP_LADDER, fresh_python


def run_cli(capsys, *argv, within=None):
    """main(argv), its stdout and its stderr; ``within`` bounds its wall
    time in seconds."""
    start = time.perf_counter()
    code = cli.main(list(argv))
    assert within is None or time.perf_counter() - start < within, argv
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
    code, out, _ = run_cli(capsys, "analyze", "ring:Trunc(2,4)", "--oracle", within=10)
    payload = payload_of(out)
    assert code == 0
    assert payload["points"] == 15
    assert payload["oracle"] == {"skipped": "beyond the oracle open-set cap"}


def test_analyze_oracle_past_fourteen_points(capsys):
    for spec, points in [("Z:2310", 30), ("Z:1260", 34)]:
        code, out, _ = run_cli(capsys, "analyze", spec, "--oracle", within=10)
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


def nested_prod(levels):
    return "ring:" + "Prod(Zn(2)," * levels + "Zn(2)" + ")" * levels


def test_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "ring:Zn(5000)")
    assert code == 3
    # orders far past the cap are compared before the power is computed or
    # printed: each exits 3, not 2 on a too-long integer string
    for spec, order in [
        ("F2[x]:x^100000", "2^100000 elements"),
        ("ring:GF(2,x^100000)", "order 2^100000"),
        ("ring:Trunc(2,100000)", "order 2^100001"),
        ("ring:Ideal(Zn(2),100000)", "order 2^100001"),
    ]:
        code, _, err = run_cli(capsys, "analyze", spec)
        assert (code, f"{order} exceed" in err) == (3, True), (spec, err)
    # small orders keep their decimal text
    code, _, err = run_cli(capsys, "analyze", "Z:64,128")
    assert (code, err) == (3, "error: 8192 elements exceed the cap 4096\n")
    code, _, err = run_cli(capsys, "analyze", nested_prod(12))
    assert (code, err.endswith(": order 8192 exceeds the cap 4096\n")) == (3, True)
    # past 13 levels of nesting the parser stops before it recurses further
    code, _, err = run_cli(capsys, "analyze", nested_prod(1200))
    assert (code, "nested past 13 levels" in err) == (3, True)


LARGE_PRIME = 1000000000000000003


@pytest.mark.parametrize(
    "spec",
    [
        f"ring:Trunc({LARGE_PRIME},1)",
        f"ring:GF({LARGE_PRIME})",
        f"F{LARGE_PRIME}[x]:x",
        "F99991[x]:x",
    ],
)
def test_large_characteristic_meets_the_cap_before_a_primality_test(capsys, spec):
    # trial division on a 19-digit prime would take minutes; a 5-digit p
    # meets the cap as the order of F_p[x]/(x)
    code, _, err = run_cli(capsys, "analyze", spec, within=5)
    assert (code, "exceed" in err) == (3, True), err


@pytest.mark.parametrize(
    "spec, code, message",
    [
        ("ring:Trunc(4,2)", 2, "characteristic 4 is not prime"),
        ("ring:Trunc(2,0)", 2, "Trunc needs at least one generator"),
        ("ring:Trunc(2,100000)", 3, "Trunc(2,100000): order 2^100001 exceeds the cap 4096"),
        (
            f"ring:Trunc({LARGE_PRIME},1)",
            3,
            f"Trunc({LARGE_PRIME},1): order {LARGE_PRIME**2} exceeds the cap 4096",
        ),
    ],
)
def test_trunc_errors_name_trunc(capsys, spec, code, message):
    # Trunc checks its own arguments and order before it builds Zn(p), so
    # no message names the base ring
    assert run_cli(capsys, "analyze", spec, within=5)[::2] == (code, f"error: {message}\n")


def test_large_exponent_meets_the_cap_before_allocation(capsys):
    code, _, err = run_cli(capsys, "analyze", "F2[x]:x^1000000", within=5)
    assert (code, err) == (3, "error: 2^1000000 elements exceed the cap 4096\n")
    # the degree is compared with the cap before one coefficient per
    # exponent is allocated
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded):
            modules.build_module("F2[x]:x^1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_long_integer_literal_meets_the_cap_before_conversion(capsys):
    # Python refuses to convert more than 4,300 digits; the cap comes first
    code, _, err = run_cli(capsys, "analyze", "Z:" + "9" * 4400, within=5)
    assert (code, err) == (3, "error: a modulus of 4400 digits exceeds the cap 4096\n")
    # past 78 digits (the digits of 2^256) a literal is refused on its
    # length; a shorter one is converted, and its order checked
    for spec, error in [
        ("Z:" + "9" * 79, "a modulus of 79 digits exceeds the cap 4096"),
        ("Z:99999", "99999 elements exceed the cap 4096"),
    ]:
        code, _, err = run_cli(capsys, "analyze", spec, within=5)
        assert (code, err) == (3, f"error: {error}\n")


@pytest.mark.parametrize(
    "spec, message",
    [
        ("ring:Zn({})", "a ring argument of 4400 digits exceeds the cap 4096"),
        ("ring:Trunc(2,{})", "a ring argument of 4400 digits exceeds the cap 4096"),
        ("F2[x]:x^{}", "an exponent of 4400 digits exceeds every size cap"),
    ],
)
def test_long_ring_argument_or_exponent_meets_the_cap_by_its_length(capsys, spec, message):
    # refused before int(), and the message gives the digit count only
    code, _, err = run_cli(capsys, "analyze", spec.format("9" * 4400), within=5)
    assert (code, err) == (3, f"error: {message}\n")


@pytest.mark.parametrize(
    "spec",
    [
        "Z:1_0",
        "ring:Zn(1_0)",
        "F2[x]:x^1_0",
        "Z:٣",
        "ring:Zn(٣)",
        "F٣[x]:x",
        "ring:GF(2,x^٣)",
        # the prime check of GF(p,f) comes before f is read mod p
        "ring:GF(0,x^5)",
        "ring:GF(4,x^2)",
    ],
)
def test_an_integer_literal_is_ascii_digits(capsys, spec):
    # int() also reads "1_0" and the digits of other scripts; a spec does not
    code, out, err = run_cli(capsys, "dot", spec, within=5)
    assert (code, out, err.startswith("error: "), "Traceback" in err) == (2, "", True, False)


@pytest.mark.parametrize(
    "spec, same_as",
    [
        ("F2[x]:{}x+x^2", "F2[x]:x+x^2"),
        ("ring:GF(2,{}x+x^2+1)", "ring:GF(2,x^2+x+1)"),
    ],
)
def test_long_coefficient_is_reduced_mod_p(capsys, spec, same_as):
    # a coefficient of 4,400 nines is 1 mod 2, read in chunks that int()
    # accepts, so the literal names the same polynomial as the short one
    code, out, _ = run_cli(capsys, "analyze", spec.format("9" * 4400))
    assert (code, out) == run_cli(capsys, "analyze", same_as)[:2]


def test_long_coefficient_mod_an_odd_prime():
    # 4,400 nines is 10^4400 - 1: 0 mod 3, and 1 mod 7 as 10^6 is 1 mod 7
    nines = "9" * 4400
    assert scalars.parse_poly(nines + "x+x^2", 3) == (0, 0, 1)
    assert scalars.parse_poly(nines, 7) == ((pow(10, 4400, 7) - 1) % 7,) == (1,)


def test_usage_error(capsys):
    assert cli.main([]) == 2
    assert cli.main(["bogus"]) == 2


def test_repeated_calls_share_one_parser(capsys):
    # main() builds its parser once per process: each call, usage errors
    # and --help included, gives the stdout, stderr and exit code of a call
    # on a freshly built parser, however often it is repeated
    argvs = [
        ["--help"], ["analyze", "--help"], [], ["analyze"], ["frobnicate"],
        ["analyze", "Z:8", "--bogus"], ["verify", "--max-order", "x"],
        ["analyze", "Z:8"], ["dot", "Z:6"], ["corpus", "--max-order", "4"],
    ]

    def fresh(argv):
        cli._build_parser.cache_clear()
        return run_cli(capsys, *argv)

    expected = [fresh(argv) for argv in argvs]
    assert [code for code, _, _ in expected] == [0, 0, 2, 2, 2, 2, 2, 0, 0, 0]
    for _ in range(2):
        assert [run_cli(capsys, *argv) for argv in argvs] == expected
    assert cli._build_parser() is cli._build_parser()


def test_exit_codes_in_a_fresh_process():
    assert fresh_python("-m", "qdivtop.cli", "dot", "Z:1_0", timeout=5).returncode == 2
    assert fresh_python("-m", "qdivtop.cli", "analyze", "Z:99999", timeout=5).returncode == 3


@pytest.mark.parametrize(
    "argv", [["analyze", "Z:8"], ["dot", "Z:8"], ["verify", "--rules", "R1", "--max-order", "8"]]
)
def test_an_out_path_that_cannot_be_written_exits_2(tmp_path, capsys, argv):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out, err.count("\n"), err.startswith("error: ")) == (2, "", 1, True)


def test_a_closed_stdout_exits_2(capsys, monkeypatch):
    # ``corpus | head -1``: the pipe is closed before the listing is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed_pipe:
        monkeypatch.setattr(sys, "stdout", closed_pipe)
        code = cli.main(["corpus"])
    assert (code, capsys.readouterr().err) == (2, "error: [Errno 32] Broken pipe\n")


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


def test_verify_repeated_rules_run_once(capsys):
    # each id once, in the order of its first appearance, with the tallies
    # and failure count of a list without repeats
    args = ("verify", "--max-order", "12")
    code, out, err = run_cli(capsys, *args, "--rules", "R14,R2,R14,R2")
    assert code == 0
    _, once_out, once_err = run_cli(capsys, *args, "--rules", "R14,R2")
    assert (out, err) == (once_out, once_err)
    payload = payload_of(out)
    assert [r["rule_id"] for r in payload["rules"]] == ["R14", "R2"]
    assert err.count("R14: pass=") == 1


@pytest.mark.parametrize("rules", [",", "", " , "])
def test_verify_empty_rule_list_is_refused(capsys, rules):
    code, out, err = run_cli(capsys, "verify", "--rules", rules)
    assert (code, out) == (2, "")
    assert "no rule ids given" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["corpus", "--max-order", "1000000000", "--summands", "30"],
        ["corpus", "--max-order", "100000", "--summands", "16"],
    ],
)
def test_a_corpus_past_its_cap_exits_2_before_it_is_listed(capsys, argv):
    # the listing stops at the 100,001st instance: the first corpus has
    # millions of instances, the second 133,929
    code, out, err = run_cli(capsys, *argv, within=2)
    assert (code, out, err) == (2, "", "error: corpus exceeds 100000 instances\n")


STDLIB_ONLY = """
import contextlib, io, sys
from qdivtop.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["analyze", "--oracle", "Z:12"]), main(["verify", "--rules", "R1,R14"])]
tops = {name.partition(".")[0] for name in sys.modules}
foreign = sorted(tops - set(sys.stdlib_module_names) - {"qdivtop", "__main__"})
if codes != [0, 0] or foreign:
    sys.exit(f"exit codes {codes}, modules outside the standard library: {foreign}")
"""


def test_the_runtime_loads_the_standard_library_only():
    # after analyze --oracle and a verify run in one process, every loaded
    # module is qdivtop's own or in the standard library; -S keeps
    # site-packages and its .pth hooks out, so a third-party import fails
    run = fresh_python("-S", "-c", STDLIB_ONLY, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")


def test_analyze_at_the_element_cap(capsys, monkeypatch):
    # 4096 elements, but rows only for the 13 monic divisors of x^12
    built = []
    parse = cli.parse_spec

    def recording_parse(text):
        built.append(parse(text))
        return built[-1]

    monkeypatch.setattr(cli, "parse_spec", recording_parse)
    # no polynomial gcd per residue: the divisors are sieved from the
    # divisors of x^12, and the idempotents, one per unitary divisor, none
    gcd_calls = []

    def counted(gcd):
        def wrapper(*args):
            gcd_calls.append(args)
            return gcd(*args)

        return wrapper

    monkeypatch.setattr(scalars, "pgcd", counted(scalars.pgcd))
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
    assert len(gcd_calls) <= 13
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
    base_rows = []
    mul_row = rings.ZnRing.mul_row

    def counted(self, t):
        base_rows.append(self.spec)
        return mul_row(self, t)

    monkeypatch.setattr(rings.ZnRing, "mul_row", counted)
    code, out, _ = run_cli(capsys, "analyze", "ring:Trunc(2,11)")
    assert code == 0
    payload = payload_of(out)
    assert payload["order"] == 4096
    assert payload["points"] == 2047
    assert payload["quasi_second"] is True
    assert payload["separation"]["T1"] is True
    assert payload["predicates"] is None  # the lattice cap
    assert len(built[-1]._rows) <= 12
    # Trunc(2,11) is Ideal(Zn(2),11): each generator row is joined from
    # 12 rows of Zn(2), one per coordinate of the generator; a row for
    # each of the 4096 elements would take 12 * 4096
    assert set(base_rows) == {"Zn(2)"} and len(base_rows) <= 12 * 12


def test_analyze_composite_ring_rows_take_one_product_per_digit(capsys, monkeypatch):
    # Ideal(Trunc(2,2),3) has 4096 elements.  Its principal ideals are
    # read off its base Trunc(2,2): the multiples of (a, m_1, m_2, m_3)
    # from the base's rows of a and of each m_k, each read off the base's
    # checked table once, and the base's own ideals.  So the ring builds no
    # row of its own and makes no value product at all.  The base's table
    # is its own 8 rows, so only the rows of the 4096-element ring count
    products, rows, base_rows = [], [], []
    mul, mul_row = rings.IdealizeRing.mul, rings.IdealizeRing.mul_row
    read_tables = rings.FiniteRing._read_tables

    def counted_product(self, x, y):
        products.append(None)
        return mul(self, x, y)

    def counted_row(self, t):
        if self.order == 4096:
            rows.append(t)
        return mul_row(self, t)

    def counted_base_rows(self, *tables):
        read_tables(self, *tables)
        if self.spec == "Trunc(2,2)":
            row = self.mul_row

            def counted(t):
                base_rows.append(t)
                return row(t)

            self.mul_row = counted

    monkeypatch.setattr(rings.IdealizeRing, "mul", counted_product)
    monkeypatch.setattr(rings.IdealizeRing, "mul_row", counted_row)
    monkeypatch.setattr(rings.FiniteRing, "_read_tables", counted_base_rows)
    code, out, _ = run_cli(capsys, "analyze", "ring:Ideal(Trunc(2,2),3)")
    assert code == 0
    payload = payload_of(out)
    assert payload["order"] == 4096
    assert payload["points"] == 283
    assert products == []
    assert rows == []
    assert len(base_rows) == len(set(base_rows)) == 8


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
    # the oracle past 16 points, so past two 8-point union-table chunks:
    # 30 points with 7,579 open sets, and 34 points with 8,788
    "Z:2310": (
        "75995d7c7c8769d8a10242bf0bc0f4d5ef469c3848342e903127aa0fed811260",
        "3248371cc37fe92024b3b26a83c03dfc3fca5b3077badb296afd390e29b370f3",
        "700969204fab5e8f6d0e1026cb4db0b70dcf2e04211f100633a5f590025afa89",
    ),
    "Z:1260": (
        "cc451e4fcc3bcd352feee3ab4cf1064fb2962e199a3cefb7345381b512ddae59",
        "2bf8bf2b304e0d27fcc0444684e5080a1f889a1255c722d8c36511bb367ae19c",
        "b4fbebd13ec82eec2203b61d0b15c5f993b00aeefede6287cb0e1e40f7e053dd",
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


# analyze and dot at the element cap, on every spec of the cap ladder;
# tests_slow/test_cap_ladder.py bounds their time in a fresh process
CAP_LADDER_STDOUT_SHA256 = {
    "ring:Trunc(2,11)": (
        "06834afef592fffcbc434b6985b63d7cc4982fde87ffc68d70331e628b32a32b",
        "952e920f558c1cf1feadd2cbbe273de2a5ad52660e19604c8153fc1c76291a49",
    ),
    "ring:Trunc(3,6)": (
        "1ce6938ae46a527ddca37cf822c350ca8e0dcb2b8758b4bc822dcc7fe0877645",
        "838b523aebc02abff095b1619f454e1a480fdc497dd3ca3f20f529364f50bf27",
    ),
    "ring:Ideal(GF(2,x^4+x+1),2)": (
        "13f8c24f97db2285e1301d72dc4b4b0427eb895d7a10b52c94dedfba98d5a167",
        "c54accbf0605c07ef9f68af4e574aba63aa467e4ad99b2233bc83abb225a5f6c",
    ),
    "ring:Prod(GF(2,x^6+x+1),GF(2,x^6+x+1))": (
        "37d6c3ee126f7e304119473311906d500843327f151463c27a139687400f27a9",
        "f95896f0ca5dc6ba5134c160cf330f269c9132730a3b1c76cd599540a72af2d7",
    ),
    "ring:Zn(4096)": (
        "3d1a7f242c9aa427539bdf4c80706a54a5ab2c1721ed6bec77c4bef2c3dc1d37",
        "1f4e8e37b839926c9627f139c62cea238b7f70dabe8023c1b062895104a6949f",
    ),
    "ring:Ideal(Trunc(2,2),3)": (
        "8a4c9c1d884c72650b0dc8dc9c07e45f9b0bb092ed66f584e8ae133f19f8fe6c",
        "2bc92df11806e58ea5a918b93e3d1320a23a981163f17abb32dbe09d8aec89cd",
    ),
    "F2[x]:x^12": (
        "8d85f2aafae6a281be2c51ee1c25056901820504e86e47ff5d548d49df374994",
        "4cc5ae5d050854fe95e3d41863a2a237b40ac5f316db9266296808ce3505f828",
    ),
    "F2[x]:x^12+x^9+x^5+x^2": (
        "c0bd96919d29ed46e2786eac50d598ac0ab99ba35aa74b1c36c6ea9e48019491",
        "b49f5e80c944fed4fe003dd6276b2c7fd1df7b1b2d05c6ed47db52c90dee4cd7",
    ),
    "Z:2310": (
        "75995d7c7c8769d8a10242bf0bc0f4d5ef469c3848342e903127aa0fed811260",
        "700969204fab5e8f6d0e1026cb4db0b70dcf2e04211f100633a5f590025afa89",
    ),
    "F3[x]:x^7": (
        "bd934d7e85fd09d19c8969266809c5b08069850970ff952d9322ff232ec3e19b",
        "2fc07e5a26ff3041948cc4ee0485572f3219a2d8a6d63c80e43172645155fc6c",
    ),
    "ring:GF(3,x^7+x+1)": (
        "102d55808a4e418eb1d95a189f962b2ea08ea4897b40cc7e2998b19cd6ea9544",
        "25a8ba9a73081dcbaaf175e9b0a98f1588b3944ba9703f5bcd94b8bc5657bf25",
    ),
    "ring:Prod(Zn(4),Trunc(2,9))": (
        "6b6445d87a699ce67ac1defb0b71a1bc1f8463052cc69100e7abe91c641dd938",
        "847f6ea5905d5c7b1b63a0ab0f6159729f03320804b9d566f0ab3501c5fb7efc",
    ),
    "ring:Ideal(GF(3,x^2+1),2)": (
        "b0e38cdb991543d096f9fefdfe9276bd4d0df0c543fb638b2b37f18885e327a7",
        "b988870e104cc9920ffc4dd97ed8457ecf38d8f5afdcb3774a4e91690129c15a",
    ),
}


def test_cap_ladder_stdout_pinned(capsys):
    assert sorted(CAP_LADDER_STDOUT_SHA256) == sorted(CAP_LADDER)
    for spec, digests in CAP_LADDER_STDOUT_SHA256.items():
        for argv, digest in zip((["analyze", spec], ["dot", spec]), digests):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


@pytest.fixture(scope="module")
def report_payloads():
    import emit_check

    return emit_check.all_payloads()


@pytest.mark.parametrize("c_encoder", [True, False])
def test_indented_report_bytes_match_json_dumps(report_payloads, c_encoder, monkeypatch):
    # the edge payloads, analyze --oracle on the 391 default instances and
    # the 12 ladder specs, and one verify report, through cli._emit: with
    # the C encoder, and without it, where _emit falls back to json.dumps
    import emit_check

    assert len(report_payloads) == 27 + 391 + 12 + 1
    if not c_encoder:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert emit_check.mismatches(report_payloads) == []
