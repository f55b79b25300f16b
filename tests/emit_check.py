"""The indented report writer against ``json.dumps(payload, indent=2)``.

Run as a plain script, with no test tools, to check it under any
interpreter (from the root of a checkout):

    PYTHONPATH=src:tests python tests/emit_check.py

It exits nonzero at the first payload whose bytes differ, then checks the
same payloads once more with the C encoder taken away, which ``cli._emit``
answers by falling back to ``json.dumps``."""

import contextlib
import io
import json
import sys

from qdivtop import cli, verifier
from common import BENCHMARK_LADDER_SPECS


def edge_payloads() -> list:
    """Hand-made payloads: empty and nested-empty containers, every scalar
    type, strings json escapes, and lists mixing scalars and containers."""
    text = 'q"uote b\\ack \x00\x1f\t\n\r é ü ☃ 😀 /'
    return [
        {}, [], (), [[]], [{}], {"a": {}}, {"a": []}, [[[]], {}], {"a": {"b": {}}},
        None, True, False, 0, -7, 2**70, 1.5, "", text,
        [None, True, False, 0, 1, -1, 12345678901234567890],
        {"none": None, "yes": True, "no": False, "int": 3},
        [text, text[::-1], ""],
        {text: text, "": ""},
        [1, [2, 3], "x", {"k": [None]}, [], {}, [[4], 5]],
        {"mixed": [1, [], {"e": {}}, "s"], "n": 1, "nested": {"l": [[1, 2], []]}},
        {1: "int key", True: "bool key", None: "none key", 2.5: "float key"},
        {"inner": {1: [True], None: {}}},
        ([1, (2, 3)], ("a",)),
    ]


def _quiet(fn, *args):
    with contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def report_payloads():
    """(name, payload): ``analyze --oracle`` on every default instance and
    every analyze-ladder spec, then one ``verify`` report."""
    for inst in verifier.generate_corpus(verifier.DEFAULT_CORPUS):
        yield inst.spec_text, cli._analyze_payload(cli.parse_spec(inst.spec_text), True)
    for spec in BENCHMARK_LADDER_SPECS:
        yield spec, cli._analyze_payload(cli.parse_spec(spec), True)
    corpus = verifier.generate_corpus(verifier.CorpusSpec(element_cap=12))
    yield "verify", _quiet(verifier.run_all, corpus).payload()


def emitted(payload) -> str:
    """What ``cli._emit`` writes for the indented form of the payload."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload, False, None)
    return out.getvalue()


def mismatches(payloads) -> list:
    """The names of the payloads whose emitted bytes differ from the header
    line and ``json.dumps(payload, indent=2)``."""
    return [
        name
        for name, payload in payloads
        if emitted(payload) != f"{cli.HEADER}\n{json.dumps(payload, indent=2)}\n"
    ]


def all_payloads() -> list:
    return [(repr(p), p) for p in edge_payloads()] + list(report_payloads())


def main() -> int:
    payloads = all_payloads()
    bad = mismatches(payloads)
    c_make_encoder = json.encoder.c_make_encoder
    json.encoder.c_make_encoder = None
    try:
        bad += mismatches(payloads)
    finally:
        json.encoder.c_make_encoder = c_make_encoder
    print(f"{sys.version.split()[0]}: {len(payloads)} payloads, {len(bad)} differ {bad[:5]}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
