"""The four benchmark workloads: their fixed op lists and output checks.

An op is one unit of user-visible work. Each op returns its result; its
``check`` names what is wrong with that result (or returns None) and its
``output`` gives the bytes whose sha256 is the op's digest. Probes are ops
expected to miss their deadline at the seed; they stay in the list so that
a change which makes them finish shows up in the numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

# sha256 over "kind:spec\n" lines of the 391-instance default corpus
DEFAULT_CORPUS_SIZE = 391
DEFAULT_CORPUS_FINGERPRINT = (
    "0b8df1352476f3a75af6b6f1a8850893795cb2f8adad78a275bc0b46c60cd0fe"
)

DEFAULT_DEADLINE_S = 12.0

# cheapest first, so that --limit keeps the cheap ones
LADDER_SPECS = (
    "Z:60",
    "F2[x]:x^6",
    "Z:16,16",
    "Z:360",
    "Z:210",
    "F2[x]:x^4,x^4",
    "Z:64,64",
    "F3[x]:x^5",
    "ring:Ideal(GF(3,x^2+1),2)",
    "F2[x]:x^8",
)
LADDER_PROBES = ("Z:2310", "F2[x]:x^12")

ORACLE_SPECS = (
    "ring:Ideal(Zn(2),3)",
    "ring:Trunc(7,2)",
    "ring:Prod(Trunc(2,2),GF(2,x^2+x+1))",
    "Z:210",
    "ring:Trunc(11,2)",
)

RING_SPECS = (
    "Zn(256)",
    "Trunc(2,7)",
    "Prod(GF(2,x^4+x+1),GF(2,x^5+x^2+1))",
    "Prod(Zn(31),Zn(29))",
    "Zn(1024)",
    "Prod(Trunc(2,3),Zn(27))",
    "Ideal(Zn(5),3)",
    "Ideal(GF(3,x^2+1),2)",
)
RING_RULES = ("R14", "R15")

# run after every missed probe: its output must not change
CANARY_SPEC = "Z:60"


@dataclass(frozen=True)
class Op:
    op_id: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    output: Callable[[object], bytes]
    probe: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build_ops: Callable  # (program, limit) -> list[Op]
    finish: Callable = None  # (program, {op_id: result}) -> list of errors
    deadline_s: float = DEFAULT_DEADLINE_S


# -- analyze ops -------------------------------------------------------------


def run_analyze(cli, argv):
    """``qdivtop <argv>`` in process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _analyze_problem(result, header):
    code, text = result
    if code != 0:
        return f"exit code {code}"
    first, _, body = text.partition("\n")
    if first != header:
        return f"header {first!r}"
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        return f"payload does not parse: {exc}"
    if not isinstance(payload, dict):
        return "payload is not an object"
    return None


def _oracle_problem(result, header):
    problem = _analyze_problem(result, header)
    if problem:
        return problem
    oracle = json.loads(result[1].partition("\n")[2]).get("oracle") or {}
    flags = {**oracle.get("agreement", {}), **oracle.get("structure", {})}
    if not flags:
        return f"no oracle verdicts: {oracle}"
    bad = sorted(k for k, v in flags.items() if v is not True)
    return f"oracle disagrees on {bad}" if bad else None


def _analyze_output(result):
    return result[1].encode()


def analyze_op(program, spec, oracle=False, probe=False):
    cli = program.cli
    argv = ["analyze", "--oracle", spec] if oracle else ["analyze", spec]
    problem = _oracle_problem if oracle else _analyze_problem
    return Op(
        op_id=spec,
        run=lambda: run_analyze(cli, argv),
        check=lambda result: problem(result, cli.HEADER),
        output=_analyze_output,
        probe=probe,
    )


# -- verifier ops ------------------------------------------------------------


def _report_output(report):
    return json.dumps(report.payload(), separators=(",", ":")).encode()


def _report_problem(report):
    if report.total_failures:
        return "; ".join(
            f"{o.rule_id} {o.instance}: {o.witness}" for o in report.failures()
        )
    return None


def verifier_op(program, instance, rule_ids=None):
    verifier = program.verifier
    return Op(
        op_id=f"{instance.kind}:{instance.spec_text}",
        run=lambda: verifier.run_all([instance], rule_ids=rule_ids),
        check=_report_problem,
        output=_report_output,
    )


# -- the workloads -----------------------------------------------------------


def _limited(items, limit):
    return items if limit is None else items[:limit]


def _verify_ops(program, limit):
    corpus = program.verifier.generate_corpus()
    return [verifier_op(program, inst) for inst in _limited(corpus, limit)]


def _verify_finish(program, results):
    """The whole-corpus report from the per-instance outcomes, in corpus
    order: no failures, and the corpus fingerprint of the seed."""
    verifier = program.verifier
    corpus = verifier.generate_corpus()
    errors = []
    if len(corpus) != DEFAULT_CORPUS_SIZE:
        errors.append(f"corpus has {len(corpus)} instances")
    outcomes = []
    for inst in corpus:
        report = results.get(f"{inst.kind}:{inst.spec_text}")
        if report is not None:
            outcomes.extend(report.outcomes)
    whole = verifier.TheoremReport(corpus, verifier.RULE_IDS, outcomes)
    if whole.fingerprint != DEFAULT_CORPUS_FINGERPRINT:
        errors.append(f"corpus fingerprint {whole.fingerprint}")
    if whole.total_failures:
        errors.append(f"{whole.total_failures} rule failures")
    return errors


def _ladder_ops(program, limit):
    ops = [analyze_op(program, s) for s in _limited(LADDER_SPECS, limit)]
    ops += [analyze_op(program, s, probe=True) for s in LADDER_PROBES]
    return ops


def _oracle_ops(program, limit):
    return [analyze_op(program, s, oracle=True) for s in _limited(ORACLE_SPECS, limit)]


def _ring_ops(program, limit):
    Instance = program.verifier.Instance
    return [
        verifier_op(program, Instance("ring", s), list(RING_RULES))
        for s in _limited(RING_SPECS, limit)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-default",
            "qdivtop verify as users run it: 391 instances through all 22 rules; "
            "lattice and scalar classes dominate",
            _verify_ops,
            _verify_finish,
        ),
        Workload(
            "analyze-ladder",
            "analyze on single large modules up to the element cap; scalar "
            "classes, the module quasi-second search and F_p[x] arithmetic "
            "dominate, the oracle is idle",
            _ladder_ops,
        ),
        Workload(
            "oracle-dense",
            "analyze --oracle at or near the 14-point cap, antichain and chain "
            "shaped orders; open-set enumeration and axiom sweeps dominate",
            _oracle_ops,
            deadline_s=60.0,
        ),
        Workload(
            "rings-qs",
            "R14 and R15 on larger catalog rings: ring arithmetic used as a "
            "ring, brute-force quasi-second search and classification",
            _ring_ops,
        ),
    )
}
