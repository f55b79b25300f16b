"""Command-line front end.

Subcommands: ``analyze`` (full report for one instance), ``dot`` (Hasse
diagram export), ``verify`` (rule suite over a corpus), ``corpus`` (print
the instance list).  Machine-readable output goes to stdout behind a
single version header line; a short human summary goes to stderr.  Output
is byte-identical across runs for the same inputs.

Exit codes: 0 success / all rules pass, 1 rule failure, 2 usage or parse
error or output that cannot be written, 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import __version__, modules, oracle, rings, topology, verifier
from .modules import SizeCapExceeded

HEADER = f"# qdivtop {__version__}"

EXIT_OK = 0
EXIT_RULE_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def parse_spec(text: str):
    """Parse an instance spec; module specs and bare ring expressions both
    round-trip through their canonical form."""
    s = text.strip()
    if ":" in s:
        return modules.build_module(s)
    return modules.ring_cyclic(rings.build_ring(s))


# the oracle axioms with a fast counterpart in ``separation`` or ``connectivity``
AGREEMENT_AXIOMS = (
    "T0", "T1", "T2", "T3", "discrete", "connected", "hyperconnected", "ultraconnected",
)


def _analyze_payload(E, with_oracle: bool):
    space = topology.build_space(E)
    sep = topology.separation_report(space)
    maximal = space.label_set(topology.maximal_classes(space))
    minimal = space.label_set(topology.minimal_classes(space))
    ann = modules.annihilator(E)
    ring = E.residue_ring
    labels, index = ring.labels, ring.index
    if E.moduli is None:
        ann = "{" + ",".join(sorted(labels[index(x)] for x in ann)) + "}"

    # E is second (every residue acts as zero or onto E) exactly when no
    # residue forms a scalar class, that is when the space is empty
    second = space.n == 0
    payload = {
        "spec": E.spec_text,
        "domain": E.residue_ring.domain_label,
        "order": E.order,
        "annihilator": str(ann),
        "second_module": second,
        "note": "second module (empty space)" if second else None,
        "quasi_second": modules.is_quasi_second(E),
        "points": space.n,
        "classes": [
            {
                "label": c.label,
                "members": [labels[index(m)] for m in c.members],
                "image": c.image.element_strs(),
                "image_size": c.image.size,
            }
            for c in space.classes
        ],
        "basis": {
            space.labels[i]: space.label_set(space.up[i])
            for i in range(space.n)
        },
        "hasse": [
            [space.labels[i], space.labels[j]] for i, j in topology.hasse_edges(space)
        ],
        "maximal_classes": maximal,
        "minimal_classes": minimal,
        # a point is isolated exactly when its basis set is the singleton,
        # i.e. when its image is maximal
        "isolated_points": maximal,
        "separation": {
            "T0": sep.t0,
            "T1": sep.t1,
            "T2": sep.t2,
            "T3": sep.t3,
            "discrete": sep.discrete,
            "metrizable": sep.metrizable,
            "empty": sep.empty,
        },
        "connectivity": dataclasses.asdict(topology.connectivity_report(space)),
        "compactness": {
            "compact": True,
            "lindelof": True,
            "minimal_element_count": len(minimal),
        },
        "countability": {"first_countable": True, "second_countable": True},
    }
    if E.moduli is None:
        payload["ring_order"] = ring.order
    try:
        payload["predicates"] = dataclasses.asdict(modules.structural_predicates(E))
    except SizeCapExceeded:
        payload["predicates"] = None
    split = modules.weak_idempotent_split(E)
    if split.kind == "split":
        payload["weak_idempotent_split"] = {
            "idempotent": labels[index(split.idempotent)],
            "parts": [p.element_strs() for p in split.parts],
        }
    else:
        payload["weak_idempotent_split"] = split.kind

    if with_oracle:
        try:
            topo = oracle.enumerate_open_sets(space)
        except SizeCapExceeded:
            payload["oracle"] = {"skipped": "beyond the oracle open-set cap"}
        else:
            axioms = {}
            for name in oracle.AXIOMS:
                try:
                    axioms[name] = oracle.oracle_axiom(topo, name)
                except SizeCapExceeded:  # T5 past T5_CAP points
                    axioms[name] = None
            fast = payload["separation"] | payload["connectivity"]
            payload["oracle"] = {
                "opens_count": len(topo.opens),
                "axioms": axioms,
                "agreement": {a: axioms[a] == fast[a] for a in AGREEMENT_AXIOMS},
                "structure": dataclasses.asdict(
                    oracle.oracle_structure_checks(topo, space)
                ),
                "related_rules": {
                    "T1": "R2",
                    "discrete": "R3",
                    "T3": "R17",
                    "hyperconnected": "R5",
                },
            }
    return payload


def _write(text: str, out) -> None:
    """The text to stdout, or to the file ``out`` with a note on stderr."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _emit(payload, compact: bool, out) -> None:
    """The header line and the payload; a file always gets the indented
    form."""
    if compact and not out:
        body = json.dumps(payload, separators=(",", ":"))
    else:
        body = json.dumps(payload, indent=2)
    _write(f"{HEADER}\n{body}\n", out)


def cmd_analyze(args) -> int:
    E = parse_spec(args.spec)
    payload = _analyze_payload(E, args.oracle)
    _emit(payload, args.json, args.out)
    sep = payload["separation"]
    print(
        f"{payload['spec']}: {payload['points']} points, "
        f"T1={sep['T1']}, quasi_second={payload['quasi_second']}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_dot(args) -> int:
    E = parse_spec(args.spec)
    space = topology.build_space(E)
    lines = ["digraph quasi_divisor_space {", f"  // spec: {E.spec_text}"]
    if space.n == 0:
        lines.append("  // empty space (second module)")
    for i in range(space.n):
        size = space.classes[i].image.size
        lines.append(f'  n{i} [label="{space.labels[i]} |aE|={size}"];')
    for i, j in topology.hasse_edges(space):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return EXIT_OK


def _corpus_spec_from_args(args) -> verifier.CorpusSpec:
    kwargs = {}
    if args.max_order is not None:
        kwargs["element_cap"] = args.max_order
    if args.summands is not None:
        kwargs["max_summands"] = args.summands
    return verifier.CorpusSpec(**kwargs)


def cmd_verify(args) -> int:
    spec = _corpus_spec_from_args(args)
    rule_ids = None
    if args.rules is not None:
        rule_ids = [r.strip() for r in args.rules.split(",") if r.strip()]
    report = verifier.run_all(spec, rule_ids=rule_ids)
    payload = report.payload()
    _emit(payload, args.json, args.out)
    for entry in payload["rules"]:
        print(
            f"{entry['rule_id']}: pass={entry['pass']} fail={entry['fail']} "
            f"vacuous={entry['vacuous']}",
            file=sys.stderr,
        )
    summary = "OK" if report.total_failures == 0 else "FAILURES"
    print(
        f"verify: {summary} ({report.total_failures} failures over "
        f"{report.corpus_size} instances)",
        file=sys.stderr,
    )
    return EXIT_OK if report.total_failures == 0 else EXIT_RULE_FAILURE


def cmd_corpus(args) -> int:
    spec = _corpus_spec_from_args(args)
    for inst in verifier.generate_corpus(spec):
        print(f"{inst.kind}\t{inst.spec_text}")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    it looks up stdout and stderr when it writes."""
    max_order_help = (
        "sets the element cap to N and the ring order cap to min(N, 64); the "
        "moduli stay 2..9 and the polynomial degree at most 3, so any "
        "N >= 81 gives the default 391 instances"
    )
    summands_help = "sets the largest number of summands (default 2)"
    parser = argparse.ArgumentParser(
        prog="qdivtop",
        description="quasi divisor topologies of finite modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one module or ring spec")
    p_analyze.add_argument("spec")
    p_analyze.add_argument("--oracle", action="store_true")
    p_analyze.add_argument("--json", action="store_true", help="compact payload")
    p_analyze.add_argument("--out")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_dot = sub.add_parser("dot", help="export the Hasse diagram as a digraph")
    p_dot.add_argument("spec")
    p_dot.add_argument("--out")
    p_dot.set_defaults(fn=cmd_dot)

    p_verify = sub.add_parser("verify", help="run the rule suite over a corpus")
    p_verify.add_argument("--rules", help="comma-separated rule ids, e.g. R2,R14")
    p_verify.add_argument("--max-order", type=int, metavar="N", help=max_order_help)
    p_verify.add_argument("--summands", type=int, help=summands_help)
    p_verify.add_argument("--out")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(fn=cmd_verify)

    p_corpus = sub.add_parser("corpus", help="print the corpus instance list")
    p_corpus.add_argument("--max-order", type=int, metavar="N", help=max_order_help)
    p_corpus.add_argument("--summands", type=int, help=summands_help)
    p_corpus.set_defaults(fn=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # an --out path that cannot be written, or a closed stdout
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # what is left in the buffer goes nowhere at exit, not to the pipe
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_USAGE


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
