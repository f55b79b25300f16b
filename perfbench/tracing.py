"""Outside-in tracing: spans and counts around calls into each layer.

The tracer replaces module attributes, class methods and table entries of
the loaded program with wrappers, and puts the originals back afterwards;
the program's files are never edited. A span records (name, start, end,
parent span, op id). A layer's self time is its spans' durations minus the
time covered by their child spans. Scalar arithmetic is counted, not timed,
to keep the overhead down.

Every metric in ``METRICS`` is always reported, as 0 when the program no
longer has the function behind it, so that the benchmark keeps running
when a later change deletes or renames one.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import Counter, defaultdict

AXIOM_NAMES = (
    "T0", "T1", "T2", "T3", "T4", "T5", "discrete", "connected",
    "hyperconnected", "ultraconnected", "alexandrov", "noetherian", "baire",
)
RULE_NAMES = tuple(f"R{k}" for k in range(1, 23))

# (span name, module, attribute); "modules.FiniteModule" names a class
SPANS = (
    ("rings.build_ring", "rings", "build_ring"),
    ("rings.qs_brute", "rings", "quasi_second_ring_violation"),
    ("rings.classify", "rings", "classify_quasi_second_ring"),
    ("modules.build", "modules", "build_module"),
    ("modules.build", "modules", "cyclic_sum"),
    ("modules.build", "modules", "ring_cyclic"),
    ("modules.classes", "modules", "scalar_classes"),
    ("modules.lattice", "modules", "enumerate_submodules"),
    ("modules.lattice", "modules.FiniteModule", "lattice_masks"),
    ("modules.preds", "modules", "structural_predicates"),
    ("modules.qs", "modules", "find_quasi_second_violation"),
    ("modules.derived", "modules", "submodule_as_module"),
    ("modules.derived", "modules", "quotient_module"),
    ("modules.derived", "modules", "direct_sum"),
    ("modules.wsplit", "modules", "weak_idempotent_split"),
    ("topology", "topology", "build_space"),
    ("topology", "topology", "separation_report"),
    ("topology", "topology", "connectivity_report"),
    ("topology", "topology", "hasse_edges"),
    ("oracle.enum", "oracle", "enumerate_open_sets"),
    ("oracle.structure", "oracle", "oracle_structure_checks"),
    ("cli", "cli", "main"),
)
COUNTED = (("scalars", "pmul"), ("scalars", "pdivmod"), ("scalars", "padd"))

ROOT_SPAN = "op"


def _self_name(span):
    if span == "cli" or span.startswith("verifier.") or span == ROOT_SPAN:
        return f"{span}.self_s"
    return f"{span}.s"


def _metric_list():
    spans = [s for s, _, _ in SPANS]
    spans += [f"oracle.axiom.{a}" for a in AXIOM_NAMES]
    spans += [f"verifier.{r}" for r in RULE_NAMES]
    spans.append(ROOT_SPAN)
    out = {}
    for span in spans:
        out[_self_name(span)] = "s"
    for module, attr in COUNTED:
        out[f"{module}.{attr}.calls"] = "count"
    for name in (
        "rings.build_ring.calls", "rings.order_sum",
        "modules.classes.count", "modules.classes.residues",
        "modules.classes.image_elems", "modules.lattice.size",
        "modules.qs.calls", "topology.points", "oracle.opens",
        "verifier.outcomes",
    ):
        out[name] = "count"
    out["verifier.exercised_ratio"] = "ratio"
    return out


# layer metric name -> unit; counts must repeat exactly between runs
METRICS = _metric_list()


class Tracer:
    def __init__(self, program):
        self.program = program
        self.spans = []  # [name, start, end, parent index, op id]
        self._stack = []  # [span index, seconds covered by children]
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.missing = []
        self._op = None
        self._held = {}  # keeps per-op objects alive so their ids stay unique
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, after=None):
        spans, stack, self_s = self.spans, self._stack, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1][0] if stack else None, self._op]
            stack.append([len(spans), 0.0])
            spans.append(rec)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                _, covered = stack.pop()
                rec[1], rec[2] = start, end
                self_s[name] += end - start - covered
                if stack:
                    stack[-1][1] += end - start
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, key, fn, after=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def run_op(self, op_id, fn):
        """Run one op under a root span; per-op bookkeeping starts afresh."""
        self._op = op_id
        self._held = {}
        try:
            return self.span(ROOT_SPAN, fn)()
        finally:
            self._op = None
            self._held = {}

    def _first(self, tag, obj):
        """True the first time this op sees obj under tag."""
        key = (tag, id(obj))
        if key in self._held:
            return False
        self._held[key] = obj
        return True

    # -- counters at layer boundaries ------------------------------------------

    def _after_build_ring(self, args, ring):
        self.counts["rings.build_ring.calls"] += 1
        self.counts["rings.order_sum"] += ring.order

    def _after_classes(self, args, classes):
        E = args[0]
        if self._first("classes", E):
            self.counts["modules.classes.count"] += len(classes)
            self.counts["modules.classes.residues"] += E.residue_ring.order
            self.counts["modules.classes.image_elems"] += sum(
                c.image.size for c in classes
            )

    def _after_lattice(self, args, lattice):
        if self._first("lattice", args[0]):
            self.counts["modules.lattice.size"] += len(lattice)

    def _after_qs(self, args, result):
        self.counts["modules.qs.calls"] += 1

    def _after_space(self, args, space):
        self.counts["topology.points"] += space.n

    def _after_enum(self, args, topo):
        self.counts["oracle.opens"] += len(topo.opens)

    def _after_run_all(self, args, report):
        verifier = self.program.verifier
        for o in report.outcomes:
            self.counts["verifier.outcomes"] += 1
            if o.verdict in (verifier.PASS, verifier.FAIL):
                self.counts["verifier.exercised"] += 1

    # -- install / uninstall -----------------------------------------------------

    def _resolve(self, where):
        module, _, cls = where.partition(".")
        obj = getattr(self.program, module)
        return getattr(obj, cls) if cls else obj

    def _replace_everywhere(self, original, wrapper):
        """Rebind every name in the package bound to original, so that
        ``from x import f`` copies see the wrapper too."""
        for name, mod in list(sys.modules.items()):
            if name != "qdivtop" and not name.startswith("qdivtop."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((setattr, mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        after = {
            "build_ring": self._after_build_ring,
            "scalar_classes": self._after_classes,
            "lattice_masks": self._after_lattice,
            "find_quasi_second_violation": self._after_qs,
            "build_space": self._after_space,
            "enumerate_open_sets": self._after_enum,
        }
        for name, where, attr in SPANS:
            owner = self._resolve(where)
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{where}.{attr}")
                continue
            wrapper = self.span(name, original, after.get(attr))
            if isinstance(owner, type):
                self._undo.append((setattr, owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        for module, attr in COUNTED:
            original = getattr(getattr(self.program, module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._replace_everywhere(
                original, self.counter(f"{module}.{attr}.calls", original)
            )
        verifier = self.program.verifier
        self._replace_everywhere(
            verifier.run_all,
            self.counter("verifier.run_all.calls", verifier.run_all, self._after_run_all),
        )
        axioms = getattr(self.program.oracle, "_AXIOMS", {})
        for name, fn in list(axioms.items()):
            self._undo.append((dict.__setitem__, axioms, name, fn))
            axioms[name] = self.span(f"oracle.axiom.{name}", fn)
        for rid, rule in list(verifier.RULES.items()):
            self._undo.append((dict.__setitem__, verifier.RULES, rid, rule))
            verifier.RULES[rid] = dataclasses.replace(
                rule, fn=self.span(f"verifier.{rid}", rule.fn)
            )

    def uninstall(self):
        while self._undo:
            put, owner, key, original = self._undo.pop()
            put(owner, key, original)

    # -- results -------------------------------------------------------------

    def metrics(self, speed=1.0):
        """A value for every name in METRICS; self times are multiplied by
        the host speed factor over the traced pass."""
        out = {}
        for name, unit in METRICS.items():
            if unit == "s":
                out[name] = speed * self.self_s.get(name.rsplit(".", 1)[0], 0.0)
            elif unit == "count":
                out[name] = self.counts.get(name, 0)
        outcomes = self.counts["verifier.outcomes"]
        out["verifier.exercised_ratio"] = (
            self.counts["verifier.exercised"] / outcomes if outcomes else 0.0
        )
        return out

    def layer_shares(self):
        """Raw self time per layer, summed over its spans, largest first;
        the shares of the traced pass add up to its whole span time."""
        shares = defaultdict(float)
        for span, seconds in self.self_s.items():
            parts = span.split(".")
            layer = ".".join(parts[:2]) if parts[0] == "modules" else parts[0]
            shares[layer] += seconds
        return sorted(shares.items(), key=lambda kv: -kv[1])

    def dump(self, path, meta):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "op"]
        with open(path, "w") as fh:
            json.dump({**meta, "fields": fields, "spans": self.spans}, fh)
