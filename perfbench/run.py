#!/usr/bin/env python3
"""qdivtop benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there. The seed only permutes the order of the workload's fixed op list.
One full pass runs, then ops repeat in the same cyclic order until
``--seconds`` have passed; an op's latency is the median of its runs.
Every op runs under a per-op deadline (SIGALRM from ``signal.setitimer``,
no threads) and its output is checked. Times are normalized to a
reference host speed (see speed.py).

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics. With ``--trace 1`` the measurement is followed by a
traced pass over the same ops, whose outputs must match byte for byte;
the JSON then carries the per-layer metrics and the spans go to
``perfbench/out/``. Lines before the JSON are a readable summary.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads as wl
from speed import SpeedMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SETUP_RUNS = 11
SETUP_TIMEOUT_S = 60
LAYERS = ("scalars", "rings", "modules", "topology", "oracle", "verifier", "cli")
# gated by BENCHMARK.json bounds
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# printed on every run; reported with the layer metrics under --trace 1
RUN_METRICS = {
    "failed_ops_ratio": "ratio",
    "probe.missed": "count",
    "outputs.changed": "count",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER = {**tracing.METRICS, **RUN_METRICS}


class DeadlineMissed(BaseException):
    """Raised by the SIGALRM handler; a BaseException so that no handler
    in the program swallows it."""


def _alarm(signum, frame):
    raise DeadlineMissed


def load_program():
    """Import every layer of qdivtop from this checkout's src/."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        layers = {name: importlib.import_module(f"qdivtop.{name}") for name in LAYERS}
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import qdivtop from {src}: {exc}")
    where = Path(layers["cli"].__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"perfbench: qdivtop came from {where}, not from {src}")
    return SimpleNamespace(**layers)


@dataclass
class Sample:
    op_id: str
    probe: bool
    seconds: float  # wall time minus the speed meter's own time
    window: tuple  # speed samples (first, last) around the op
    charged: bool = False  # failed: seconds is at least the deadline
    missed: bool = False
    problem: str | None = None
    digest: str | None = None


def _timed(fn, deadline):
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineMissed:
        return time.perf_counter() - start, None, "missed"
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, None


def _digest(op, result):
    return hashlib.sha256(op.output(result)).hexdigest()


def latency(sample, meter):
    """Normalized seconds; a failed op is charged its wall time, which is
    at least its deadline."""
    if sample.charged:
        return sample.seconds
    return sample.seconds * meter.factor(*sample.window)


def run_ops(ops, deadline, canary, meter, results, tracer=None):
    """Run ops in order, closed loop; fills results with op id -> result."""
    samples = []
    for op in ops:
        fn = op.run if tracer is None else (lambda op=op: tracer.run_op(op.op_id, op.run))
        gc.collect()
        first, overhead = meter.mark()
        wall, result, error = _timed(fn, deadline)
        last, overhead_end = meter.mark()
        sample = Sample(op.op_id, op.probe, wall - (overhead_end - overhead), (first, last))
        if error:
            sample.charged = True
            sample.seconds = max(wall, deadline)
        if error == "missed":
            sample.missed = True
            if not op.probe:
                sample.problem = f"missed its {deadline:g} s deadline"
            else:
                sample.problem = canary.after_missed_probe()
        elif error:
            sample.problem = error
        else:
            sample.problem = op.check(result)
            sample.digest = _digest(op, result)
            results[op.op_id] = result
        samples.append(sample)
    return samples


def measure(ops, deadline, canary, meter, results, seconds):
    """One full pass, then more ops in the same cyclic order until
    `seconds` have passed. Probes run in the first pass only; a second
    miss would only repeat the deadline."""
    start = time.perf_counter()
    samples = run_ops(ops, deadline, canary, meter, results)
    again = [op for op in ops if not op.probe]
    i = 0
    while again and time.perf_counter() - start < seconds:
        samples += run_ops([again[i % len(again)]], deadline, canary, meter, results)
        i += 1
    return samples


class Canary:
    """A cheap op whose output must not change after a probe is cut off."""

    def __init__(self, program, deadline):
        self.op = wl.analyze_op(program, wl.CANARY_SPEC)
        self.deadline = deadline
        self.digest = self._run()

    def _run(self):
        _, result, error = _timed(self.op.run, self.deadline)
        if error or self.op.check(result):
            raise SystemExit(f"perfbench: canary {self.op.op_id} failed: {error}")
        return _digest(self.op, result)

    def after_missed_probe(self):
        if self._run() != self.digest:
            return f"canary {self.op.op_id} output changed after the probe was cut off"
        return None


def measure_setup(args):
    """Median normalized time of fresh processes that import the program
    and build the op list, then exit. Each process meters its own speed
    and reports the factor and the meter's time on stdout."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed: {proc.stderr.strip()}")
        factor, overhead = json.loads(proc.stdout)
        times.append((wall - overhead) * factor)
    return statistics.median(times)


def tail(values):
    """(latency, percentile) at the highest percentile that leaves at least
    ten samples beyond it; the maximum when there are under 100 samples."""
    xs = sorted(values)
    if len(xs) < 100:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def _load_digests():
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text())
    return {}


def _record_digests(workload, samples):
    table = _load_digests()
    table[workload] = {s.op_id: s.digest for s in samples if s.digest}
    table[workload] = dict(sorted(table[workload].items()))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="keep only the first N listed ops (probes stay)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-op deadline in seconds (default: the workload's)")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests as the baseline")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    meter = SpeedMeter()
    meter.start()
    program = load_program()
    ops = workload.build_ops(program, args.limit)
    if args.setup_only:
        meter.stop()
        print(json.dumps([meter.factor(), meter.overhead]))
        return 0
    setup_s = measure_setup(args)
    random.Random(args.seed).shuffle(ops)
    deadline = args.deadline or workload.deadline_s
    signal.signal(signal.SIGALRM, _alarm)
    canary = Canary(program, deadline)

    results = {}
    untraced = measure(ops, deadline, canary, meter, results, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = traced = None
    if args.trace:
        tracer = tracing.Tracer(program)
        tracer.install()
        traced_from, _ = meter.mark()
        try:
            traced = run_ops(
                [op for op in ops if not op.probe], deadline, canary, meter, {}, tracer
            )
        finally:
            tracer.uninstall()
        traced_factor = meter.factor(traced_from, meter.mark()[0])
    meter.stop()

    # -- correctness -----------------------------------------------------------
    every = untraced + (traced or [])
    problems = [f"{s.op_id}: {s.problem}" for s in every if s.problem]
    failed = len(problems)
    first = {}
    for s in every:
        if s.digest and first.setdefault(s.op_id, s.digest) != s.digest:
            problems.append(f"{s.op_id}: output differs between runs or under tracing")
    if workload.finish:
        problems += workload.finish(program, results)
    correct = not problems
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)

    baseline = _load_digests().get(args.workload, {})
    changed = sorted(
        op_id for op_id, d in first.items() if op_id in baseline and baseline[op_id] != d
    )
    if args.record_digests:
        _record_digests(args.workload, untraced)

    # -- end-to-end metrics (untraced) -------------------------------------------
    by_op = {}
    for s in untraced:
        by_op.setdefault(s.op_id, []).append(latency(s, meter))
    op_latency = {op_id: statistics.median(xs) for op_id, xs in by_op.items()}
    tail_s, tail_pct = tail(op_latency.values())
    missed_probes = sum(1 for s in untraced if s.probe and s.missed)
    failed_untraced = sum(1 for s in untraced if s.problem) + missed_probes
    values = {
        "setup_s": setup_s,
        "wall_s": sum(op_latency.values()),
        "op_p50_ms": 1000 * statistics.median(op_latency.values()),
        "op_tail_ms": 1000 * tail_s,
        "peak_rss_mb": peak_rss_mb,
        "failed_ops_ratio": failed_untraced / len(untraced),
        "probe.missed": missed_probes,
        "outputs.changed": len(changed),
    }
    probes = sum(1 for op in ops if op.probe)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops "
          f"({probes} deadline probes), {len(untraced)} op runs, deadline {deadline:g} s; "
          f"an op's latency is the median of its runs")
    print(f"  setup_s           {values['setup_s']:.4f} s (median of {SETUP_RUNS} fresh processes)")
    print(f"  wall_s            {values['wall_s']:.4f} s (sum of op latencies: one pass)")
    print(f"  op_p50_ms         {values['op_p50_ms']:.3f} ms over {len(op_latency)} ops")
    print(f"  op_tail_ms        {values['op_tail_ms']:.3f} ms at p{tail_pct:.1f} "
          f"over {len(op_latency)} ops")
    print(f"  failed_ops_ratio  {values['failed_ops_ratio']:.4f} ({failed_untraced}/"
          f"{len(untraced)} op runs; {missed_probes} missed probes)")
    print(f"  peak_rss_mb       {values['peak_rss_mb']:.1f} MB")
    print(f"  raw wall time of all {len(untraced)} op runs "
          f"{sum(s.seconds for s in untraced):.4f} s; mean host speed factor "
          f"{meter.factor():.3f} (times above are normalized)")
    print(f"  outputs differing from {DIGESTS.name}: {len(changed)}"
          + (f" ({', '.join(changed[:5])})" if changed else ""))

    if not args.trace:
        units = END_TO_END
    else:
        units = PER_LAYER
        probe_ids = {op.op_id for op in ops if op.probe}
        untraced_wall = sum(t for k, t in op_latency.items() if k not in probe_ids)
        traced_wall = sum(latency(s, meter) for s in traced)
        values.update(tracer.metrics(traced_factor))
        values["trace.overhead_ratio"] = traced_wall / untraced_wall
        print(f"traced pass: {traced_wall:.4f} s over {len(traced)} ops "
              f"(untraced {untraced_wall:.4f} s), {len(tracer.spans)} spans")
        shares = tracer.layer_shares()
        total = sum(seconds for _, seconds in shares)
        for layer, seconds in shares:
            print(f"  {layer:<18} {seconds * traced_factor:9.4f} s self  "
                  f"{100 * seconds / total:5.1f}%")
        if tracer.missing:
            print(f"  not traced (absent): {', '.join(tracer.missing)}")
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(out, {"workload": args.workload, "seed": args.seed})

    print(json.dumps({
        "correct": correct,
        "attempted": len(every),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
