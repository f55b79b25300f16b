"""Self-test of the benchmark on a tiny subset of each workload.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every metric BENCHMARK.json names is printed with its unit,
that outputs pass their checks, and that the per-layer counts repeat
exactly across two runs and two seeds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--limit", "2", "--deadline", "1", "--seconds", "0"]


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result["metrics"]


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_metrics_present(workload):
    metrics = bench(workload, 1, 0)
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_layer_counts_repeat(workload):
    runs = [bench(workload, seed, 1) for seed in (1, 1, 2)]
    for metrics in runs:
        for m in SPEC["per_layer"]:
            assert metrics[m["name"]]["unit"] == m["unit"]
    counts = [
        {m["name"]: r[m["name"]]["value"] for m in SPEC["per_layer"] if m["unit"] == "count"}
        for r in runs
    ]
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["probe.missed"] == len(
        workloads.LADDER_PROBES if workload == "analyze-ladder" else ()
    )


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = run.tail([float(i) for i in range(391)])
    assert value == 380.0 and 97 < pct < 98
