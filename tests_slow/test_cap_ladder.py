"""Checks at the element cap that Tier-1 leaves out for time: the commands
in a fresh process where time or memory is bounded, and the rule report
pinned."""

import hashlib
import time

import pytest

from qdivtop import modules, topology, verifier
from qdivtop.verifier import FAIL, PASS, VACUOUS, Instance, run_rule
from common import CAP_LADDER, fresh_python
from test_cli import nested_prod
from test_mutants import product_rows_joined_in_swapped_order
from test_topology import literal_up_down


# the 4,096-element Boolean ring, 4,094 points: analyze writes 64 MB and
# took up to 2.3 s raw on a 2-vCPU machine, dot up to 1.1 s.  The bound is
# the README's at the element cap
@pytest.mark.parametrize("spec", CAP_LADDER + (pytest.param(nested_prod(11), id="boolean"),))
@pytest.mark.parametrize("command", ["analyze", "dot"])
def test_cap_ladder_finishes_in_time(command, spec):
    assert fresh_python("-m", "qdivtop.cli", command, spec, timeout=15).returncode == 0


@pytest.mark.parametrize("spec", CAP_LADDER + ("ring:Prod(Zn(2),Trunc(2,10))",))
def test_order_at_the_cap_is_the_literal_order(spec):
    # up to 2,048 points, compared pair by pair in both directions: at most
    # about 1.6 s raw each
    start = time.perf_counter()
    s = topology.build_space(modules.build_module(spec))
    assert (s.up, s.down) == literal_up_down([c.image.mask for c in s.classes])
    assert time.perf_counter() - start < 15


@pytest.mark.parametrize("spec", ["Z:2310", "Z:1260"])
def test_r20_on_the_widest_integer_moduli(spec):
    # the lcm sweep runs once per class triple: Z:2310 (1,829 class
    # residues) takes about 2.4 s raw, Z:1260 0.6 s
    start = time.perf_counter()
    assert run_rule("R20", Instance("module", spec)).verdict == PASS
    assert time.perf_counter() - start < 20


# VmHWM is the peak RSS since exec; ru_maxrss would count the test process
# that spawned the run too
R21_WITH_PEAK_RSS = """
import sys
from qdivtop.verifier import Instance, run_rule
verdict = run_rule("R21", Instance("module", sys.argv[1])).verdict
with open("/proc/self/status") as status:
    peak_kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(verdict, int(peak_kb) / 1024, file=sys.stderr)
"""


@pytest.mark.parametrize("spec", ["Z:2310", "Z:1260", "F2[x]:x^8", "F3[x]:x^5"])
def test_r21_on_wide_instances_in_a_fresh_process(spec):
    # one direct image per tuple of gcd(a mod d, d) over the moduli d: Z:2310
    # peaks at about 21 MB RSS, against 97 MB with every span kept
    verdict, peak_mb = fresh_python("-c", R21_WITH_PEAK_RSS, spec, timeout=20).stderr.split()
    assert verdict == PASS
    assert spec != "Z:2310" or float(peak_mb) < 30


# sha256 of one line "rule_id<TAB>instance<TAB>verdict<TAB>note" per outcome
# of all 22 rules on the cap ladder, and on GF(3,x^7+x+1) as a ring
# instance, in report order.  A change that moves a verdict or a note
# re-records it and names each outcome that moved
CAP_LADDER_REPORT_SHA256 = "906b8f62da4cfd640a330da1eeb5862d9f556fb8cfde2906b5fc331af239e4e8"


def test_cap_ladder_report_pinned():
    # 308 outcomes: 0 failures, 75 passes and 233 vacuous, 13 of them for a
    # size cap on ring:Trunc(2,11).  In one process it took 21-27 s raw on a
    # 2-vCPU machine, about 12.5 s of it on ring:Trunc(2,11); the bound is
    # 90 s
    start = time.perf_counter()
    corpus = [Instance("module", s) for s in CAP_LADDER] + [
        Instance("ring", "GF(3,x^7+x+1)")
    ]
    report = verifier.run_all(corpus)
    digest = hashlib.sha256()
    for o in report.outcomes:
        digest.update(f"{o.rule_id}\t{o.instance}\t{o.verdict}\t{o.note}\n".encode())
    assert (len(report.outcomes), report.total_failures) == (308, 0)
    assert digest.hexdigest() == CAP_LADDER_REPORT_SHA256, report.tallies()
    assert time.perf_counter() - start < 90


OVERFLOW = "OverflowError: unsigned short is greater than maximum"


@pytest.mark.parametrize(
    "rule_id, spec, pinned, witness",
    [
        (
            "R10",
            "ring:Prod(GF(2,x^6+x+1),GF(2,x^6+x+1))",
            PASS,
            "class [(0,1)]: annihilator of the image is not maximal (killer ideal ",
        ),
        ("R9", "ring:Prod(Zn(4),Trunc(2,9))", VACUOUS, OVERFLOW),
    ],
)
def test_swapped_product_rows_move_the_cap_ladder_report(
    monkeypatch, rule_id, spec, pinned, witness
):
    # the pinned report's outcome, and under the fault the outcome it moves
    # to; no other outcome of the report moves.  The swapped rows of
    # Prod(Zn(4),Trunc(2,9)) hold indices past 65,535, which a module row
    # cannot store in an array('H'): R9's second-submodule test reads one
    # for a section's image and fails with the exception as its witness,
    # where the ring was not quasi second and R9 vacuous.  Principal ideals
    # read no row, so R1, R2 and R17 stay vacuous for the oracle's size
    # cap.  On the GF(2^6) square the rows stay in range and R10 sees a
    # class whose annihilator is not maximal (the witness is cut before its
    # killer ideal, a set of 64 elements).  Both took under 0.2 s raw on a
    # 2-vCPU machine; the bound is 15 s
    start = time.perf_counter()
    instance = Instance("module", spec)
    assert run_rule(rule_id, instance).verdict == pinned
    product_rows_joined_in_swapped_order(monkeypatch)
    outcome = run_rule(rule_id, instance)
    assert outcome.verdict == FAIL and outcome.witness.startswith(witness), outcome
    assert time.perf_counter() - start < 15
