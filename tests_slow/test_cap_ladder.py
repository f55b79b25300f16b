"""Checks at the element cap that Tier-1 leaves out for time, in a fresh
process where time or memory is bounded."""

import time

import pytest

from qdivtop.verifier import PASS, Instance, run_rule
from common import CAP_LADDER, fresh_python
from test_cli import nested_prod


# the 4,096-element Boolean ring, 4,094 points: analyze writes 64 MB and
# took up to 6.6 s raw on a 2-vCPU machine, dot up to 4.7 s.  The bound is
# the README's at the element cap, twice the slowest run measured
@pytest.mark.parametrize("spec", CAP_LADDER + (pytest.param(nested_prod(11), id="boolean"),))
@pytest.mark.parametrize("command", ["analyze", "dot"])
def test_cap_ladder_finishes_in_time(command, spec):
    assert fresh_python("-m", "qdivtop.cli", command, spec, timeout=15).returncode == 0


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
