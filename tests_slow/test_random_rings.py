"""The rule suite beyond the catalog: all 22 rules on seeded random rings,
as ring instances and as ``ring:`` modules, with the report pinned."""

import hashlib
import time

from qdivtop import verifier
from qdivtop.verifier import PASS, Instance
from common import RANDOM_RINGS

# sha256 of one line "rule_id<TAB>instance<TAB>verdict<TAB>note" per outcome
# of all 22 rules on RANDOM_RINGS, every ring as a ring instance and then as
# a ring: module, in report order.  A change that moves a verdict or a note
# re-records it and names each outcome that moved
RANDOM_RING_REPORT_SHA256 = "494beea1b2654c9bce4e6c5716eaaa58aa7d1ddde8cf7563f684157cb15d59d3"


def test_random_ring_report_pinned():
    # 737 rings, 455 of them Prod rings (270 over a Zn factor): 1,474
    # instances and 32,428 outcomes, 0 failures.  R15 passes on 34 of them,
    # against 2 on the default corpus.  It took 9-10 s raw on a 2-vCPU
    # machine; the bound is 60 s
    start = time.perf_counter()
    corpus = [Instance("ring", s) for s in RANDOM_RINGS] + [
        Instance("module", f"ring:{s}") for s in RANDOM_RINGS
    ]
    report = verifier.run_all(corpus)
    digest = hashlib.sha256()
    for o in report.outcomes:
        digest.update(f"{o.rule_id}\t{o.instance}\t{o.verdict}\t{o.note}\n".encode())
    assert (len(RANDOM_RINGS), len(report.outcomes), report.total_failures) == (737, 32428, 0)
    assert report.tallies()["R15"][PASS] == 34
    assert digest.hexdigest() == RANDOM_RING_REPORT_SHA256, report.tallies()
    assert time.perf_counter() - start < 60
