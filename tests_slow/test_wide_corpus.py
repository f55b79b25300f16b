"""The wide corpus: its full rule report pinned by a digest, and the
structural predicates and the submodule lattice against the references of
``tests/test_modules.py``, which Tier-1 compares on the default corpus."""

import hashlib
import time

from qdivtop import modules, verifier
from common import WIDE_CORPUS
from test_modules import literal_predicates, two_summand_count

# sha256 of one line "rule_id<TAB>instance<TAB>verdict" per outcome, in
# report order; a deliberate verdict change re-records it
WIDE_REPORT_SHA256 = "03d86e473ef8b2b4ecfb4ac2aefb13eb39c4b828f3e546984d622126c84cc40c"


def test_wide_report_pinned():
    # all 22 rules on 2,391 instances, about 21 s raw
    start = time.perf_counter()
    report = verifier.run_all(WIDE_CORPUS)
    digest = hashlib.sha256()
    for o in report.outcomes:
        digest.update(f"{o.rule_id}\t{o.instance}\t{o.verdict}\n".encode())
    assert (report.corpus_size, report.total_failures) == (2391, 0)
    assert digest.hexdigest() == WIDE_REPORT_SHA256, report.tallies()
    assert time.perf_counter() - start < 60


def test_structural_predicates_on_every_eighth_wide_module():
    start = time.perf_counter()
    corpus = verifier.generate_corpus(WIDE_CORPUS)
    specs = [i.spec_text for i in corpus[::8] if i.kind == "module"]
    assert len(specs) == 285
    for spec in specs:
        E = modules.build_module(spec)
        preds = modules.structural_predicates(E)
        assert (preds.multiplication, preds.comultiplication) == literal_predicates(E), spec
    assert time.perf_counter() - start < 60


def test_lattice_on_the_wide_cyclic_sums():
    # Goursat's count on every two-summand sum, and the join closure on
    # every eighth cyclic sum: on all of them it takes about 60 s
    start = time.perf_counter()
    corpus = verifier.generate_corpus(WIDE_CORPUS)
    built = (modules.build_module(i.spec_text) for i in corpus if i.kind == "module")
    sums = [E for E in built if E.moduli is not None]
    pairs = [E for E in sums if len(E.moduli) == 2]
    assert (len(sums), len(pairs)) == (2163, 1782)
    for E in pairs:
        assert len(E.lattice_masks()) == two_summand_count(E), E.spec_text
    for E in sums[::8]:
        assert E.lattice_masks() == tuple(sorted(modules.lattice_by_joins(E))), E.spec_text
    assert time.perf_counter() - start < 120
