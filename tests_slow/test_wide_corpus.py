"""The wide corpus: its full rule report pinned by a digest, and the
structural predicates, the submodule lattice, the space's order and the
oracle's T3, T4 and T5 against the references of ``tests/test_modules.py``,
``tests/test_topology.py`` and ``tests/test_oracle.py``, which Tier-1
compares on the default corpus."""

import hashlib
import time

from qdivtop import modules, oracle, topology, verifier
from common import WIDE_CORPUS
from test_modules import literal_predicates, two_summand_count
from test_oracle import literal_t3, literal_t4, literal_t5
from test_topology import literal_up_down

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


def test_order_on_every_wide_module_is_the_literal_order():
    # the order read off the points a*(1,...,1) against the pairwise
    # inclusion of the class images, about 2 s raw
    start = time.perf_counter()
    corpus = verifier.generate_corpus(WIDE_CORPUS)
    specs = [i.spec_text for i in corpus if i.kind == "module"]
    assert len(specs) == 2277
    for spec in specs:
        s = topology.build_space(modules.build_module(spec))
        assert (s.up, s.down) == literal_up_down([c.image.mask for c in s.classes]), spec
    assert time.perf_counter() - start < 30


def test_oracle_t3_t4_t5_on_every_distinct_wide_space_match_the_literal_sweeps():
    # the pair tests against the sweeps over the closed sets, pairs of
    # closed sets and pairs of subsets, T5 up to oracle.T5_CAP points; about
    # 2 s raw, most of it building the spaces
    start = time.perf_counter()
    corpus = verifier.generate_corpus(WIDE_CORPUS)
    spaces = {}
    for i in corpus:
        if i.kind == "module":
            s = topology.build_space(modules.build_module(i.spec_text))
            spaces.setdefault(s.up, (i.spec_text, s))
    t5_checked = 0
    for spec, s in spaces.values():
        topo = oracle.enumerate_open_sets(s)
        assert oracle.oracle_axiom(topo, "T3") == literal_t3(topo), spec
        assert oracle.oracle_axiom(topo, "T4") == literal_t4(topo), spec
        if topo.n <= oracle.T5_CAP:
            assert oracle.oracle_axiom(topo, "T5") == literal_t5(topo), spec
            t5_checked += 1
    assert (len(spaces), t5_checked) == (126, 68)
    assert time.perf_counter() - start < 30
