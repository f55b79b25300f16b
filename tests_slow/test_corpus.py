"""The widest corpus the ``corpus`` command lists, pinned by a digest."""

import hashlib

from test_cli import run_cli

# sha256 of the stdout of ``corpus --summands 12 --max-order 4096``: 18,855
# instances, 12 summands being the most that 4096 elements hold.  Listing
# every multiset of up to 12 moduli before testing its size took 14-15 s on
# a 2-vCPU machine; the walk that stops at the cap takes well under 1 s
CORPUS_AT_THE_CAP_SHA256 = "13d902ec24d5e5246b6cac0c6f137fecad54a8496027a879426ff91b2d62ac5b"


def test_corpus_at_the_element_cap_pinned(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--summands", "12", "--max-order", "4096", within=5)
    assert (code, out.count("\n")) == (0, 18855)
    assert hashlib.sha256(out.encode()).hexdigest() == CORPUS_AT_THE_CAP_SHA256
