"""Instance lists and a process runner shared by ``tests/`` and
``tests_slow/``: each list is spelled out here once."""

import os
import subprocess
import sys

import qdivtop
from qdivtop import verifier

# catalog rings at or near the element cap.  Past the construction check,
# Ideal(Trunc(2,2),3) takes one ring product per digit for a row, and the
# mixed-radix Prod(Zn(4),Trunc(2,9)) and odd-characteristic
# Ideal(GF(3,x^2+1),2) join their rows from the factors' rows
CAP_LADDER_RINGS = (
    "Trunc(2,11)", "Trunc(3,6)", "Ideal(GF(2,x^4+x+1),2)",
    "Prod(GF(2,x^6+x+1),GF(2,x^6+x+1))", "Zn(4096)", "Ideal(Trunc(2,2),3)",
    "Prod(Zn(4),Trunc(2,9))", "Ideal(GF(3,x^2+1),2)",
)
# the rings as modules, and modules over Euclidean quotients at the cap:
# F2[x]:x^12+x^9+x^5+x^2 has 72 divisors, and F3[x]:x^7 and
# GF(3,x^7+x+1) multiply by x in F_p[x]/(f) for an odd p
CAP_LADDER = tuple(f"ring:{r}" for r in CAP_LADDER_RINGS) + (
    "F2[x]:x^12", "F2[x]:x^12+x^9+x^5+x^2", "Z:2310", "F3[x]:x^7",
    "ring:GF(3,x^7+x+1)",
)

# 2,391 instances: 740 Z: sums, 1,423 F2[x]: sums and 114 catalog rings,
# each both as a ring instance and as a ring: module
WIDE_CORPUS = verifier.CorpusSpec(int_modulus_max=256, element_cap=256, poly_max_degree=6)


def fresh_python(*args, timeout):
    """``python <args>`` in a new process started in ``src/``, which ``-m``
    and ``-c`` put on its path, killed after ``timeout`` seconds; stdout is
    dropped and stderr kept as text."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=os.path.dirname(os.path.dirname(qdivtop.__file__)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
