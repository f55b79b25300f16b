"""Instance lists, a planted quasi-second search and a process runner
shared by ``tests/`` and ``tests_slow/``: each list is spelled out here
once, or, for the benchmark's, read from ``perfbench/workloads.py``."""

import importlib.util
import os
import subprocess
import sys

import qdivtop
from qdivtop import verifier


def _benchmark_workloads():
    """``perfbench/workloads.py``, loaded by path and only read: its source
    is run in a fresh module, and no bytecode is cached beside it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    exec(compile(spec.loader.get_source(spec.name), path, "exec"), module.__dict__)
    return module


_workloads = _benchmark_workloads()
# the analyze-ladder specs, probes last; the oracle-dense specs; the rings
# of rings-qs
BENCHMARK_LADDER_SPECS = _workloads.LADDER_SPECS + _workloads.LADDER_PROBES
BENCHMARK_ORACLE_SPECS = _workloads.ORACLE_SPECS
BENCHMARK_RING_SPECS = _workloads.RING_SPECS

# catalog rings at or near the element cap.  Past the construction check,
# Trunc(p,k) joins its rows from rows of Zn(p), Ideal(Trunc(2,2),3) from
# the checked table rows of Trunc(2,2), and the mixed-radix
# Prod(Zn(4),Trunc(2,9)) and odd-characteristic Ideal(GF(3,x^2+1),2) from
# their factors' rows
CAP_LADDER_RINGS = (
    "Trunc(2,11)", "Trunc(3,6)", "Ideal(GF(2,x^4+x+1),2)",
    "Prod(GF(2,x^6+x+1),GF(2,x^6+x+1))", "Zn(4096)", "Ideal(Trunc(2,2),3)",
    "Prod(Zn(4),Trunc(2,9))", "Ideal(GF(3,x^2+1),2)",
)
# catalog rings past the construction check but inside the lattice cap,
# whose rows Prod and Ideal join from their factors' rows: a fault in those
# joined rows makes R10 fail on the first, R4 on the second, and R1 on the
# third, whose basis sets then generate a family that is not a topology
JOINED_ROW_RINGS = ("Prod(Zn(31),Zn(29))", "Ideal(Zn(11),1)", "Prod(Zn(9),Zn(16))")
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


def mutated_qs_finder(E):
    """The quasi-second search with the aE != E guard removed: it reports
    any a, b with 0 != bE strictly inside aE, aE = E included."""
    ring = E.residue_ring
    zmask = E.zero_mask
    for ra in ring.elements:
        ma = E.image_mask(ra)
        for rb in ring.elements:
            mb = E.image_mask(rb)
            if mb == zmask or mb & ~ma:
                continue
            if mb != ma:
                return {
                    "a": ring.format_element(ra),
                    "b": ring.format_element(rb),
                    "aE": E.format_mask(ma),
                    "bE": E.format_mask(mb),
                }
    return None


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
