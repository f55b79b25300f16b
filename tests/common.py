"""Instance lists, seeded random ring specs, a planted quasi-second search
and a process runner shared by ``tests/`` and ``tests_slow/``: each list is
spelled out or drawn here once, or, for the benchmark's, read from
``perfbench/workloads.py``."""

import importlib.util
import math
import os
import random
import subprocess
import sys

import qdivtop
from qdivtop import verifier
from qdivtop.scalars import format_poly


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
# whose rows Prod and Ideal join from their factors' rows.  Their principal
# ideals read no row, but kernels and the images on sections do: a fault in
# those joined rows makes R9 and R10 fail on the first and R10 on the second
JOINED_ROW_RINGS = ("Prod(Zn(31),Zn(29))", "Ideal(Zn(11),1)")
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


def random_ring_spec(rng, budget):
    """A seeded catalog spec, nested through Prod and Ideal, and its order,
    at most budget >= 2."""
    kind = rng.choice(["Zn", "GF"] + ["Trunc", "Prod", "Ideal"] * (budget >= 4))
    if kind == "Zn":
        n = rng.randrange(2, min(budget, 64) + 1)
        return f"Zn({n})", n
    p = rng.choice([q for q in (2, 3, 5, 7, 11, 13) if q <= budget])
    if kind == "GF":
        # any monic modulus, reducible ones included
        d = max(k for k in range(1, budget.bit_length() + 1) if p**k <= budget)
        d = rng.randrange(1, d + 1)
        f = tuple(rng.randrange(p) for _ in range(d)) + (1,)
        return f"GF({p},{format_poly(f)})", p**d
    if kind == "Trunc":
        p = p if p * p <= budget else 2
        k = 1
        while p ** (k + 2) <= budget and rng.random() < 0.6:
            k += 1
        return f"Trunc({p},{k})", p ** (k + 1)
    if kind == "Prod":
        s1, n1 = random_ring_spec(rng, budget // 2)
        s2, n2 = random_ring_spec(rng, budget // n1)
        return f"Prod({s1},{s2})", n1 * n2
    base, n = random_ring_spec(rng, math.isqrt(budget))
    d = 1
    while n ** (d + 2) <= budget and rng.random() < 0.5:
        d += 1
    return f"Ideal({base},{d})", n ** (d + 1)


def _random_rings():
    rng = random.Random(7)
    drawn = dict.fromkeys(random_ring_spec(rng, 64)[0] for _ in range(3000))
    catalog = set(verifier.catalog_ring_specs(verifier.DEFAULT_CORPUS))
    return tuple(spec for spec in drawn if spec not in catalog)


# the 737 distinct rings outside the default catalog among 3,000 seeded
# draws of order at most 64, in draw order: nested Prod, Ideal, Trunc, GF
# and Zn rings, many of them Prod rings over Zn factors.  The seed and the
# draw count are fixed: a rule that fails on one of them is a finding,
# reported and kept, not drawn away
RANDOM_RINGS = _random_rings()


def mutated_qs_finder(E):
    """The quasi-second search with the aE != E guard removed: it reports
    any a, b with 0 != bE strictly inside aE, aE = E included."""
    ring = E.residue_ring
    zmask, labels = E.zero_mask, ring.labels
    for ia in range(ring.order):
        ma = E.image_mask(ia)
        for ib in range(ring.order):
            mb = E.image_mask(ib)
            if mb == zmask or mb & ~ma:
                continue
            if mb != ma:
                return {
                    "a": labels[ia],
                    "b": labels[ib],
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
