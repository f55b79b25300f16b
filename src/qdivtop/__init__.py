"""Quasi divisor topologies of finite modules.

Construct the space of cyclic-image classes of a finite module over the
integers or F_p[x], decide its topological and algebraic predicates on the
specialization order, cross-check them against a definitional open-set
oracle, and verify a suite of structural laws over enumerated corpora of
small modules and finite commutative rings.
"""

__version__ = "0.1.0"

from .modules import (  # noqa: F401
    FiniteModule,
    ModuleError,
    ScalarClass,
    SizeCapExceeded,
    Submodule,
    annihilator,
    build_module,
    cyclic_sum,
    enumerate_submodules,
    is_quasi_second,
    is_second_submodule,
    ring_cyclic,
    scalar_classes,
    structural_predicates,
    submodule_annihilator,
    weak_idempotent_split,
)
from .oracle import enumerate_open_sets, oracle_axiom, oracle_closure  # noqa: F401
from .rings import build_ring, classify_quasi_second_ring  # noqa: F401
from .scalars import (  # noqa: F401
    INTEGERS,
    Scalar,
    ScalarDomain,
    is_irreducible,
    parse_scalar,
    poly_domain,
    scalar_gcd,
    scalar_lcm,
)
from .topology import build_space, separation_report  # noqa: F401
from .verifier import CorpusSpec, generate_corpus, run_all, run_rule  # noqa: F401
