"""Relations between trace-monomial invariants of orthogonal conjugation.

Two independent engines compute a certified basis of the linear relations
among the degree-d spanning invariants of the O(n) conjugation action on
n x n matrices: an exact Monte Carlo null-space method and a Young
symmetrizer group-algebra method.
"""

from .dimensions import rel_dim_formula, stable_range
from .montecarlo import (KernelCertificationError, RelationSet, find_relations,
                         rel_dimension_table, verify_relation)
from .symmetrizer import symmetrizer_relation_space
from .words import EnumerationCapError, enumerate_invariant_basis

__all__ = [
    "EnumerationCapError", "KernelCertificationError", "RelationSet",
    "enumerate_invariant_basis", "find_relations",
    "rel_dim_formula", "rel_dimension_table", "stable_range",
    "symmetrizer_relation_space", "verify_relation",
]

__version__ = "0.1.0"
