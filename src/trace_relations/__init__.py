"""Relations between trace-monomial invariants of orthogonal conjugation.

Two independent engines compute a certified basis of the linear relations
among the degree-d spanning invariants of the O(n) conjugation action on
n x n matrices: an exact Monte Carlo null-space method and a Young
symmetrizer group-algebra method.
"""

from .dimensions import rel_dim_formula, stable_range
from .evaluate import MatrixSample, evaluate_basis_row, evaluate_monomial, evaluate_word
from .montecarlo import (KernelCertificationError, RelationSet, SamplerConfig,
                         find_relations, nullspace, rank_of, rel_dimension_table,
                         verify_relation)
from .symmetrizer import (StandardTableau, enumerate_standard_tableaux,
                          symmetrizer_relation_space, two_column_shape,
                          young_symmetrizer)
from .words import (EnumerationCapError, FpfInvolution, InvariantMonomial,
                    TraceWord, class_of_involution, enumerate_invariant_basis,
                    involution_to_monomial, tau)

__all__ = [
    "EnumerationCapError", "FpfInvolution", "InvariantMonomial",
    "KernelCertificationError", "MatrixSample", "RelationSet", "SamplerConfig",
    "StandardTableau", "TraceWord", "class_of_involution",
    "enumerate_invariant_basis", "enumerate_standard_tableaux",
    "evaluate_basis_row", "evaluate_monomial", "evaluate_word",
    "find_relations", "involution_to_monomial", "nullspace", "rank_of",
    "rel_dim_formula", "rel_dimension_table", "stable_range",
    "symmetrizer_relation_space", "tau", "two_column_shape",
    "verify_relation", "young_symmetrizer",
]

__version__ = "0.1.0"
