"""Closed-form counts: relation-space dimension and stable range."""

from __future__ import annotations


def rel_dim_formula(n):
    """Dimension of the degree-(n+1) relation space: n/2 + 1 for even n,
    (n+3)/2 for odd n; both branches equal floor((n+1)/2) + 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return (n + 1) // 2 + 1


def stable_range(d, n):
    """True iff degree-d invariants of the n x n action admit no relations."""
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    return d <= n
