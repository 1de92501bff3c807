"""Proved counts: relation-space dimension, stable range and kernel dimensions."""

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


# KERNEL_DIMS[d - 1][n - 1] = dim K_n(d) for 1 <= n < d <= 14 (BASIS_CAP):
# the dimension of the space of coefficient vectors over the k degree-d
# basis invariants that vanish on every n x n matrix,
#     dim K_n(d) = sum over mu |- d with l(mu) > n of m(2 mu),
#     m(lambda) = (1/d!) sum over rho |- d of |C_rho| chi^lambda(rho u rho),
# where 2 mu doubles every part and rho u rho repeats every part.
# Degree-d polynomials in x are the tensors of V^(x 2d) fixed by S_d
# permuting the d slot pairs; a permutation of cycle type rho moves the 2d
# slots with cycle type rho u rho, so S^lambda has m(lambda) fixed vectors.
# By Schur-Weyl duality V^(x 2d) is the sum over lambda |- 2d, l(lambda) <= n
# of S_lambda(V) (x) S^lambda, and by Cartan-Helgason S_lambda(V) has a
# one-dimensional O(n)-fixed space when every part of lambda is even and
# none otherwise.  So the invariants of degree d have dimension
# sum over l(mu) <= n of m(2 mu); the first fundamental theorem (Procesi
# 1976) makes the trace monomials span them, and for n >= d the sum is k.
# tests/oracles.py recomputes every entry by the Murnaghan-Nakayama rule,
# and the last entry of each degree equals rel_dim_formula(d - 1).
KERNEL_DIMS = (
    (),
    (2,),
    (4, 2),
    (11, 6, 3),
    (19, 14, 7, 3),
    (43, 34, 21, 9, 4),
    (75, 66, 45, 24, 10, 4),
    (156, 142, 109, 61, 31, 12, 5),
    (280, 266, 215, 140, 73, 34, 13, 5),
    (558, 538, 465, 320, 187, 89, 41, 15, 6),
    (1020, 1000, 897, 673, 413, 219, 101, 44, 16, 6),
    (2004, 1977, 1833, 1444, 960, 526, 267, 117, 51, 18, 7),
    (3720, 3693, 3501, 2920, 2036, 1206, 623, 299, 129, 54, 19, 7),
    (7236, 7201, 6945, 6010, 4448, 2749, 1513, 737, 347, 145, 61, 21, 8),
)


def kernel_dim(n, d):
    """dim K_n(d), the degree-d relations that hold on n x n matrices,
    counted over the whole basis (relations of larger matrices included):
    0 in the stable range d <= n, else read from KERNEL_DIMS.  Degrees past
    the table, d > 14, are a ValueError."""
    if stable_range(d, n):
        return 0
    if d > len(KERNEL_DIMS):
        raise ValueError(f"no proved kernel dimension for d={d} > {len(KERNEL_DIMS)}")
    return KERNEL_DIMS[d - 1][n - 1]
