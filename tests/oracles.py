"""Brute-force oracles and closed-form counts that only the tests use.

They check the package from outside: the tensor contraction certifies the
matching -> trace-word convention, the matching enumeration certifies the
invariant basis, and the counts (perfect matchings, Catalan numbers,
parts-at-most-two partitions, symmetrizer terms) check the closed form
`rel_dim_formula` and the tableau and group sizes.  The column-sum
identity check certifies the packed one in `montecarlo.nullspace`.  The
cached quasi-idempotency sweep is shared by the tests that assert on it.
"""

import functools
import itertools
from math import comb, factorial, isqrt, prod

from trace_relations.symmetrizer import (algebra_multiply,
                                         enumerate_standard_tableaux,
                                         young_symmetrizer)


def transpose(x):
    """The transpose of a flat row-major n x n sample."""
    n = isqrt(len(x))
    return tuple(x[i * n + j] for j in range(n) for i in range(n))


def enumerate_fpf_involutions(d):
    """All (2d-1)!! fixed-point-free involutions on 2d points, as pairing
    tuples, deterministic order."""
    if d < 1:
        raise ValueError("d must be positive")
    out = []
    pairing = [-1] * (2 * d)

    def rec():
        try:
            a = pairing.index(-1)
        except ValueError:
            out.append(tuple(pairing))
            return
        for b in range(a + 1, 2 * d):
            if pairing[b] == -1:
                pairing[a], pairing[b] = b, a
                rec()
                pairing[a] = pairing[b] = -1

    rec()
    return out


def contract_matching(pairing, x):
    """Full contraction of d copies of x (flat row-major) along a perfect
    matching of slots.

    Sums over all assignments of {0..n-1} to slots that are constant on
    matched pairs, of the product over factors f of x[i(2f), i(2f+1)].
    Cost n^d * d; deliberately separate from the trace-word evaluation path.
    """
    d = len(pairing) // 2
    n = isqrt(len(x))
    pairs = [(a, b) for a, b in enumerate(pairing) if a < b]
    total = 0
    for assignment in itertools.product(range(n), repeat=d):
        slot_val = [0] * (2 * d)
        for (a, b), v in zip(pairs, assignment):
            slot_val[a] = slot_val[b] = v
        term = 1
        for f in range(d):
            term = term * x[slot_val[2 * f] * n + slot_val[2 * f + 1]]
        total = total + term
    return total


def annihilates(cols, vec):
    """True iff M v = 0, with M given by its columns: the columns on the
    support of v, scaled by v and summed entry by entry."""
    acc = [0] * len(cols[0])
    for c, col in zip(vec, cols):
        if c:
            acc = [a + c * x for a, x in zip(acc, col)]
    return not any(acc)


def symmetrizer_term_count(t):
    """Pre-combination term count |row group| * |column group| of a tableau
    given by its rows; column c has one box in each row longer than c."""
    rows = prod(factorial(len(r)) for r in t)
    cols = prod(factorial(sum(len(r) > c for r in t)) for c in range(len(t[0])))
    return rows * cols


def fpf_count(d):
    """(2d)! / (2^d d!) = (2d-1)!!, the number of perfect matchings on 2d points."""
    if d < 1:
        raise ValueError("d must be positive")
    return factorial(2 * d) // (2 ** d * factorial(d))


def catalan(m):
    if m < 1:
        raise ValueError("m must be positive")
    return comb(2 * m, m) // (m + 1)


def all_partitions(n, mx=None):
    """Partitions of n with parts at most mx, largest parts first."""
    if mx is None:
        mx = n
    if n == 0:
        yield ()
        return
    for p in range(min(n, mx), 0, -1):
        for rest in all_partitions(n - p, p):
            yield (p,) + rest


@functools.cache
def quasi_idempotency_failures(size):
    """Standard tableaux of `size` boxes whose y_T fails y_T^2 = c y_T, c != 0.

    Cached so that the tests sharing this sweep run it once per session.
    """
    failures = []
    for shape in all_partitions(size):
        for t in enumerate_standard_tableaux(shape):
            y = young_symmetrizer(t)
            yy = algebra_multiply(y, y)
            p0, c0 = next(iter(y.items()))
            c = yy.get(p0, 0) / c0
            if not (c != 0 and set(yy) == set(y)
                    and all(yy[p] == c * cv for p, cv in y.items())):
                failures.append(t)
    return tuple(failures)


def two_part_partitions(m):
    """Partitions of m with every part <= 2, most twos first.

    These are exactly the shapes fitting inside the two-column diagram with m
    rows; their count equals rel_dim_formula(m - 1).
    """
    if m < 1:
        raise ValueError("m must be positive")
    out = []
    for twos in range(m // 2, -1, -1):
        ones = m - 2 * twos
        out.append((2,) * twos + (1,) * ones)
    return out
