"""Exact group-algebra engine for relations via Young symmetrizers.

For the two-column shape with n+1 rows, each standard tableau T gives a
symmetrizer y_T = (sum over row group) * (signed sum over column group) in
the group algebra of S_{2(n+1)}.  Conjugating the canonical pair-matching by
y_T and collecting matchings by necklace class projects y_T onto a
coefficient vector over the degree-(n+1) invariant basis; the images span
the relation space.  The engine keeps those that raise the rank of one GF(p)
echelon, checks their count against the closed form and certifies them on one
shared set of fresh samples.

y_T is never expanded.  It factors into one (1 + (a b)) per row and, per
column, the coset factors (1 - sum_{i<m} (c_i c_m)); conjugating a matching
by a transposition only swaps two labels.  So `project_tableau` carries a
sparse vector over the (2n+1)!! matchings through the factors one at a
time, instead of conjugating once per each of the 2^(n+1) ((n+1)!)^2 terms
(460,800 at n = 4).  `young_symmetrizer` and `project_to_invariants` keep
the expanded route as the exact oracle for small n.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .dimensions import rel_dim_formula
from .montecarlo import (ENTRY_BOUND, METHOD_SYMMETRIZER, KernelCertificationError,
                         RelationSet, _Echelon, fresh_sample_verdicts,
                         normalize_vector, stream)
# unused here, but benchmark/spans.py traces calls through these two names
from .montecarlo import rank_of, verify_relation  # noqa: F401
from .words import (EnumerationCapError, enumerate_invariant_basis,
                    involution_to_monomial, tau)

SYMMETRIZER_N_CAP = 6   # n=6: 9 of 429 tableaux projected; 0.9 s, 25 MB on 2 vCPUs


def two_column_shape(n):
    """(2, 2, ..., 2) with n+1 parts; the unique shape carrying the relations."""
    if n < 1:
        raise ValueError("n must be positive")
    return (2,) * (n + 1)


def enumerate_standard_tableaux(shape):
    """All standard fillings, deterministic order (smallest next placement
    first).  A tableau is its tuple of rows of the entries 0..size-1, which
    strictly increase along rows and columns."""
    shape = tuple(shape)
    if not shape or any(p < 1 for p in shape):
        raise ValueError(f"invalid partition {shape!r}")
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {shape!r}")
    size = sum(shape)
    rows = [[] for _ in shape]
    out = []

    def rec(k):
        if k == size:
            out.append(tuple(map(tuple, rows)))
            return
        for i, row in enumerate(rows):
            c = len(row)
            if c >= shape[i]:
                continue
            if i > 0 and len(rows[i - 1]) <= c:
                continue
            row.append(k)
            rec(k + 1)
            row.pop()

    rec(0)
    return out


def _columns(rows):
    """The columns of a tableau given by its rows."""
    return [tuple(r[c] for r in rows if len(r) > c) for c in range(len(rows[0]))]


def _block_group(blocks):
    """Every permutation of {0..size-1} mapping each block onto itself, for
    blocks that partition {0..size-1}."""
    size = sum(map(len, blocks))
    out = []
    for arrangement in itertools.product(*map(itertools.permutations, blocks)):
        img = list(range(size))
        for block, images in zip(blocks, arrangement):
            for src, dst in zip(block, images):
                img[src] = dst
        out.append(tuple(img))
    return out


def _sign(p):
    """(-1)^(len(p) - number of cycles of p)."""
    seen = [False] * len(p)
    cycles = 0
    for i in range(len(p)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
    return -1 if (len(p) - cycles) % 2 else 1


def row_group(t):
    """All permutations of {0..N-1} preserving each row, as image tuples."""
    return _block_group(t)


def column_group(t):
    """All column-preserving permutations, each paired with its sign."""
    return [(p, _sign(p)) for p in _block_group(_columns(t))]


def compose(p, q):
    """Group product: apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def invert(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def algebra_multiply(a, b):
    """Product in the group algebra; sparse dicts permutation -> coefficient."""
    out = {}
    for p, cp in a.items():
        for q, cq in b.items():
            s = compose(p, q)
            c = out.get(s, 0) + cp * cq
            if c:
                out[s] = c
            elif s in out:
                del out[s]
    return out


def young_symmetrizer(t):
    """y_T = (sum of row permutations) * (signed sum of column permutations)."""
    return algebra_multiply(dict.fromkeys(row_group(t), 1), dict(column_group(t)))


@lru_cache(maxsize=None)
def _basis_index(d):
    """Necklace class -> coordinate in the degree-d invariant basis."""
    return {m: i for i, m in enumerate(enumerate_invariant_basis(d))}


@lru_cache(maxsize=None)
def _class_index(pairing):
    """Basis coordinate of the necklace class of a matching (pairing tuple)."""
    return _basis_index(len(pairing) // 2)[involution_to_monomial(pairing)]


def _class_vector(terms, d):
    """Sum (matching, c) terms into their necklace-class coordinates of the
    degree-d basis; nonzero results are normalized, the zero vector is
    returned as-is."""
    coeffs = [0] * len(_basis_index(d))
    for matching, c in terms:
        coeffs[_class_index(matching)] += c
    if not any(coeffs):
        return tuple(coeffs)
    return normalize_vector(coeffs)


def project_to_invariants(y, n):
    """Coefficient vector of y over the degree-(n+1) basis.

    Each term (sigma, c) contributes c to the necklace class of the matching
    sigma^{-1} tau sigma.
    """
    t = tau(n + 1)
    return _class_vector(((_conjugate(t, sigma), c) for sigma, c in y.items()),
                         n + 1)


def _conjugate(m, sigma):
    """The matching sigma^{-1} m sigma."""
    inv_sigma = invert(sigma)
    return tuple([inv_sigma[m[s]] for s in sigma])


def _coset_factors(blocks, sign):
    """Factors 1 + sign * sum_{i<m} (b_i b_m), m = 1..len(b)-1, for each block
    b.  Their product is the sum over the permutations of each block, each
    weighted by sign**(number of transpositions)."""
    return [[(b[i], b[m], sign) for i in range(m)]
            for b in blocks for m in range(1, len(b))]


def _swap_labels(m, a, b):
    """The matching (a b) m (a b): labels a and b trade partners."""
    ma, mb = m[a], m[b]
    if ma == b:
        return m
    p = list(m)
    p[a], p[b], p[ma], p[mb] = mb, ma, b, a
    return tuple(p)


def project_tableau(t):
    """project_to_invariants(young_symmetrizer(t), n) without forming y_T.

    Conjugation m -> sigma^{-1} m sigma is a right action, so tau . y_T is
    tau acted on by the factors of y_T in product order: the row factors,
    then the column factors (signed).  The vector over matchings is at most
    (2d-1)!! entries, however many terms y_T has.
    """
    d = sum(map(len, t)) // 2
    vec = {tau(d): 1}
    for factor in _coset_factors(t, 1) + _coset_factors(_columns(t), -1):
        out = dict(vec)
        for m, c in vec.items():
            for a, b, sign in factor:
                m2 = _swap_labels(m, a, b)
                out[m2] = out.get(m2, 0) + sign * c
        vec = {m: c for m, c in out.items() if c}
    return _class_vector(vec.items(), d)


def symmetrizer_relation_space(n, seed):
    """Keep, in tableau order, each projected symmetrizer of the two-column
    shape that raises the GF(p) rank; a rise proves independence over Q.
    Projecting stops once the rank reaches rel_dim_formula(n), the rank
    over Q, which a GF(p) rank never exceeds.  A prime that loses rank falls
    short of that count instead of giving a short basis.  The kept vectors
    share one fresh-sample check.  n > SYMMETRIZER_N_CAP raises
    EnumerationCapError before any tableau is enumerated."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > SYMMETRIZER_N_CAP:
        raise EnumerationCapError(
            f"symmetrizer run for n={n} exceeds cap n <= {SYMMETRIZER_N_CAP}")
    d = n + 1
    echelon = _Echelon(len(enumerate_invariant_basis(d)))
    tableaux = enumerate_standard_tableaux(two_column_shape(n))
    expected = rel_dim_formula(n)
    # lazy: no tableau is projected after the expected-th rank rise
    selected = list(itertools.islice(
        filter(echelon.add, map(project_tableau, tableaux)), expected))
    if len(selected) != expected:
        raise KernelCertificationError(
            f"symmetrizer projections span rank {len(selected)}, expected {expected}")
    if not all(fresh_sample_verdicts(selected, n, d, stream(seed, "ys-verify", n),
                                     ENTRY_BOUND)):
        raise KernelCertificationError(
            "projected symmetrizer failed exact verification")
    return RelationSet(n=n, d=d, relations=tuple(selected),
                       method=METHOD_SYMMETRIZER, seed=seed)
