"""Random-evaluation engine for relations between trace invariants.

Samples integer matrices, evaluates every spanning invariant on each sample,
and computes the exact rational null space of the resulting evaluation
matrix.  Any true relation lies in that null space for every sample choice,
so the kernel can only be too large, never too small; a certification round
on fresh samples (with escalation of the entry bound) removes spurious
vectors with overwhelming probability.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from operator import mul

# evaluate_monomial is unused here but stays importable from this module:
# benchmark/spans.py traces calls through montecarlo.evaluate_monomial.
from .evaluate import (MODE_COMPLEX, MODE_RATIONAL, MatrixSample,  # noqa: F401
                       evaluate_basis_row, evaluate_monomial)
from .words import enumerate_invariant_basis

METHOD_MONTECARLO = "montecarlo"
METHOD_SYMMETRIZER = "symmetrizer"


class KernelCertificationError(Exception):
    """Escalation exhausted without a kernel that verifies on fresh samples."""


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    entry_bound: int = 10
    oversample: int = 10
    verify_trials: int = 20
    mode: str = MODE_RATIONAL
    float_tolerance: float = 1e-9

    def __post_init__(self):
        if self.entry_bound < 1:
            raise ValueError("entry_bound must be >= 1")
        if self.oversample < 0:
            raise ValueError("oversample must be >= 0")
        if self.verify_trials < 1:
            raise ValueError("verify_trials must be >= 1")
        if self.mode not in (MODE_RATIONAL, MODE_COMPLEX):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.float_tolerance < 0:
            raise ValueError("float_tolerance must be >= 0")


def stream(seed, *labels):
    """Deterministic per-purpose RNG stream; str seeding is stable across runs."""
    return random.Random("/".join([str(seed), *map(str, labels)]))


def sample_matrix(n, rng, config):
    """Integer entries uniform on [-B, B] (exact mode) or standard complex
    Gaussians (float mode)."""
    b = config.entry_bound
    if config.mode == MODE_RATIONAL:
        entries = tuple(tuple(rng.randint(-b, b) for _ in range(n))
                        for _ in range(n))
        return MatrixSample(n, entries, MODE_RATIONAL)
    entries = tuple(tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1))
                          for _ in range(n)) for _ in range(n))
    return MatrixSample(n, entries, MODE_COMPLEX)


def _sample_nonzero(n, rng, config):
    # Zero matrices satisfy every relation vacuously; excluded from draws.
    while True:
        x = sample_matrix(n, rng, config)
        if any(e != 0 for row in x.entries for e in row):
            return x


def build_evaluation_matrix(n, d, m, config, basis=None):
    """m x k matrix whose row j holds the basis invariants on the j-th sample."""
    if basis is None:
        basis = enumerate_invariant_basis(d)
    rows = []
    for j in range(m):
        rng = stream(config.seed, "row", j)
        x = sample_matrix(n, rng, config)
        rows.append(evaluate_basis_row(d, x, basis))
    return rows


def normalize_vector(vec):
    """Primitive integer vector with positive leading nonzero coordinate."""
    fracs = [Fraction(v) for v in vec]
    if all(f == 0 for f in fracs):
        raise ValueError("cannot normalize the zero vector")
    denom = lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    g = gcd(*ints)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def nullspace(rows):
    """Exact basis of {v : Mv = 0} via fraction-free (Bareiss) elimination.

    Accepts integer or rational entries; output vectors are normalized
    primitive integer tuples, one per free column, in column order.
    """
    if not rows:
        raise ValueError("matrix needs at least one row")
    m, k = len(rows), len(rows[0])
    mat = []
    for row in rows:
        if len(row) != k:
            raise ValueError("ragged matrix")
        fr = [Fraction(e) for e in row]
        denom = lcm(*(f.denominator for f in fr)) if fr else 1
        mat.append([int(f * denom) for f in fr])

    piv_cols = []
    prev = 1
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r][c]
        for i in range(r + 1, m):
            mic = mat[i][c]
            row_i, row_r = mat[i], mat[r]
            for j in range(c + 1, k):
                row_i[j] = (piv * row_i[j] - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = piv
        piv_cols.append(c)
        r += 1
        if r == m:
            break

    rank = len(piv_cols)
    piv_set = set(piv_cols)
    basis = []
    for fc in (c for c in range(k) if c not in piv_set):
        v = [Fraction(0)] * k
        v[fc] = Fraction(1)
        for i in reversed(range(rank)):
            pc = piv_cols[i]
            if pc > fc:
                continue
            s = sum(mat[i][j] * v[j] for j in range(pc + 1, k) if v[j])
            v[pc] = Fraction(-s, mat[i][pc])
        basis.append(normalize_vector(v))
    return basis


def rank_of(rows):
    if not rows:
        return 0
    return len(rows[0]) - len(nullspace(rows))


def _vanish_on_fresh_samples(vectors, n, d, trials, rng, basis, config):
    """True iff every vector annihilates each of `trials` fresh exact samples.

    All vectors share the samples; each one still meets `trials` independent
    draws, so its Schwartz-Zippel bound is what it would be alone.
    """
    if not vectors:
        return True
    cfg = replace(config, mode=MODE_RATIONAL)
    for _ in range(trials):
        row = evaluate_basis_row(d, _sample_nonzero(n, rng, cfg), basis)
        if any(sum(map(mul, v, row)) for v in vectors):
            return False
    return True


def verify_relation(coeffs, n, d, trials, rng, basis=None, config=None):
    """True iff the coefficient vector is nonzero and annihilates `trials`
    fresh exact samples."""
    if basis is None:
        basis = enumerate_invariant_basis(d)
    if len(coeffs) != len(basis):
        raise ValueError("coefficient length does not match basis size")
    if not any(coeffs):
        return False
    if config is None:
        config = SamplerConfig(seed=0)
    return _vanish_on_fresh_samples([coeffs], n, d, trials, rng, basis, config)


@dataclass(frozen=True)
class RelationSet:
    """Certified relation basis plus the configuration that produced it."""

    n: int
    d: int
    basis: tuple              # class-id strings, coordinate order
    relations: tuple          # normalized integer tuples
    method: str
    seed: int
    entry_bound: int

    def to_json(self):
        obj = {
            "n": self.n,
            "d": self.d,
            "basis": list(self.basis),
            "relations": [[str(c) for c in rel] for rel in self.relations],
            "method": self.method,
            "seed": self.seed,
            "entry_bound": self.entry_bound,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text):
        try:
            obj = json.loads(text)
            return cls(n=int(obj["n"]), d=int(obj["d"]),
                       basis=tuple(obj["basis"]),
                       relations=tuple(tuple(int(c) for c in rel)
                                       for rel in obj["relations"]),
                       method=obj["method"], seed=int(obj["seed"]),
                       entry_bound=int(obj["entry_bound"]))
        except KeyError as exc:
            raise ValueError(f"malformed relation file: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed relation file: {exc}") from exc


MAX_ESCALATIONS = 3


def certified_kernel(n, d, config, basis=None):
    """Nullspace of the oversampled evaluation matrix on n x n samples,
    with every vector re-verified on fresh draws; escalates the entry bound
    (doubling, reseeded) on verification failure."""
    if basis is None:
        basis = enumerate_invariant_basis(d)
    k = len(basis)
    for attempt in range(MAX_ESCALATIONS + 1):
        cfg = replace(config,
                      seed=f"{config.seed}:n{n}:attempt{attempt}",
                      entry_bound=config.entry_bound * 2 ** attempt)
        rows = build_evaluation_matrix(n, d, k + cfg.oversample, cfg, basis=basis)
        vectors = nullspace(rows)
        vrng = stream(config.seed, "verify", n, attempt)
        if _vanish_on_fresh_samples(vectors, n, d, cfg.verify_trials, vrng,
                                    basis, cfg):
            return vectors
    raise KernelCertificationError(
        f"kernel for n={n}, d={d} failed certification after "
        f"{MAX_ESCALATIONS} escalations; sampler configuration looks pathological")


def find_relations(n, d, config):
    """Certified basis of the degree-d relation space for the O(n) action.

    The relation space is the kernel of restricting degree-d invariants of
    the (n+1)-dimensional action down to n x n matrices, so coefficient
    vectors that already vanish identically on (n+1) x (n+1) matrices are
    quotiented out.  For d <= n+1 that larger kernel is trivial and the
    result is simply the certified nullspace on n x n samples.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if config.mode == MODE_COMPLEX:
        raise ValueError("find_relations certifies only in exact mode; "
                         "use estimate_relation_dimension_float for the float path")
    basis = enumerate_invariant_basis(d)
    kernel = certified_kernel(n, d, config, basis=basis)
    if d <= n + 1:
        relations = kernel
    else:
        ambient = [list(v) for v in certified_kernel(n + 1, d, config, basis=basis)]
        relations = []
        chosen = []
        for v in kernel:
            if rank_of(ambient + chosen + [list(v)]) > len(ambient) + len(chosen):
                chosen.append(list(v))
                relations.append(v)
    return RelationSet(n=n, d=d,
                       basis=tuple(m.encode() for m in basis),
                       relations=tuple(relations),
                       method=METHOD_MONTECARLO,
                       seed=config.seed,
                       entry_bound=config.entry_bound)


def estimate_relation_dimension_float(n, d, config):
    """Float fast path: SVD rank estimate of the evaluation matrix.

    Mirrors the float formulation verbatim; returns (dimension estimate,
    singular values).  Not certified; the exact engine is authoritative.
    """
    import numpy as np

    basis = enumerate_invariant_basis(d)
    k = len(basis)
    cfg = replace(config, mode=MODE_COMPLEX)
    rows = build_evaluation_matrix(n, d, k + cfg.oversample, cfg, basis=basis)
    a = np.array([[complex(e) for e in row] for row in rows], dtype=complex)
    svals = np.linalg.svd(a, compute_uv=False)
    cutoff = cfg.float_tolerance * max(float(svals[0]), 1.0)
    rank = int((svals > cutoff).sum())
    return k - rank, svals


def rel_dimension_table(max_d, max_n, config, skip_stable=True):
    """dict {(d, n): relation count} for 1 <= d <= max_d, 1 <= n <= max_n."""
    table = {}
    for d in range(1, max_d + 1):
        for n in range(1, max_n + 1):
            if skip_stable and d <= n:
                table[(d, n)] = 0
                continue
            cell_seed = stream(config.seed, "table", d, n).getrandbits(63)
            cell_cfg = replace(config, seed=cell_seed)
            table[(d, n)] = len(find_relations(n, d, cell_cfg).relations)
    return table
