"""Evaluation of trace-word invariants on concrete matrices.

Two scalar modes share one interface: exact rationals (the certified path)
and complex floats (optional fast path).  Also provides the independent
tensor-contraction oracle used to certify the matching -> trace-word
bijection convention.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .words import X, XT, FpfInvolution, InvariantMonomial, _env_cap

MODE_RATIONAL = "rational"
MODE_COMPLEX = "complex"

DEFAULT_CONTRACTION_CELL_CAP = 10_000_000


class ContractionCapError(Exception):
    """Contraction state space n^d exceeds the configured cap."""


@dataclass(frozen=True)
class MatrixSample:
    """Square matrix with homogeneous scalar mode."""

    n: int
    entries: tuple            # n rows, each a tuple of scalars
    mode: str = MODE_RATIONAL

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if self.mode not in (MODE_RATIONAL, MODE_COMPLEX):
            raise ValueError(f"unknown scalar mode {self.mode!r}")
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ValueError(f"entries must form an {self.n}x{self.n} matrix")
        for row in rows:
            for e in row:
                if self.mode == MODE_COMPLEX:
                    z = complex(e)
                    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                        raise ValueError("non-finite entry in complex sample")

    def transpose(self):
        return MatrixSample(self.n,
                            tuple(zip(*self.entries)),
                            self.mode)


def _mul(a, bt):
    """a . b, given the rows of a and the rows of b^T (the columns of b)."""
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def _trace_mul(a, bt):
    """Tr(a . b) from the rows of a and of b^T, in n^2 products."""
    return sum(sum(map(mul, row, col)) for row, col in zip(a, bt))


@dataclass(frozen=True)
class _BasisPlan:
    """How to evaluate a basis with shared work.

    Products of word prefixes form a trie: slots 0 and 1 hold x and x^T,
    and each step (parent slot, letter) appends parent . factor(letter).
    Each distinct word is (slot of its longest proper prefix, last letter),
    with slot None for one-letter words.  Each monomial is a tuple of word
    indices.
    """

    degrees: frozenset
    steps: tuple
    words: tuple
    monomials: tuple


@lru_cache(maxsize=256)
def _basis_plan(basis):
    word_index = {}
    for m in basis:
        for w in m.words:
            word_index.setdefault(w.letters, len(word_index))
    slot = {(X,): 0, (XT,): 1}
    steps = []
    words = []
    for w in word_index:
        for k in range(2, len(w)):
            if w[:k] not in slot:
                slot[w[:k]] = 2 + len(steps)
                steps.append((slot[w[:k - 1]], w[k - 1]))
        words.append((slot[w[:-1]] if len(w) > 1 else None, w[-1]))
    return _BasisPlan(degrees=frozenset(m.degree for m in basis),
                      steps=tuple(steps), words=tuple(words),
                      monomials=tuple(tuple(word_index[w.letters] for w in m.words)
                                      for m in basis))


def evaluate_basis_row(d, x, basis):
    """Values of every basis invariant on one sample, in basis order.

    Each distinct word is traced once, its product built one matmul beyond
    its prefix's; monomials are products of those traces.  Arithmetic is
    that of the entries, so exact entries give exact values.
    """
    plan = _basis_plan(tuple(basis))
    if any(deg != d for deg in plan.degrees):
        raise ValueError("basis degree mismatch")
    rows = x.entries
    # transposes[letter] holds the rows of factor(letter)^T
    transposes = (tuple(zip(*rows)), rows)
    prods = [rows, transposes[0]]
    for parent, letter in plan.steps:
        prods.append(_mul(prods[parent], transposes[letter]))
    traces = [_trace_mul(prods[parent], transposes[letter]) if parent is not None
              else sum(rows[i][i] for i in range(x.n))
              for parent, letter in plan.words]
    return [math.prod([traces[i] for i in mono]) for mono in plan.monomials]


def evaluate_monomial(monomial, x):
    return evaluate_basis_row(monomial.degree, x, (monomial,))[0]


def evaluate_word(word, x):
    """Tr of the matrix product spelled by the word (X -> x, XT -> x^T)."""
    return evaluate_monomial(InvariantMonomial((word,)), x)


def contract_matching(inv, x, cell_cap=None):
    """Full contraction of d copies of x along a perfect matching of slots.

    Independent oracle for involution_to_monomial: sums over all assignments
    of {0..n-1} to slots that are constant on matched pairs, of the product
    over factors f of x[i(2f), i(2f+1)].  Cost n^d * d; kept deliberately
    separate from the trace-word evaluation path.
    """
    if not isinstance(inv, FpfInvolution):
        inv = FpfInvolution(tuple(inv))
    d = inv.degree
    n = x.n
    cap = cell_cap
    if cap is None:
        cap = _env_cap(DEFAULT_CONTRACTION_CELL_CAP)
    if n ** d > cap:
        raise ContractionCapError(f"contraction needs {n**d} index assignments, cap {cap}")
    pairs = [(a, b) for a, b in enumerate(inv.pairing) if a < b]
    total = 0
    for assignment in itertools.product(range(n), repeat=d):
        slot_val = [0] * (2 * d)
        for (a, b), v in zip(pairs, assignment):
            slot_val[a] = slot_val[b] = v
        term = 1
        for f in range(d):
            term = term * x.entries[slot_val[2 * f]][slot_val[2 * f + 1]]
        total = total + term
    return total


def _scalar_to_json(value, mode):
    if mode == MODE_RATIONAL:
        return str(Fraction(value))
    z = complex(value)
    return [z.real, z.imag]


def _scalar_from_json(value, mode):
    if mode == MODE_RATIONAL:
        return Fraction(value)
    re, im = value
    return complex(re, im)


def matrix_to_json(x):
    return {"n": x.n, "mode": x.mode,
            "entries": [[_scalar_to_json(e, x.mode) for e in row]
                        for row in x.entries]}


def matrix_from_json(obj):
    mode = obj["mode"]
    entries = tuple(tuple(_scalar_from_json(e, mode) for e in row)
                    for row in obj["entries"])
    return MatrixSample(int(obj["n"]), entries, mode)


def load_matrix(path):
    with open(path) as fh:
        return matrix_from_json(json.load(fh))
