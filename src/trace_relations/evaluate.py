"""Evaluation of trace-word invariants on concrete matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .words import X, XT, InvariantMonomial


@dataclass(frozen=True)
class MatrixSample:
    """Square n x n matrix."""

    n: int
    entries: tuple            # n rows, each a tuple of scalars

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ValueError(f"entries must form an {self.n}x{self.n} matrix")


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

