"""Evaluation of trace-word invariants on concrete matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .words import X, XT, InvariantMonomial


@dataclass(frozen=True)
class MatrixSample:
    """Square n x n matrix."""

    n: int
    entries: tuple            # n rows, each a tuple of scalars

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if self.n < 1:
            raise ValueError("n must be positive")
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ValueError(f"entries must form an {self.n}x{self.n} matrix")


@lru_cache(maxsize=None)
def _kernels(n):
    """(mul, trace_mul) on flat row-major n x n tuples, unrolled for this n.

    mul(a, b) is a . b and trace_mul(a, b) is Tr(a . b).  Both are compiled
    once per n from straight-line source built from integers only: unpack
    the entries, then one tuple or sum expression, so the arithmetic is the
    entries' own + and *.
    """
    idx = range(n)

    def unpack(v):
        return ", ".join(f"{v}{i}" for i in range(n * n)) + f", = {v}"

    def dot(i, j):
        return " + ".join(f"a{i * n + k}*b{k * n + j}" for k in idx)

    head = f"(a, b):\n    {unpack('a')}\n    {unpack('b')}\n    return "
    src = (f"def mul{head}({', '.join(dot(i, j) for i in idx for j in idx)},)\n"
           f"def trace_mul{head}{' + '.join(f'({dot(i, i)})' for i in idx)}\n")
    ns = {}
    exec(src, ns)
    # Popping leaves no function in its own __globals__, so a cleared cache
    # frees the kernels at once instead of waiting for the cycle collector.
    return ns.pop("mul"), ns.pop("trace_mul")


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
    its prefix's; monomials are products of those traces.  Matrices are
    flat row-major tuples run through the per-n unrolled kernels of
    `_kernels`.  Arithmetic is that of the entries, so exact entries give
    exact values.
    """
    plan = _basis_plan(tuple(basis))
    if any(deg != d for deg in plan.degrees):
        raise ValueError("basis degree mismatch")
    n = x.n
    mul, trace_mul = _kernels(n)
    factors = (tuple(chain.from_iterable(x.entries)),
               tuple(chain.from_iterable(zip(*x.entries))))
    prods = list(factors)
    for parent, letter in plan.steps:
        prods.append(mul(prods[parent], factors[letter]))
    trace_x = sum(factors[0][::n + 1])
    traces = [trace_mul(prods[parent], factors[letter]) if parent is not None
              else trace_x
              for parent, letter in plan.words]
    return [math.prod([traces[i] for i in mono]) for mono in plan.monomials]


def evaluate_monomial(monomial, x):
    return evaluate_basis_row(monomial.degree, x, (monomial,))[0]


def evaluate_word(word, x):
    """Tr of the matrix product spelled by the word (X -> x, XT -> x^T)."""
    return evaluate_monomial(InvariantMonomial((word,)), x)

