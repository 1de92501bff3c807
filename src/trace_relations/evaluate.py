"""Evaluation of trace-word invariants on concrete matrices."""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from operator import mul as _mul

from .words import X, XT, canonicalize_letters, enumerate_invariant_basis


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


def _reverse_swap(w):
    """The word spelling the transpose: P(rs(w)) = P(w)^T."""
    return tuple(map((1).__sub__, reversed(w)))


_FACTOR = ("x", "xt")


class _Plan:
    """Straight-line source that evaluates trace words on one sample.

    x and xt name the sample and its transpose, flat row-major.  P(r) is
    the product spelled by the word r.  A node holds P(r) for one word r of
    length >= 2 and stands for P(rs(r)) = P(r)^T as well, so a node serves
    the class {r, rs(r)}; x serves {X, XT}.  A new node is one `mul` away
    from the node of its word less the last letter: if that node holds
    P(r[:-1]) it gives P(r) = P(r[:-1]) . x_r, and if it holds P(r[:-1])^T
    it gives P(rs(r)) = x_r^T . P(r[:-1])^T.

    A word w of length L >= 2 is traced as Tr(P(u) . P(v)), u its first
    ceil(L/2) letters and v the rest, so only half-words need nodes.  With
    A and B the nodes of u and v, that is trace_mul(A, B) if both or neither
    hold a transpose (Tr(A^T B^T) = Tr(B A) = Tr(A B)), and else
    Tr(A B^T) = sum_ij A_ij B_ij.
    """

    def __init__(self):
        self.lines = []
        # both words of each class -> (node name, the word it holds)
        self.nodes = {(X,): ("x", (X,)), (XT,): ("x", (X,))}
        self.products = 0

    def _known(self, w):
        """Length of the longest prefix of w with a node."""
        j = len(w)
        while w[:j] not in self.nodes:
            j -= 1
        return j

    def _node(self, w):
        """(name, word held) of the node of w's class, built if missing."""
        for i in range(self._known(w) + 1, len(w) + 1):
            name, held = self.nodes[w[:i - 1]]
            letter = w[i - 1]
            if held == w[:i - 1]:
                expr, held = f"mul({name}, {_FACTOR[letter]})", w[:i]
            else:
                expr, held = f"mul({_FACTOR[1 - letter]}, {name})", _reverse_swap(w[:i])
            name = f"p{self.products}"
            self.products += 1
            self.lines.append(f"{name} = {expr}")
            self.nodes[held] = self.nodes[_reverse_swap(held)] = name, held
        return self.nodes[w]

    def cost(self, w):
        """Nodes that tracing w, split as in `trace`, would add (counting
        twice a node both halves need)."""
        h = (len(w) + 1) // 2
        return len(w) - self._known(w[:h]) - self._known(w[h:])

    def trace(self, w):
        """Expression for Tr(P(w)), split as w[:ceil(L/2)], w[ceil(L/2):]."""
        if len(w) == 1:
            return "sum(x[::diag])"
        h = (len(w) + 1) // 2
        (a, ra), (b, rb) = self._node(w[:h]), self._node(w[h:])
        if (ra == w[:h]) == (rb == w[h:]):
            return f"trace_mul({a}, {b})"
        return f"sum(map(_mul, {a}, {b}))"

    def split(self, w):
        """The first rotation or reflection of w whose split adds fewest
        nodes."""
        best = w
        if len(w) > 1:
            least = None
            for r in (w, _reverse_swap(w)):
                for i in range(len(w)):
                    c = self.cost(r[i:] + r[:i])
                    if least is None or c < least:
                        best, least = r[i:] + r[:i], c
                    if not least:
                        return best
        return best

    def compile(self, values):
        """make(mul, trace_mul, diag) -> row(x, xt), the list of `values`
        after the lines so far; x and xt flat with diagonal step diag."""
        body = "".join(f"        {line}\n" for line in self.lines)
        src = (f"def make(mul, trace_mul, diag):\n    def row(x, xt):\n{body}"
               f"        return [{', '.join(values)}]\n    return row\n")
        ns = {"_mul": _mul}
        exec(src, ns)
        # As in _kernels: popped, so no function is in its own __globals__.
        return ns.pop("make")


@lru_cache(maxsize=None)
def _compile_basis(d):
    """(matrix products per row, make(mul, trace_mul, diag) -> row(x, xt))
    of the degree-d basis, compiled once for every n.

    Each distinct word is traced once, through the split of its cheapest
    rotation or reflection (`_Plan.split`).  Each monomial is then the
    product of its word traces, shortest first, written inline in the
    returned list: a statement per shared prefix product would cost more
    to compile than its saved multiplies win back on a row.
    """
    basis = enumerate_invariant_basis(d)
    plan = _Plan()
    traces = {}
    for m in basis:
        for w in m:
            if w not in traces:
                traces[w] = name = f"t{len(traces)}"
                plan.lines.append(f"{name} = {plan.trace(plan.split(w))}")
    values = [" * ".join(traces[w] for w in reversed(m)) for m in basis]
    return plan.products, plan.compile(values)


@lru_cache(maxsize=256)
def _row_function(d, n):
    return _compile_basis(d)[1](*_kernels(n), n + 1)


def evaluate_basis_row(d, x):
    """Values of every degree-d basis invariant on one sample x, the n^2
    entries of an n x n matrix as a flat row-major tuple, in basis order.

    Runs the degree's straight-line row function (`_compile_basis`) bound
    to the per-n unrolled kernels of `_kernels`, on x and its transpose.
    Arithmetic is that of the entries, so exact entries give exact values.
    """
    n = isqrt(len(x))
    return _row_function(d, n)(x, sum((x[j::n] for j in range(n)), ()))


def evaluate_monomial(monomial, x):
    """Value of one basis invariant, a necklace class as `words.monomial`
    gives it, on one sample: its coordinate of the degree's row, so the
    degree must be within BASIS_CAP."""
    d = sum(map(len, monomial))
    return evaluate_basis_row(d, x)[enumerate_invariant_basis(d).index(monomial)]


def evaluate_word(word, x):
    """Tr of the matrix product spelled by the word (X -> x, XT -> x^T)."""
    return evaluate_monomial((canonicalize_letters(word),), x)
