"""Evaluation of trace-word invariants on concrete matrices."""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import mul as _mul

from .words import X, XT, InvariantMonomial, _set, _Value


class MatrixSample(_Value):
    """Square n x n matrix; entries are its n rows, each a tuple of scalars."""

    __slots__ = _fields = ("n", "entries")

    def __init__(self, n, entries):
        rows = tuple(map(tuple, entries))
        _set(self, "n", n)
        _set(self, "entries", rows)
        if n < 1:
            raise ValueError("n must be positive")
        if len(rows) != n or {*map(len, rows)} != {n}:
            raise ValueError(f"entries must form an {n}x{n} matrix")


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


class _Compiled(_Value):
    """A basis's monomial degrees (a frozenset), its matrix products per
    row, and make(mul, trace_mul, diag) -> row(x, xt)."""

    __slots__ = _fields = ("degrees", "products", "make")

    def __init__(self, degrees, products, make):
        _set(self, "degrees", degrees)
        _set(self, "products", products)
        _set(self, "make", make)


@lru_cache(maxsize=256)
def _compile_basis(basis):
    """The row function of a basis, compiled once for every n.

    Each distinct word is traced once, through the split of its cheapest
    rotation or reflection (`_Plan.split`).  Then each monomial, its words
    shortest first, is the product of its own prefix by one more trace, so
    monomials that share a prefix, as most share their short words, share
    its product.
    """
    plan = _Plan()
    traces = {}
    for m in basis:
        for w in m.words:
            if w.letters not in traces:
                traces[w.letters] = name = f"t{len(traces)}"
                plan.lines.append(f"{name} = {plan.trace(plan.split(w.letters))}")
    products = {}           # (prefix, trace) -> name of their product
    values = []
    for m in basis:
        words = reversed(m.words)
        value = traces[next(words).letters]
        for w in words:
            key = value, traces[w.letters]
            if key not in products:
                products[key] = f"m{len(products)}"
                plan.lines.append(f"{products[key]} = {value} * {key[1]}")
            value = products[key]
        values.append(value)
    return _Compiled(frozenset(m.degree for m in basis), plan.products,
                     plan.compile(values))


@lru_cache(maxsize=256)
def _row_function(basis, n):
    compiled = _compile_basis(basis)
    return compiled.degrees, compiled.make(*_kernels(n), n + 1)


def evaluate_basis_row(d, x, basis):
    """Values of every basis invariant on one sample, in basis order.

    Runs the basis's straight-line row function (`_compile_basis`) bound to
    the per-n unrolled kernels of `_kernels`, on flat row-major tuples.
    Arithmetic is that of the entries, so exact entries give exact values.
    """
    degrees, row = _row_function(tuple(basis), x.n)
    if degrees - {d}:
        raise ValueError("basis degree mismatch")
    return row(tuple(chain.from_iterable(x.entries)),
               tuple(chain.from_iterable(zip(*x.entries))))


def evaluate_monomial(monomial, x):
    return evaluate_basis_row(monomial.degree, x, (monomial,))[0]


def evaluate_word(word, x):
    """Tr of the matrix product spelled by the word (X -> x, XT -> x^T)."""
    return evaluate_monomial(InvariantMonomial((word,)), x)
