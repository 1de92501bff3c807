import gc
import random
import weakref
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from trace_relations.evaluate import (
    _compile_basis, _kernels, _Plan, _reverse_swap,
    evaluate_basis_row, evaluate_monomial, evaluate_word)
from trace_relations.words import (
    X, XT, canonical_words, enumerate_invariant_basis, involution_to_monomial,
    monomial, tau)

from oracles import contract_matching, enumerate_fpf_involutions, transpose


def mat(rows):
    """The flat row-major sample of a square matrix given by its rows."""
    return tuple(e for r in rows for e in r)


def random_int_matrix(n, rng, bound=5):
    return mat([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


def test_evaluate_word_examples():
    ident = mat([[1, 0], [0, 1]])
    assert evaluate_word((X,), ident) == 2
    nilp = mat([[0, 1], [0, 0]])
    assert evaluate_word((X, XT), nilp) == 1
    diag = mat([[1, 0], [0, 2]])
    assert evaluate_word((X, X, X), diag) == 9
    # a raw letter tuple is canonicalised: (XT, X, XT) is a rotation of the
    # reversed, letter-swapped (X, X, XT)
    x = mat([[1, 2], [3, 5]])
    assert evaluate_word((XT, X, XT), x) == evaluate_word((X, X, XT), x)


def test_evaluate_monomial_examples():
    diag = mat([[1, 0], [0, 2]])
    cube = monomial(((X,),) * 3)
    assert evaluate_monomial(cube, diag) == 27
    sq_lin = monomial(((X, X), (X,)))
    assert evaluate_monomial(sq_lin, diag) == 15
    nilp = mat([[0, 1], [0, 0]])
    mixed = monomial(((X, XT), (X,)))
    assert evaluate_monomial(mixed, nilp) == 0


def test_evaluate_basis_row_degree3_identity():
    ident = mat([[1, 0], [0, 1]])
    assert evaluate_basis_row(3, ident) == [2, 2, 4, 4, 8]
    zero = mat([[0, 0], [0, 0]])
    assert evaluate_basis_row(3, zero) == [0, 0, 0, 0, 0]


def test_evaluate_basis_row_degree1():
    assert evaluate_basis_row(1, mat([[3, 1], [1, 4]])) == [7]


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_transpose_letter_swap(a, b, c, d):
    # evaluating a word on x^T equals evaluating the letter-swapped word on x
    x = mat([[a, b], [c, d]])
    xt = transpose(x)
    for w in [(X,), (X, XT), (X, X, XT), (X, XT, XT, X)]:
        swapped = tuple(1 - l for l in w)
        assert evaluate_word(w, xt) == evaluate_word(swapped, x)


def signed_permutation_matrices(n, rng, count):
    for _ in range(count):
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        rows = [[signs[j] if perm[i] == j else 0 for j in range(n)]
                for i in range(n)]
        yield mat(rows)


def conjugate(g, x):
    n = isqrt(len(x))
    def mm(a, b):
        return tuple(sum(a[i * n + l] * b[l * n + j] for l in range(n))
                     for i in range(n) for j in range(n))
    return mm(mm(transpose(g), x), g)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_conjugation_invariance_signed_permutations(d, n):
    rng = random.Random(f"{d}/{n}")
    basis = enumerate_invariant_basis(d)
    for _ in range(3):
        x = random_int_matrix(n, rng)
        for g in signed_permutation_matrices(n, rng, 3):
            gxg = conjugate(g, x)
            for m in basis:
                assert evaluate_monomial(m, gxg) == evaluate_monomial(m, x)


def test_contract_matching_examples():
    x = mat([[1, 2], [3, 4]])
    assert contract_matching(tau(1), x) == 5
    assert contract_matching(tau(2), x) == 25


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_contraction_certifies_bijection(d, n):
    # independent oracle: full tensor contraction along the matching must
    # agree with evaluating the trace-word image of that matching
    rng = random.Random(f"17/{d}/{n}")
    for inv in enumerate_fpf_involutions(d):
        m = involution_to_monomial(inv)
        for _ in range(20):
            x = random_int_matrix(n, rng)
            assert contract_matching(inv, x) == evaluate_monomial(m, x)


def _naive_monomial(m, x):
    # reference: one matrix product per letter of every word, no sharing
    n = isqrt(len(x))
    rows = tuple(x[i * n:(i + 1) * n] for i in range(n))
    xt = tuple(zip(*rows))
    val = 1
    for w in m:
        prod = None
        for letter in w:
            f = rows if letter == X else xt
            prod = f if prod is None else tuple(
                tuple(sum(prod[i][l] * f[l][j] for l in range(n)) for j in range(n))
                for i in range(n))
        val *= sum(prod[i][i] for i in range(n))
    return val


@pytest.mark.parametrize("d", range(1, 9))
def test_basis_row_matches_per_monomial_evaluation(d):
    basis = enumerate_invariant_basis(d)
    rng = random.Random(f"row/{d}")
    for n in range(1, 7):
        for bound in (10, 80):
            x = random_int_matrix(n, rng, bound)
            row = evaluate_basis_row(d, x)
            assert row == [evaluate_monomial(m, x) for m in basis]
            assert row == [_naive_monomial(m, x) for m in basis]


def test_basis_row_fraction_sample():
    x = random_fraction_matrix(3, random.Random(8))
    basis = enumerate_invariant_basis(5)
    row = evaluate_basis_row(5, x)
    assert row == [_naive_monomial(m, x) for m in basis]
    assert any(Fraction(v).denominator != 1 for v in row)


def random_fraction_matrix(n, rng):
    return mat([[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
                for _ in range(n)])


def _plan_values(plan, values, x):
    """The values of a plan's expressions on x, through the compiled row."""
    n = isqrt(len(x))
    return plan.compile(values)(*_kernels(n), n + 1)(x, transpose(x))


def _rotations_and_reflections(w):
    return [r[i:] + r[:i] for r in (w, _reverse_swap(w)) for i in range(len(w))]


@pytest.mark.parametrize("shared", [False, True])
def test_every_split_traces_its_word(shared):
    # Each rotation and reflection of a word is traced through its own
    # split, with nodes built in whatever orientation the plan has them.
    # One plan per word, or one plan for all words, gives different nodes.
    rng = random.Random(f"split/{shared}")
    samples = [random_int_matrix(n, rng, 10) for n in (1, 2, 3, 4)]
    samples.append(random_fraction_matrix(3, rng))
    plan = _Plan()
    words, exprs = [], []
    for length in range(1, 9):
        for word in canonical_words(length):
            if not shared:
                plan, exprs = _Plan(), []
            rotations = _rotations_and_reflections(word)
            exprs += [plan.trace(r) for r in rotations]
            words += [word] * len(rotations)
            if not shared:
                for x in samples:
                    expected = _naive_monomial((word,), x)
                    assert _plan_values(plan, exprs, x) == [expected] * len(exprs)
    if shared:
        for x in samples:
            expected = [_naive_monomial((w,), x) for w in words]
            assert _plan_values(plan, exprs, x) == expected
        # both trace forms ran: Tr(A . B) and Tr(A . B^T)
        assert any(e.startswith("trace_mul(") for e in exprs)
        assert any(e.startswith("sum(map(") for e in exprs)


def test_split_picks_the_rotation_needing_fewest_nodes():
    plan = _Plan()
    plan.trace((X, X, XT, XT))          # nodes for xx and its transpose
    assert plan.products == 1
    # as it stands, (X, XT, XT, X) needs nodes for X XT and XT X; its first
    # rotation, (XT, XT, X, X), needs none
    assert plan.cost((X, XT, XT, X)) == 2
    assert plan.split((X, XT, XT, X)) == (XT, XT, X, X)
    assert plan.trace((XT, XT, X, X)) == "sum(map(_mul, p0, p0))"   # Tr(A^T A)
    assert plan.products == 1


@pytest.mark.parametrize("d", [3, 5, 7])
def test_basis_row_of_shuffled_and_singleton_bases(d):
    # Integer and fraction samples against the unshared reference.
    rng = random.Random(f"shuffle/{d}")
    basis = enumerate_invariant_basis(d)
    for x in (random_int_matrix(3, rng, 10), random_fraction_matrix(2, rng)):
        assert evaluate_basis_row(d, x) == [_naive_monomial(m, x) for m in basis]


def test_plan_products_per_row():
    # Matrix products per row, for every n: the (9, 10) cell took 156 and
    # the (4, 7) cell 27 when every word prefix was a product.
    assert _compile_basis(10)[0] <= 31
    assert _compile_basis(7)[0] <= 9


@pytest.mark.parametrize("d", range(3, 11))
def test_row_function_keeps_no_monomial_temporaries(d):
    # Locals: x, xt, one per matrix product and one per distinct word; each
    # monomial is written inline in the returned list.
    products, make = _compile_basis(d)
    row = make(*_kernels(2), 3)
    distinct = {w for m in enumerate_invariant_basis(d) for w in m}
    assert row.__code__.co_nlocals == 2 + products + len(distinct)


def test_degree_12_basis_compiles_and_evaluates():
    basis = enumerate_invariant_basis(12)
    x = random_int_matrix(2, random.Random(12), 3)
    assert evaluate_basis_row(12, x) == [_naive_monomial(m, x) for m in basis]


@pytest.mark.parametrize("n", range(1, 9))
def test_kernels_match_triple_loops(n):
    mul, trace_mul = _kernels(n)
    rng = random.Random(f"kernels/{n}")
    for _ in range(3):
        a = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        ab = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    ab[i][j] += a[i][k] * b[k][j]
        flat_a = tuple(e for row in a for e in row)
        flat_b = tuple(e for row in b for e in row)
        assert mul(flat_a, flat_b) == tuple(e for row in ab for e in row)
        assert trace_mul(flat_a, flat_b) == sum(ab[i][i] for i in range(n))


def test_kernels_are_freed_without_the_cycle_collector():
    # A kernel whose __globals__ still held the kernel itself would form a
    # reference cycle and outlive a cache clear until gc.collect().
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _kernels.cache_clear()
        mul, trace_mul = _kernels(4)
        ref = weakref.ref(mul)
        _kernels.cache_clear()
        del mul, trace_mul
        assert ref() is None
        # the same holds for a degree's compiled row function
        ref = weakref.ref(_compile_basis(3)[1])
        _compile_basis.cache_clear()
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_basis_row_complex_sample():
    rng = random.Random(5)
    x = mat([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)]
             for _ in range(3)])
    basis = enumerate_invariant_basis(5)
    expected = [_naive_monomial(m, x) for m in basis]
    assert evaluate_basis_row(5, x) == pytest.approx(expected)
    assert [evaluate_monomial(m, x) for m in basis] == pytest.approx(expected)


def test_exact_mode_integer_matrices_give_integers():
    rng = random.Random(4)
    for _ in range(5):
        x = random_int_matrix(3, rng)
        for v in evaluate_basis_row(4, x):
            assert Fraction(v).denominator == 1


def test_complex_mode_evaluation():
    x = mat([[complex(0, 1), 0], [0, complex(0, -1)]])
    assert evaluate_word((X, X), x) == pytest.approx(-2)
