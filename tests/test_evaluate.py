import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trace_relations.evaluate import (
    ContractionCapError, MatrixSample, contract_matching, evaluate_basis_row,
    evaluate_monomial, evaluate_word, load_matrix, matrix_from_json,
    matrix_to_json)
from trace_relations.words import (
    X, XT, InvariantMonomial, TraceWord, enumerate_fpf_involutions,
    enumerate_invariant_basis, involution_to_monomial, tau)


def mat(rows, mode="rational"):
    return MatrixSample(len(rows), tuple(tuple(r) for r in rows), mode)


def random_int_matrix(n, rng, bound=5):
    return mat([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


def test_matrix_sample_validation():
    with pytest.raises(ValueError):
        MatrixSample(2, ((1, 2),))
    with pytest.raises(ValueError):
        MatrixSample(1, ((float("nan"),),), "complex")
    with pytest.raises(ValueError):
        MatrixSample(1, ((1,),), "decimal")


def test_evaluate_word_examples():
    ident = mat([[1, 0], [0, 1]])
    assert evaluate_word(TraceWord((X,)), ident) == 2
    nilp = mat([[0, 1], [0, 0]])
    assert evaluate_word(TraceWord((X, XT)), nilp) == 1
    diag = mat([[1, 0], [0, 2]])
    assert evaluate_word(TraceWord((X, X, X)), diag) == 9


def test_evaluate_monomial_examples():
    diag = mat([[1, 0], [0, 2]])
    cube = InvariantMonomial((TraceWord((X,)),) * 3)
    assert evaluate_monomial(cube, diag) == 27
    sq_lin = InvariantMonomial((TraceWord((X, X)), TraceWord((X,))))
    assert evaluate_monomial(sq_lin, diag) == 15
    nilp = mat([[0, 1], [0, 0]])
    mixed = InvariantMonomial((TraceWord((X, XT)), TraceWord((X,))))
    assert evaluate_monomial(mixed, nilp) == 0


def test_evaluate_basis_row_degree3_identity():
    basis = enumerate_invariant_basis(3)
    ident = mat([[1, 0], [0, 1]])
    assert evaluate_basis_row(3, ident, basis) == [2, 2, 4, 4, 8]
    zero = mat([[0, 0], [0, 0]])
    assert evaluate_basis_row(3, zero, basis) == [0, 0, 0, 0, 0]


def test_evaluate_basis_row_degree1():
    basis = enumerate_invariant_basis(1)
    assert evaluate_basis_row(1, mat([[3, 1], [1, 4]]), basis) == [7]


def test_evaluate_basis_row_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        evaluate_basis_row(2, mat([[1]]), enumerate_invariant_basis(3))


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_transpose_letter_swap(a, b, c, d):
    # evaluating a word on x^T equals evaluating the letter-swapped word on x
    x = mat([[a, b], [c, d]])
    xt = x.transpose()
    for w in [(X,), (X, XT), (X, X, XT), (X, XT, XT, X)]:
        swapped = tuple(1 - l for l in w)
        assert evaluate_word(TraceWord(w), xt) == evaluate_word(TraceWord(swapped), x)


def signed_permutation_matrices(n, rng, count):
    for _ in range(count):
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        rows = [[signs[j] if perm[i] == j else 0 for j in range(n)]
                for i in range(n)]
        yield mat(rows)


def conjugate(g, x):
    gt = g.transpose()
    n = x.n
    def mm(a, b):
        return tuple(tuple(sum(a[i][l] * b[l][j] for l in range(n))
                           for j in range(n)) for i in range(n))
    return mat(mm(mm(gt.entries, x.entries), g.entries))


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


def test_contraction_cap():
    x = mat([[1] * 9 for _ in range(9)])
    with pytest.raises(ContractionCapError):
        contract_matching(tau(9), x, cell_cap=10)


def test_contraction_cap_env_lowers_cap(monkeypatch):
    monkeypatch.setenv("TRACE_RELATIONS_CAP", "2")
    with pytest.raises(ContractionCapError):
        contract_matching(tau(3), mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def _naive_monomial(monomial, x):
    # reference: one matrix product per letter of every word, no sharing
    n = x.n
    xt = tuple(zip(*x.entries))
    val = 1
    for w in monomial.words:
        prod = None
        for letter in w.letters:
            f = x.entries if letter == X else xt
            prod = f if prod is None else tuple(
                tuple(sum(prod[i][l] * f[l][j] for l in range(n)) for j in range(n))
                for i in range(n))
        val *= sum(prod[i][i] for i in range(n))
    return val


@pytest.mark.parametrize("d", range(1, 8))
def test_basis_row_matches_per_monomial_evaluation(d):
    basis = enumerate_invariant_basis(d)
    rng = random.Random(f"row/{d}")
    for n in range(1, 6):
        for bound in (10, 80):
            x = random_int_matrix(n, rng, bound)
            row = evaluate_basis_row(d, x, basis)
            assert row == [evaluate_monomial(m, x) for m in basis]
            assert row == [_naive_monomial(m, x) for m in basis]
            assert evaluate_basis_row(d, x, tuple(basis)) == row


def test_basis_row_complex_sample():
    rng = random.Random(5)
    x = mat([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)]
             for _ in range(3)], mode="complex")
    basis = enumerate_invariant_basis(5)
    expected = [_naive_monomial(m, x) for m in basis]
    assert evaluate_basis_row(5, x, basis) == pytest.approx(expected)
    assert [evaluate_monomial(m, x) for m in basis] == pytest.approx(expected)


def test_exact_mode_integer_matrices_give_integers():
    rng = random.Random(4)
    basis = enumerate_invariant_basis(4)
    for _ in range(5):
        x = random_int_matrix(3, rng)
        for v in evaluate_basis_row(4, x, basis):
            assert Fraction(v).denominator == 1


def test_matrix_json_roundtrip_rational(tmp_path):
    x = mat([[Fraction(1, 2), 3], [-2, Fraction(7, 5)]])
    obj = matrix_to_json(x)
    assert obj["entries"][0][0] == "1/2"
    assert matrix_from_json(obj) == x
    p = tmp_path / "m.json"
    import json
    p.write_text(json.dumps(obj))
    assert load_matrix(p) == x


def test_matrix_json_roundtrip_complex():
    x = mat([[complex(1, 2), 0], [0, complex(-1, 0.5)]], mode="complex")
    obj = matrix_to_json(x)
    assert obj["entries"][0][0] == [1.0, 2.0]
    assert matrix_from_json(obj) == x


def test_complex_mode_evaluation():
    x = mat([[complex(0, 1), 0], [0, complex(0, -1)]], mode="complex")
    assert evaluate_word(TraceWord((X, X)), x) == pytest.approx(-2)
