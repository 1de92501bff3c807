import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trace_relations import montecarlo
from trace_relations.montecarlo import (
    KernelCertificationError, RelationSet, SamplerConfig,
    build_evaluation_matrix, certified_kernel, estimate_relation_dimension_float,
    find_relations, normalize_vector, nullspace, rank_of, rel_dimension_table,
    sample_matrix, stream, verify_relation)
from trace_relations.words import enumerate_invariant_basis

CFG = SamplerConfig(seed=42)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, entry_bound=0)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, oversample=-1)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, mode="quaternion")


def test_sample_matrix_deterministic_and_bounded():
    a = sample_matrix(3, stream(5, "row", 0), CFG)
    b = sample_matrix(3, stream(5, "row", 0), CFG)
    assert a == b
    assert all(-10 <= e <= 10 for row in a.entries for e in row)
    c = sample_matrix(3, stream(5, "row", 1), CFG)
    assert a != c


def test_sample_matrix_complex_mode():
    cfg = SamplerConfig(seed=1, mode="complex")
    x = sample_matrix(2, stream(1, "row", 0), cfg)
    assert x.mode == "complex"
    assert isinstance(x.entries[0][0], complex)


def test_build_evaluation_matrix_shape():
    rows = build_evaluation_matrix(2, 3, 5, CFG)
    assert len(rows) == 5 and all(len(r) == 5 for r in rows)
    rows = build_evaluation_matrix(3, 1, 4, CFG)
    assert len(rows) == 4 and all(len(r) == 1 for r in rows)


def test_normalize_vector():
    assert normalize_vector([Fraction(-1, 2), Fraction(1, 3)]) == (3, -2)
    assert normalize_vector([0, -4, 6]) == (0, 2, -3)
    with pytest.raises(ValueError):
        normalize_vector([0, 0])


def test_nullspace_trivial_cases():
    assert nullspace([[1, 0], [0, 1]]) == []
    assert nullspace([[1, 1]]) == [(1, -1)]
    assert nullspace([[0, 0]]) == [(1, 0), (0, 1)]


def test_nullspace_rational_entries():
    assert nullspace([[Fraction(1, 2), Fraction(1, 2)]]) == [(1, -1)]


matrix_strategy = st.integers(2, 5).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(-9, 9), min_size=k, max_size=k),
        min_size=1, max_size=7))


@given(matrix_strategy)
@settings(max_examples=60)
def test_nullspace_vectors_annihilate_matrix(rows):
    vecs = nullspace(rows)
    k = len(rows[0])
    for v in vecs:
        assert len(v) == k
        for row in rows:
            assert sum(c * e for c, e in zip(v, row)) == 0


def _frac_rank(rows):
    rows = [[Fraction(e) for e in r] for r in rows]
    rank, k = 0, len(rows[0])
    for c in range(k):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@given(matrix_strategy)
@settings(max_examples=60)
def test_nullspace_dimension_matches_independent_rank(rows):
    # rank via plain rational Gaussian elimination, independent of Bareiss
    assert len(nullspace(rows)) == len(rows[0]) - _frac_rank(rows)


def test_rank_of():
    assert rank_of([[1, 0], [0, 1], [1, 1]]) == 2
    assert rank_of([]) == 0


def test_find_relations_n2_d3():
    rs = find_relations(2, 3, CFG)
    assert len(rs.relations) == 2
    assert rs.basis == ("xxx", "xxt", "xx*x", "xt*x", "x*x*x")
    target = [2, 0, -3, 0, 1]  # Tr(x)^3 - 3Tr(x^2)Tr(x) + 2Tr(x^3)
    span = [list(v) for v in rs.relations]
    assert rank_of(span) == 2
    assert rank_of(span + [target]) == 2


def test_find_relations_stable_range_empty():
    assert find_relations(3, 3, CFG).relations == ()
    assert find_relations(2, 2, CFG).relations == ()


def test_find_relations_n2_d4():
    assert len(find_relations(2, 4, CFG).relations) == 3


def test_find_relations_rejects_float_mode():
    with pytest.raises(ValueError):
        find_relations(2, 3, SamplerConfig(seed=1, mode="complex"))


def test_theorem_diagonal():
    from trace_relations.dimensions import rel_dim_formula
    for n in range(1, 6):
        rs = find_relations(n, n + 1, CFG)
        assert len(rs.relations) == rel_dim_formula(n)


def test_relations_vanish_only_on_smaller_matrices():
    # deep cell: every returned vector vanishes on M_n samples but the
    # selected basis is independent of the kernel one dimension up
    rs = find_relations(1, 4, CFG)
    assert len(rs.relations) == 5
    up = certified_kernel(2, 4, CFG)
    stack = [list(v) for v in up] + [list(v) for v in rs.relations]
    assert rank_of(stack) == len(up) + len(rs.relations)


def test_verify_relation():
    basis = enumerate_invariant_basis(3)
    good = (2, 0, -3, 0, 1)
    bad = (1, 0, 0, 0, 0)
    assert verify_relation(good, 2, 3, 20, stream(9, "v"), basis=basis)
    assert not verify_relation(bad, 2, 3, 20, stream(9, "v"), basis=basis)
    with pytest.raises(ValueError):
        verify_relation((1, 2), 2, 3, 5, stream(9, "v"), basis=basis)


def test_verify_relation_rejects_zero_vector():
    basis = enumerate_invariant_basis(3)
    assert not verify_relation((0, 0, 0, 0, 0), 2, 3, 20, stream(9, "v"), basis=basis)


@pytest.mark.parametrize("position", ["first", "last"])
def test_certified_kernel_rejects_spurious_vector(monkeypatch, position):
    # every attempt's kernel carries a non-relation; the shared certification
    # samples must catch it wherever it sits, so escalation runs out
    true_nullspace = montecarlo.nullspace
    bad = (1, 0, 0, 0, 0)

    def padded(rows):
        kernel = true_nullspace(rows)
        return [bad] + kernel if position == "first" else kernel + [bad]

    monkeypatch.setattr(montecarlo, "nullspace", padded)
    with pytest.raises(KernelCertificationError):
        certified_kernel(2, 3, CFG)


def test_verify_rejects_ambiguous_coefficient_variant():
    # the two printed candidates for the second (n=2, d=3) relation differ in
    # one coefficient; exact verification picks -1 and rejects -3
    basis = enumerate_invariant_basis(3)
    assert verify_relation((0, 2, -1, -2, 1), 2, 3, 20, stream(11, "v"), basis=basis)
    assert not verify_relation((0, 2, -3, -2, 1), 2, 3, 20, stream(11, "v"), basis=basis)


def test_relation_set_json_roundtrip():
    rs = find_relations(2, 3, CFG)
    text = rs.to_json()
    assert RelationSet.from_json(text) == rs
    assert text == find_relations(2, 3, CFG).to_json()


def test_reproducibility_bit_identical():
    a = find_relations(3, 4, SamplerConfig(seed=12345)).to_json()
    b = find_relations(3, 4, SamplerConfig(seed=12345)).to_json()
    assert a == b


def test_rel_dimension_table_small():
    table = rel_dimension_table(3, 2, CFG)
    assert table == {(1, 1): 0, (1, 2): 0, (2, 1): 2, (2, 2): 0,
                     (3, 1): 2, (3, 2): 2}


def test_float_mode_estimate():
    dim, svals = estimate_relation_dimension_float(2, 3, SamplerConfig(seed=3))
    assert dim == 2
    assert len(svals) == 5
