import pytest

from trace_relations import montecarlo, symmetrizer
from trace_relations.dimensions import rel_dim_formula
from trace_relations.montecarlo import SamplerConfig, find_relations, rank_of, stream, verify_relation
from trace_relations.symmetrizer import (
    StandardTableau, algebra_multiply, column_group, compose,
    enumerate_standard_tableaux, invert, project_tableau,
    project_to_invariants, row_group, symmetrizer_relation_space,
    two_column_shape, young_symmetrizer)
from trace_relations.words import EnumerationCapError, enumerate_invariant_basis

from oracles import (all_partitions, quasi_idempotency_failures,
                     symmetrizer_term_count, two_part_partitions)

CFG = SamplerConfig(seed=11)


def test_two_column_shape():
    assert two_column_shape(1) == (2, 2)
    assert two_column_shape(2) == (2, 2, 2)
    assert two_column_shape(4) == (2, 2, 2, 2, 2)
    with pytest.raises(ValueError):
        two_column_shape(0)


def test_standard_tableau_validation():
    StandardTableau((2, 2), ((0, 1), (2, 3)))
    with pytest.raises(ValueError):
        StandardTableau((2, 2), ((1, 0), (2, 3)))     # row not increasing
    with pytest.raises(ValueError):
        StandardTableau((2, 2), ((0, 2), (1, 1)))     # repeated entry
    with pytest.raises(ValueError):
        StandardTableau((2, 2), ((2, 3), (0, 1)))     # column decreasing
    with pytest.raises(ValueError):
        StandardTableau((1, 2), ((0,), (1, 2)))       # not a partition


@pytest.mark.parametrize("shape,count", [((2, 2), 2), ((2, 2, 2), 5),
                                         ((3, 2), 5), ((2, 2, 2, 2, 2), 42)])
def test_tableaux_counts(shape, count):
    tableaux = enumerate_standard_tableaux(shape)
    assert len(tableaux) == count
    assert len(set(tableaux)) == count


def test_group_sizes():
    t = enumerate_standard_tableaux((2, 2))[0]
    assert len(row_group(t)) == 4
    assert len(column_group(t)) == 4
    t = enumerate_standard_tableaux((2, 2, 2))[0]
    assert len(row_group(t)) == 8
    assert len(column_group(t)) == 36
    t = enumerate_standard_tableaux((2, 2, 2, 2, 2))[0]
    assert symmetrizer_term_count(t) == 460_800


def test_term_count_law():
    for n in range(1, 4):
        for t in enumerate_standard_tableaux(two_column_shape(n)):
            assert symmetrizer_term_count(t) == 2 ** (n + 1) * _fact(n + 1) ** 2


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _inversion_sign(p):
    inversions = sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))
    return -1 if inversions % 2 else 1


def test_column_group_signs():
    t = enumerate_standard_tableaux((1, 1))[0]
    elems = dict(column_group(t))
    assert elems[(0, 1)] == 1
    assert elems[(1, 0)] == -1
    for size in range(1, 7):
        for shape in all_partitions(size):
            for t in enumerate_standard_tableaux(shape):
                for p, sign in column_group(t):
                    assert sign == _inversion_sign(p)


def test_young_symmetrizer_trivial_shapes():
    t = StandardTableau((1,), ((0,),))
    assert young_symmetrizer(t) == {(0,): 1}
    t = StandardTableau((2,), ((0, 1),))
    assert young_symmetrizer(t) == {(0, 1): 1, (1, 0): 1}


def test_young_symmetrizer_square_example():
    t = StandardTableau((2, 2), ((0, 1), (2, 3)))
    y = young_symmetrizer(t)
    yy = algebra_multiply(y, y)
    # c = 4!/dim of the shape-(2,2) irreducible = 24/2 = 12
    assert yy == {p: 12 * c for p, c in y.items()}


@pytest.mark.parametrize("size", range(1, 7))
def test_quasi_idempotency_all_shapes(size):
    assert quasi_idempotency_failures(size) == ()


def test_compose_and_invert():
    p = (2, 0, 1)
    assert compose(p, invert(p)) == (0, 1, 2)
    q = (1, 0, 2)
    assert compose(p, q)[0] == p[q[0]]


def test_project_identity_term():
    for n in (1, 2):
        d = n + 1
        basis = enumerate_invariant_basis(d)
        idx = [m.encode() for m in basis].index("*".join(["x"] * d))
        ident = tuple(range(2 * d))
        vec = project_to_invariants({ident: 1}, n)
        expected = tuple(1 if i == idx else 0 for i in range(len(basis)))
        assert vec == expected
        # tau centralizes itself: e_id + e_tau doubles the same class
        from trace_relations.words import tau
        vec2 = project_to_invariants({ident: 1, tau(d).pairing: 1}, n)
        assert vec2 == expected  # normalized back to the unit vector


def test_project_zero_vector_passthrough():
    # e_id and e_tau conjugate tau to the same matching, so they cancel
    from trace_relations.words import tau
    y = {(0, 1, 2, 3): 1, tau(2).pairing: -1}
    assert project_to_invariants(y, 1) == (0, 0, 0)


def test_project_tableau_matches_expanded_symmetrizer():
    # The shape (2, ..., 2) for n <= 3, and every at-most-two-column shape
    # up to 6 boxes, whose column antisymmetrizers often cancel to zero.
    tableaux = [t for d in (1, 2, 3) for shape in two_part_partitions(2 * d)
                for t in enumerate_standard_tableaux(shape)]
    tableaux += enumerate_standard_tableaux(two_column_shape(3))
    zero = 0
    for t in tableaux:
        n = t.size // 2 - 1
        vec = project_tableau(t)
        assert vec == project_to_invariants(young_symmetrizer(t), n)
        zero += not any(vec)
    assert 0 < zero < len(tableaux)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetrizer_relation_space(n):
    rs = symmetrizer_relation_space(n, CFG)
    assert rs.method == "symmetrizer"
    assert len(rs.relations) == rel_dim_formula(n)
    basis = enumerate_invariant_basis(n + 1)
    for i, rel in enumerate(rs.relations):
        assert verify_relation(rel, n, n + 1, 20, stream(1, "t", i), basis=basis)


# The exact vectors the engine selects: tableau order, the product order of
# y_T and the normalization all show here, not only in the span.
PINNED_RELATIONS = {
    1: [(1, 0, -1), (1, -1, 0)],
    2: [(2, 0, -3, 0, 1), (1, -1, -1, 1, 0)],
    3: [(6, 0, 0, 0, -8, 0, -3, 0, 6, 0, 0, -1),
        (2, -2, 0, 0, -2, 2, -1, 1, 1, 0, -1, 0),
        (1, 2, -2, -1, -2, 2, 0, -1, 1, 1, -1, 0)],
    4: [(24, 0, 0, 0, -30, 0, 0, 0, -20, 0, 20, 0, 0, 0, 15, 0, -10, 0, 0, 1),
        (6, -6, 0, 0, -6, 6, 0, 0, -5, 2, 3, 3, 0, -3, 3, -3, -1, 0, 1, 0),
        (2, 6, -4, -4, -4, -2, 4, 2, -1, -2, 3, -1, 4, -3, 1, 1, -1, -2, 1, 0)],
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetrizer_relations_pinned(n):
    assert list(symmetrizer_relation_space(n, CFG).relations) == PINNED_RELATIONS[n]


def test_symmetrizer_selects_without_nullspace_and_certifies_once(monkeypatch):
    def no_nullspace(*args, **kwargs):
        raise AssertionError("selection ran an exact nullspace")

    calls = []
    true_verdicts = symmetrizer.fresh_sample_verdicts

    def recording(vectors, *rest):
        calls.append(len(vectors))
        return true_verdicts(vectors, *rest)

    monkeypatch.setattr(montecarlo, "nullspace", no_nullspace)
    monkeypatch.setattr(symmetrizer, "fresh_sample_verdicts", recording)
    rs = symmetrizer_relation_space(3, CFG)
    assert list(rs.relations) == PINNED_RELATIONS[3]
    assert calls == [rel_dim_formula(3)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cross_engine_span_agreement(n):
    ys = symmetrizer_relation_space(n, CFG)
    mc = find_relations(n, n + 1, CFG)
    r = rel_dim_formula(n)
    assert rank_of([list(v) for v in ys.relations]) == r
    assert rank_of([list(v) for v in mc.relations]) == r
    assert rank_of([list(v) for v in ys.relations + mc.relations]) == r


def test_symmetrizer_projections_land_in_mc_span():
    mc = find_relations(2, 3, CFG)
    span = [list(v) for v in mc.relations]
    for t in enumerate_standard_tableaux(two_column_shape(2)):
        vec = project_to_invariants(young_symmetrizer(t), 2)
        if any(vec):
            assert rank_of(span + [list(vec)]) == 2


def test_long_run_gate():
    with pytest.raises(EnumerationCapError):
        symmetrizer_relation_space(5, CFG)
