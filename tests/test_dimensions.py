import pytest

from trace_relations.dimensions import rel_dim_formula, stable_range
from trace_relations.symmetrizer import enumerate_standard_tableaux, two_column_shape

from oracles import catalan, enumerate_fpf_involutions, fpf_count, two_part_partitions


@pytest.mark.parametrize("n,dim", [(1, 2), (2, 2), (3, 3), (4, 3), (5, 4), (8, 5)])
def test_rel_dim_formula(n, dim):
    assert rel_dim_formula(n) == dim


def test_rel_dim_branches_agree():
    for n in range(1, 101):
        assert rel_dim_formula(n) == (n + 1) // 2 + 1


def test_rel_dim_table_diagonal():
    assert [rel_dim_formula(n) for n in range(1, 9)] == [2, 2, 3, 3, 4, 4, 5, 5]


def test_stable_range():
    assert stable_range(3, 3)
    assert not stable_range(4, 3)
    assert stable_range(1, 1)
    with pytest.raises(ValueError):
        stable_range(0, 1)


@pytest.mark.parametrize("d,count", [(1, 1), (2, 3), (3, 15), (4, 105)])
def test_fpf_count(d, count):
    assert fpf_count(d) == count


def test_fpf_count_matches_enumeration():
    for d in range(1, 7):
        assert fpf_count(d) == len(enumerate_fpf_involutions(d))


@pytest.mark.parametrize("m,c", [(1, 1), (2, 2), (3, 5), (4, 14), (5, 42)])
def test_catalan(m, c):
    assert catalan(m) == c


def test_catalan_counts_two_column_tableaux():
    for n in range(1, 6):
        tableaux = enumerate_standard_tableaux(two_column_shape(n))
        assert len(tableaux) == catalan(n + 1)


def test_two_part_partitions_examples():
    assert two_part_partitions(3) == [(2, 1), (1, 1, 1)]
    assert two_part_partitions(2) == [(2,), (1, 1)]
    assert two_part_partitions(4) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_two_part_partition_count_equals_rel_dim():
    for n in range(1, 31):
        assert len(two_part_partitions(n + 1)) == rel_dim_formula(n)


def test_two_part_partitions_are_partitions():
    for m in range(1, 12):
        for p in two_part_partitions(m):
            assert sum(p) == m
            assert all(x in (1, 2) for x in p)
            assert list(p) == sorted(p, reverse=True)
