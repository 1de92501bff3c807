from math import factorial

import pytest

from trace_relations.dimensions import (KERNEL_DIMS, kernel_dim, rel_dim_formula,
                                        stable_range)
from trace_relations.montecarlo import rel_dimension_table
from trace_relations.symmetrizer import enumerate_standard_tableaux, two_column_shape
from trace_relations.words import BASIS_CAP, enumerate_invariant_basis

from oracles import (all_partitions, catalan, centralizer_order, character,
                     doubled_shape_multiplicities, enumerate_fpf_involutions,
                     fpf_count, kernel_dim_oracle, two_part_partitions)


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


def test_characters_are_orthonormal():
    # sum_rho chi^lambda(rho) chi^nu(rho) / z_rho = [lambda = nu]
    for size in range(1, 8):
        shapes = list(all_partitions(size))
        for a in shapes:
            for b in shapes:
                total = sum(factorial(size) // centralizer_order(rho)
                            * character(a, rho) * character(b, rho) for rho in shapes)
                assert total == factorial(size) * (a == b)
    assert character((2, 1), (3,)) == -1 and character((2, 2), (2, 2)) == 2


def test_kernel_table_covers_every_degree_below_the_cap():
    assert len(KERNEL_DIMS) == BASIS_CAP
    assert all(len(row) == d - 1 for d, row in enumerate(KERNEL_DIMS, 1))


@pytest.mark.parametrize("d", range(1, BASIS_CAP + 1))
def test_kernel_table_equals_the_character_count(d):
    assert KERNEL_DIMS[d - 1] == tuple(kernel_dim_oracle(n, d) for n in range(1, d))


@pytest.mark.parametrize("d", range(1, BASIS_CAP + 1))
def test_doubled_shape_multiplicities_count_the_basis(d):
    # for n >= d every mu fits, and the invariants are the k basis monomials
    assert sum(doubled_shape_multiplicities(d).values()) == len(enumerate_invariant_basis(d))


def test_kernel_table_first_column_and_diagonal():
    for d in range(2, BASIS_CAP + 1):
        k = len(enumerate_invariant_basis(d))
        # on 1 x 1 matrices every degree-d invariant is a multiple of x^d
        assert kernel_dim(1, d) == k - 1
        # at n = d - 1 the kernel is the whole relation space
        assert kernel_dim(d - 1, d) == rel_dim_formula(d - 1)


def test_kernel_dim_outside_the_table():
    assert [kernel_dim(n, 4) for n in range(1, 7)] == [11, 6, 3, 0, 0, 0]
    assert kernel_dim(40, 3) == 0
    with pytest.raises(ValueError):
        kernel_dim(2, BASIS_CAP + 1)
    with pytest.raises(ValueError):
        kernel_dim(0, 3)


def test_sampled_dims_table_equals_the_kernel_table():
    table = rel_dimension_table(8, 7, 5)
    for (d, n), count in table.items():
        assert count == kernel_dim(n, d) - kernel_dim(n + 1, d)


def test_next_diagonals_follow_the_checked_pattern():
    # read off the table, not proved: d = n + 2 has n + 1 relations, and
    # d = n + 3 has 7n/2 (n even) or (7n + 3)/2 (n odd)
    def relations(n, d):
        return kernel_dim(n, d) - kernel_dim(n + 1, d)

    assert [relations(n, n + 2) for n in range(1, 13)] == list(range(2, 14))
    assert [relations(n, n + 3) for n in range(1, 12)] == [
        7 * n // 2 if n % 2 == 0 else (7 * n + 3) // 2 for n in range(1, 12)]
