import collections
import hashlib
import itertools
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trace_relations import montecarlo
from trace_relations.cli import main
from trace_relations.dimensions import kernel_dim
from trace_relations.montecarlo import (
    ENTRY_BOUND, KernelCertificationError, RelationSet,
    build_evaluation_matrix, certification_trials, certified_kernel,
    find_relations, normalize_vector,
    nullspace, rank_of, rel_dimension_table, sample_matrix, stream,
    verify_relation)
from trace_relations.words import enumerate_invariant_basis

from oracles import annihilates
from test_replay import DIMS_D7_N2_SEED5

SEED = 42


def test_sample_matrix_deterministic_and_bounded():
    a = sample_matrix(3, stream(5, "row", 0), ENTRY_BOUND)
    b = sample_matrix(3, stream(5, "row", 0), ENTRY_BOUND)
    assert a == b
    assert len(a) == 9 and all(-10 <= e <= 10 for e in a)
    c = sample_matrix(3, stream(5, "row", 1), ENTRY_BOUND)
    assert a != c


@pytest.mark.parametrize("bound", [1, 10, 20, 80])
def test_sample_matrix_draws_the_randint_stream(bound):
    # The draws, and so every row and relation, are those of
    # rng.randint(-B, B) entry by entry, as on CPython 3.10 to 3.13.
    for seed in range(200):
        for n in (1, 4):
            rng = random.Random(seed)
            expected = tuple(rng.randint(-bound, bound) for _ in range(n * n))
            assert sample_matrix(n, random.Random(seed), bound) == expected


def test_evaluation_rows_skip_the_zero_matrix():
    # a 1 x 1 sample is zero once in 2B + 1 = 21 draws; its row would be all
    # zero and vanish under every coefficient vector
    rng = stream(2, "rows")
    samples = [sample_matrix(1, rng, ENTRY_BOUND) for _ in range(200)]
    nonzero = [x for x in samples if any(x)]
    assert len(nonzero) < len(samples)
    rows = list(itertools.islice(
        montecarlo._evaluation_rows(1, 1, stream(2, "rows")), len(nonzero)))
    assert rows == [montecarlo.evaluate_basis_row(1, x) for x in nonzero]


def test_build_evaluation_matrix_shape():
    rows = build_evaluation_matrix(2, 3, 5, SEED)
    assert len(rows) == 5 and all(len(r) == 5 for r in rows)
    rows = build_evaluation_matrix(3, 1, 4, SEED)
    assert len(rows) == 4 and all(len(r) == 1 for r in rows)


def test_normalize_vector():
    assert normalize_vector([-3, 2]) == (3, -2)
    assert normalize_vector([0, -4, 6]) == (0, 2, -3)
    with pytest.raises(ValueError):
        normalize_vector([0, 0])


def test_nullspace_trivial_cases():
    assert nullspace([[1, 0], [0, 1]]) == []
    assert nullspace([[1, 1]]) == [(1, -1)]
    assert nullspace([[0, 0]]) == [(1, 0), (0, 1)]


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


def _frac_rref(rows):
    """Pivot columns and nonzero rows of the reduced row echelon form, by
    plain rational Gauss-Jordan elimination."""
    rows = [[Fraction(e) for e in r] for r in rows]
    rank, k = 0, len(rows[0])
    pivots = []
    for c in range(k):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [a / rows[rank][c] for a in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(c)
        rank += 1
    return pivots, rows[:rank]


def _frac_rank(rows):
    return len(_frac_rref(rows)[0])


def _frac_nullspace(rows):
    # one vector per free column fc: 1 at fc, -R[i][fc] at pivot column i,
    # scaled to a primitive integer vector with positive leading entry
    pivots, reduced = _frac_rref(rows)
    basis = []
    for fc in range(len(rows[0])):
        if fc in pivots:
            continue
        v = [Fraction(0)] * len(rows[0])
        v[fc] = Fraction(1)
        for pc, row in zip(pivots, reduced):
            v[pc] = -row[fc]
        denom = math.lcm(*(c.denominator for c in v))
        ints = [int(c * denom) for c in v]
        g = math.gcd(*ints) * (1 if next(c for c in ints if c) > 0 else -1)
        basis.append(tuple(c // g for c in ints))
    return basis


@given(matrix_strategy)
@settings(max_examples=60)
def test_nullspace_dimension_matches_independent_rank(rows):
    # rank via plain rational Gaussian elimination, independent of the
    # modular elimination in nullspace
    assert len(nullspace(rows)) == len(rows[0]) - _frac_rank(rows)


def _matrices(bound):
    return st.integers(2, 5).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-bound, bound), min_size=k, max_size=k),
            min_size=1, max_size=7))


@given(st.one_of(_matrices(9), _matrices(2 ** 70)))
@settings(max_examples=80, deadline=None)
def test_nullspace_matches_rational_rref(rows):
    assert nullspace(rows) == _frac_nullspace(rows)


def test_nullspace_entry_past_one_prime_bound():
    # -1/2^40 has a denominator above sqrt(p/2) ~ 2^14.5: further primes are
    # needed before it can be reconstructed
    assert nullspace([[2 ** 40, 1]]) == [(1, -2 ** 40)]


def test_nullspace_unlucky_first_prime():
    # the first row vanishes mod FIRST_PRIME, so that prime sees rank 1 and
    # proposes (1, 0); only the exact check rejects it
    p = montecarlo.FIRST_PRIME
    assert nullspace([[p, 0], [0, 1]]) == []
    assert rank_of([[p, 0], [0, 1]]) == 2


def test_moduli_are_descending_primes():
    small = [q for q in range(41, 5000, 2)
             if all(q % f for f in range(3, math.isqrt(q) + 1, 2))]
    assert [q for q in range(41, 5000, 2) if montecarlo._is_prime(q)] == small
    first = list(itertools.islice(montecarlo._primes(), 3))
    assert first == [2 ** 30 - 35, 2 ** 30 - 41, 2 ** 30 - 83]
    # _primes yields the first modulus without testing it
    assert montecarlo._is_prime(montecarlo.FIRST_PRIME)


def test_first_moduli_are_single_digit_primes():
    # below 2^30, each multiplier p - f is one CPython digit; FIRST_PRIME is
    # the largest prime there
    moduli = list(itertools.islice(montecarlo._primes(), 10))
    assert all(montecarlo._is_prime(q) and q < 2 ** 30 for q in moduli)
    assert moduli[0] == montecarlo.FIRST_PRIME
    assert not any(montecarlo._is_prime(q)
                   for q in range(montecarlo.FIRST_PRIME + 2, 2 ** 30, 2))


def _count_primes(monkeypatch):
    calls = []
    rref_mod = montecarlo._rref_mod
    monkeypatch.setattr(montecarlo, "_rref_mod",
                        lambda rows, p: calls.append(p) or rref_mod(rows, p))
    return calls


_HALF = (montecarlo.FIRST_PRIME - 1) // 2


@pytest.mark.parametrize("kind,entry,primes", [
    ("denominator", 2 ** 14, 1), ("denominator", 2 ** 20, 2),
    ("integer", 2 ** 28, 1), ("integer", _HALF, 1), ("integer", _HALF + 1, 2)])
def test_nullspace_entry_sizes_take_one_or_two_primes(monkeypatch, kind, entry, primes):
    # [[entry, 1]]'s kernel vector reads -1/entry at the pivot: one prime
    # reconstructs a denominator up to about sqrt(p/2) ~ 2^14.5, and 2^20
    # needs the CRT product of two.  [[1, entry]]'s reads the integer
    # -entry: one prime holds it up to (p - 1)/2, and (p + 1)/2 needs two
    calls = _count_primes(monkeypatch)
    if kind == "denominator":
        assert nullspace([[entry, 1]]) == [(1, -entry)]
    else:
        assert nullspace([[1, entry]]) == [(entry, -1)]
    assert calls == list(itertools.islice(montecarlo._primes(), primes))


@pytest.mark.parametrize("k", [2047, 2048])
def test_packed_slots_round_trip_at_the_slot_size_step(k):
    # the slot grows from 9 to 10 bytes at k = 2048
    p = montecarlo.FIRST_PRIME
    echelon = montecarlo._Echelon(k, p)
    assert echelon.size == (9 if k < 2048 else 10)
    top = [p - 1] * k
    x = echelon._pack(top)
    assert x == (p - 1) * echelon.ones
    assert echelon._unpack(x) == top


def test_nullspace_entries_wider_than_a_prime():
    a, b, c, e = 3 ** 50, 5 ** 40, 7 ** 30, 11 ** 25
    vec = (b * e, -a * e, a * c)
    assert max(abs(x).bit_length() for x in vec) > 61
    assert nullspace([[a, b, 0], [0, c, e]]) == [vec]


def test_nullspace_fails_past_the_primes_a_correct_lift_needs(monkeypatch, capsys):
    # a check that rejects every vector, as a defect in the residues or in
    # _annihilates would, ends in an error instead of a loop over all primes
    monkeypatch.setattr(montecarlo, "_annihilates", lambda mat, vs: [False] * len(vs))
    calls = _count_primes(monkeypatch)
    with pytest.raises(KernelCertificationError, match="after 2 primes"):
        nullspace([[1, 2, 3], [4, 5, 6]])
    # no minor exceeds (isqrt(77) + 1)^2 = 81, 7 bits: a correct lift needs
    # one prime, and the bound allows two
    assert calls == list(itertools.islice(montecarlo._primes(), 2))
    assert main(["relations", "--n", "2", "--d", "4", "--seed", "1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: nullspace: no exact kernel after ")
    assert "Traceback" not in err


P = montecarlo.FIRST_PRIME
# 2^30 - c for c = 35, 41, 83: the first prime and the first CRT primes
PRIMES = list(itertools.islice(montecarlo._primes(), 3))


def _residue(x, p=P):
    return x.numerator * pow(x.denominator, -1, p) % p


def _entries(p):
    return st.one_of(st.integers(-9, 9), st.just(0),
                     st.integers(-3, 3).map(lambda m: m * p),
                     st.just(p - 1), st.just(1 - p),
                     st.integers(-2 ** 8, 2 ** 8).map(lambda m: m + 2 ** 70),
                     st.integers(-2 ** 8, 2 ** 8).map(lambda m: m - 2 ** 70))


def _deficient(k):
    # rank-deficient by construction: every row is a combination of two
    rows = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    return st.tuples(rows, rows, st.lists(st.tuples(st.integers(-2, 2),
                                                    st.integers(-2, 2)),
                                          min_size=1, max_size=6)).map(
        lambda t: [[a * x + b * y for x, y in zip(t[0], t[1])] for a, b in t[2]])


def _elimination_matrices(p):
    rows = st.integers(1, 6).flatmap(lambda k: st.one_of(
        st.lists(st.lists(_entries(p), min_size=k, max_size=k),
                 min_size=1, max_size=7),
        _deficient(k)))
    # duplicate some row
    return st.tuples(rows, st.integers(0, 6), st.booleans()).map(
        lambda t: t[0] + [t[0][t[1] % len(t[0])]] if t[2] else t[0])


def _assert_elimination_matches_oracle(rows, p):
    echelon = montecarlo._Echelon(len(rows[0]), p)
    raised = sum(echelon.add(row) for row in rows)
    pivots, reduced = echelon.free_rref()
    assert raised == echelon.rank == len(pivots)
    assert montecarlo._rref_mod(rows, p) == (pivots, reduced)
    # the rational RREF reduced mod p is the GF(p) one unless p divides one
    # of its denominators or the rank drops mod p; the pass gives it at the
    # free columns
    frac_pivots, frac_rows = _frac_rref([[e % p for e in row] for row in rows])
    if (len(frac_pivots) == len(pivots)
            and all(x.denominator % p for row in frac_rows for x in row)):
        assert frac_pivots == pivots
        free = [j for j in range(len(rows[0])) if j not in pivots]
        assert [[_residue(row[j], p) for j in free] for row in frac_rows] == reduced
    # rows that are zero mod p, duplicated or dependent raise nothing
    assert not echelon.add([p * e for e in rows[0]])
    assert not echelon.add(rows[-1])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_incremental_elimination_matches_rref_oracle(data):
    for p in PRIMES:
        _assert_elimination_matches_oracle(data.draw(_elimination_matrices(p)), p)


def test_incremental_elimination_reduces_every_pivot_column():
    # the third row leads at column 0, before the earlier pivots; the back
    # substitution must still clear the first two rows at column 0, so
    # their free column 3 reads -7/6, 9/2 and 1/2 of the rational RREF
    for p in PRIMES:
        echelon = montecarlo._Echelon(4, p)
        rows = ([0, 1, 1, 5], [0, 0, 2, 1], [3, 1, 0, 1])
        assert [echelon.add(r) for r in rows] == [True] * 3
        expected = [[_residue(Fraction(x), p)] for x in ("-7/6", "9/2", "1/2")]
        assert echelon.free_rref() == ([0, 1, 2], expected)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("k", [13, 40])
def test_elimination_slot_worst_case(p, k):
    # pivot rows e_i + (p - 1) e_last, i < k - 1, then a row of ones ending
    # in p - 1: every pivot adds (p - 1)^2 to the last slot, which reaches
    # (p - 1) + (k - 1)(p - 1)^2 before the fold, near the p + k p^2 that
    # the slot width allows for
    rows = [[1 if j == i else p - 1 if j == k - 1 else 0 for j in range(k)]
            for i in range(k - 1)]
    last = [1] * (k - 1) + [p - 1]
    top = (p - 1) + (k - 1) * (p - 1) ** 2
    echelon = montecarlo._Echelon(k, p)
    assert top > (k - 2) * p * p and top.bit_length() <= echelon.width
    _assert_elimination_matches_oracle(rows + [last], p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("later", ["p-1", "1"])
def test_free_column_slot_worst_case(p, later):
    # k = 40 columns, rank 39, one free column (the last).  Pivot row i is 1
    # at column i and `later` at each later pivot column.  With p - 1 there
    # and at the free column, every update multiplier is 1.  With 1 there
    # and -(39 - i) at the free column, every F_j is p - 1 and every
    # multiplier p - 1: row 0's slot takes 38 updates of (p - 1)^2, which a
    # slot sized for f = 1 update cannot hold, and one sized for rank can
    k, rank = 40, 39
    e = p - 1 if later == "p-1" else 1
    rows = [[0] * i + [1] + [e] * (rank - 1 - i)
            + [p - 1 if later == "p-1" else -(rank - i) % p]
            for i in range(rank)]
    if later == "1":
        top = (p - rank) + (rank - 1) * (p - 1) ** 2
        assert top.bit_length() > montecarlo._Echelon(1, p).width
        assert top.bit_length() <= montecarlo._Echelon(1, p, rank).width
        echelon = montecarlo._Echelon(k, p)
        for row in rows:
            echelon.add(row)
        assert echelon.free_rref()[1] == [[p - 1]] * rank
    _assert_elimination_matches_oracle(rows, p)


def _orthogonal_rows(v, picks):
    # for each pick (i, j, a, b): a (v_j e_i - v_i e_j) + b (v_j e_0 - v_0 e_j),
    # which annihilates v
    rows = []
    for i, j, a, b in picks:
        row = [0] * len(v)
        for (r, t), f in (((i, j), a), ((0, j), b)):
            row[r] += f * v[t]
            row[t] -= f * v[r]
        rows.append(row)
    return rows


_big_entries = st.one_of(st.integers(-9, 9), st.integers(-2 ** 200, 2 ** 200))


@given(st.lists(_big_entries, min_size=2, max_size=6).filter(any), st.data())
@settings(max_examples=100, deadline=None)
def test_packed_identity_check_matches_column_sums(v, data):
    k = len(v)
    index = st.integers(0, k - 1)
    picks = data.draw(st.lists(st.tuples(index, index, st.integers(-2, 2),
                                         st.integers(-2, 2)),
                               min_size=1, max_size=6))
    rows = _orthogonal_rows(v, picks)
    cols = list(zip(*rows))
    assert annihilates(cols, v)
    # a near miss: one entry off by one
    miss = list(v)
    miss[data.draw(index)] += data.draw(st.sampled_from([-1, 1]))
    # and any vector against the same rows
    other = data.draw(st.lists(_big_entries, min_size=k, max_size=k))
    vectors = [v, miss, other]
    # one verdict per vector, whatever the others in the set
    for subset in ([v], [miss], [other], vectors, vectors[::-1]):
        assert montecarlo._annihilates(rows, subset) == [annihilates(cols, w)
                                                          for w in subset]


@pytest.mark.parametrize("sign", [-1, 1])
def test_packed_identity_check_reads_the_first_and_last_rows(sign):
    # v = (a, b, x a + y b) with entries near 2^200.  The rows (b, -a, 0)
    # are zero at column 2 and (x, y, -1) is -1 there, so off by one at
    # column 2, v fails at one row only, by 1, whether it is the last or
    # the first
    a, b, x, y = 3 ** 63, -(5 ** 43), 7 ** 35, -(11 ** 29)
    v = (a, b, x * a + y * b)
    assert v[2].bit_length() > 190
    miss = (a, b, v[2] + sign)
    middle = [[b, -a, 0]] * 3
    for rows in (middle + [[x, y, -1]], [[x, y, -1]] + middle):
        cols = list(zip(*rows))
        assert annihilates(cols, v) and not annihilates(cols, miss)
        for vectors in ([v], [miss], [v, miss], [miss, v]):
            assert montecarlo._annihilates(rows, vectors) == [
                annihilates(cols, w) for w in vectors]


def test_packed_identity_check_never_carries_between_slots():
    # M v = (2^(u+r), -1) with k = 2^r + 1 columns: were a slot only
    # u + r bits wide, the first total would carry into the second and
    # cancel it.  The slot width counts bits(M), bits(v) and bits(k).
    for r in range(6):
        k = 2 ** r + 1
        rows = [[1] * (k - 1) + [0], [0] * (k - 1) + [1]]
        cols = list(zip(*rows))
        for u in range(260):
            v = [2 ** u] * (k - 1) + [-1]
            vectors = [v, [-c for c in v]]
            assert montecarlo._annihilates(rows, vectors) == [
                annihilates(cols, w) for w in vectors] == [False, False]


@pytest.mark.parametrize("width,mbits", [(63, 1), (63, 29), (63, 57),
                                          (64, 1), (64, 29), (64, 58),
                                          (65, 1), (65, 30), (65, 59),
                                          (70, 64)])
def test_packed_identity_check_at_the_64_bit_slot_boundary(width, mbits):
    # bits(M) + bits(v) + bits(k) + 2 = width, k = 6: slots are
    # struct-packed 64-bit words up to width 64 and byte strings past it,
    # where (70, 64) has entries that no 64-bit word holds.  Entries are
    # +-(2^mbits - 1) and +-(2^vbits - 1); w meets `block` at the largest
    # total k max|M| max|v|, and each near miss is one entry off
    k = 6
    a, big = 2 ** mbits - 1, 2 ** (width - 5 - mbits) - 1
    alt, block = [a, -a] * 3, [a] * 3 + [-a] * 3
    rows = [alt, block, [-x for x in alt], [-x for x in block]]
    u, w, z = [big] * k, [big] * 3 + [-big] * 3, [big, 0, -big, -big, 0, big]
    vectors = [u, [-c for c in u], w, z]
    for v in (u, z):
        for j in (0, k - 1):
            if v[j]:
                miss = list(v)
                miss[j] -= 1 if v[j] > 0 else -1
                vectors += [miss, [-c for c in miss]]
    mbits_seen = max(abs(x) for row in rows for x in row).bit_length()
    vbits_seen = max(abs(c) for v in vectors for c in v).bit_length()
    assert mbits_seen + vbits_seen + k.bit_length() + 2 == width
    cols = list(zip(*rows))
    expected = [annihilates(cols, v) for v in vectors]
    assert expected[:4] == [True, True, False, True] and expected.count(False) > 2
    assert montecarlo._annihilates(rows, vectors) == expected
    for v, ok in zip(vectors, expected):
        assert montecarlo._annihilates(rows, [v]) == [ok]


_WIDE_DENOMINATORS = [2 ** 40, 3 ** 25, 2 ** 10 * 3 ** 6 * 5 ** 4 * 7 ** 3]


@given(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1, max_size=6),
       st.sampled_from(_WIDE_DENOMINATORS), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_lift_is_primitive_without_a_gcd(numerators, denom, fc):
    # entries x_i = a_i / D over one wide D, reconstructed against the CRT
    # product of three primes: the rebuilt vector is scaled by lcm of the
    # reduced denominators only, and is already primitive and signed
    modulus = math.prod(PRIMES)
    k = len(numerators) + 1
    fc %= k
    pivots = [j for j in range(k) if j != fc]
    fracs = [Fraction(a, denom) for a in numerators]
    column = [-_residue(x, modulus) % modulus for x in fracs]
    vec = montecarlo._rational_vector(fc, pivots, column, modulus, k)
    assert vec == normalize_vector(vec)
    exact = [Fraction(1) if j == fc else None for j in range(k)]
    for pc, x in zip(pivots, fracs):
        exact[pc] = x
    scale = math.lcm(*(x.denominator for x in exact))
    assert vec == normalize_vector([int(x * scale) for x in exact])


@pytest.mark.parametrize("modulus", [P, PRIMES[0] * PRIMES[1]])
def test_lift_reads_whole_integer_columns_as_per_entry_reconstruction(modulus):
    # a column is read as the integer vector of its symmetric residues, s
    # exactly for every |s| <= (modulus - 1)/2; an entry with |s| <=
    # isqrt(modulus // 2) also reconstructs as exactly (s, 1), so there the
    # per-entry fractions give the same vector
    bound = math.isqrt(modulus // 2)
    half = (modulus - 1) // 2
    values = [0] + [sign * s for s in (1, bound, bound + 1, 2 ** 28, half)
                    for sign in (1, -1)]
    for s in values:
        whole = montecarlo._integer_vector(1, [0], [-s % modulus], modulus, 2)
        assert whole == normalize_vector((s, 1))
        frac = montecarlo._rational(s % modulus, modulus, bound)
        assert (frac == (s, 1)) == (abs(s) <= bound)
        rebuilt = montecarlo._rational_vector(1, [0], [-s % modulus], modulus, 2)
        assert rebuilt == (None if frac is None else normalize_vector(frac))
    for column in itertools.permutations(values, 3):
        residues = [-s % modulus for s in column]
        whole = montecarlo._integer_vector(3, [0, 1, 2], residues, modulus, 4)
        assert whole == normalize_vector(column + (1,))
        fracs = [montecarlo._rational(s % modulus, modulus, bound) for s in column]
        rebuilt = montecarlo._rational_vector(3, [0, 1, 2], residues, modulus, 4)
        if None in fracs:
            assert rebuilt is None
        else:
            exact = [Fraction(*f) for f in fracs] + [Fraction(1)]
            scale = math.lcm(*(x.denominator for x in exact))
            assert rebuilt == normalize_vector([int(x * scale) for x in exact])
            if all(abs(s) <= bound for s in column):
                assert rebuilt == whole


def _unimodular(rng, r):
    # an r x r integer matrix of determinant 1, as lower times upper
    # unitriangular
    lower = [[rng.randint(-2, 2) if j < i else int(i == j) for j in range(r)]
             for i in range(r)]
    upper = [[rng.randint(-2, 2) if j > i else int(i == j) for j in range(r)]
             for i in range(r)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*upper)]
            for row in lower]


_WIDE = st.one_of(st.integers(2 ** 15, (P - 1) // 2),
                  st.integers(-((P - 1) // 2), -2 ** 15), st.integers(-3, 3))


@given(st.integers(1, 5).flatmap(lambda r: st.tuples(
           st.just(r), st.lists(st.lists(_WIDE, min_size=r, max_size=r),
                                min_size=1, max_size=4))),
       st.integers(0, 2 ** 32))
@settings(max_examples=120, deadline=None)
def test_nullspace_lifts_wide_integer_kernels_from_the_first_prime(shape, seed):
    # M = A [I | C] with det A = 1 has the integer kernel (-C e_j, e_j),
    # with entries up to (p - 1)/2: past reconstruction's bound, yet one
    # prime holds them, so the first prime's integer vectors pass the exact
    # check
    r, cols = shape
    blocks = [[int(i == j) for j in range(r)] + [col[i] for col in cols]
              for i in range(r)]
    a = _unimodular(random.Random(seed), r)
    rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*blocks)]
            for row in a]
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _count_primes(monkeypatch)
        assert nullspace(rows) == _frac_nullspace(rows)
    assert calls == [P]


def _shared_denominator_columns(denom):
    entry = st.integers(-2 ** 28, 2 ** 28).filter(lambda c: math.gcd(c, denom) == 1)
    return st.tuples(st.just(denom), st.lists(
        st.lists(entry, min_size=2, max_size=2), min_size=1, max_size=3))


@given(st.sampled_from([2 ** 15 + 3, 2 ** 20, 3 ** 13, 2 ** 10 * 3 ** 6 * 7])
       .flatmap(_shared_denominator_columns))
@settings(max_examples=60, deadline=None)
def test_nullspace_takes_crt_for_a_shared_wide_denominator(case):
    # M = [D I | C] with each entry of C coprime to D: the reduced kernel
    # vectors have entries -C/D, with denominator D > sqrt(p/2), so neither
    # the integer vector nor the per-entry fractions from the first prime
    # pass, and CRT over further primes gives them
    denom, cols = case
    rows = [[denom * int(i == j) for j in range(2)] + [col[i] for col in cols]
            for i in range(2)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _count_primes(monkeypatch)
        assert nullspace(rows) == _frac_nullspace(rows)
    assert len(calls) >= 2


def test_rank_of():
    assert rank_of([[1, 0], [0, 1], [1, 1]]) == 2
    assert rank_of([]) == 0


def _product(rng, m, r, k):
    # an m x k integer matrix of rank at most r
    left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
    right = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            for row in left]


@pytest.mark.parametrize("m,r,k", [(3, 3, 7), (2, 2, 9), (7, 3, 3), (9, 2, 2),
                                   (4, 4, 4), (4, 2, 9), (9, 2, 4), (5, 3, 5),
                                   (1, 1, 6), (2, 1, 8)])
def test_rank_of_eliminates_the_shorter_side(monkeypatch, m, r, k):
    # rank(M) = rank(M^T): a wide matrix is transposed, so nullspace lifts
    # one vector per free column of the shorter side
    shapes = []
    true_nullspace = montecarlo.nullspace

    def recording(rows, *args):
        shapes.append((len(rows), len(rows[0])))
        return true_nullspace(rows, *args)

    monkeypatch.setattr(montecarlo, "nullspace", recording)
    rows = _product(random.Random(f"{m}x{k}/{r}"), m, r, k)
    assert rank_of(rows) == _frac_rank(rows)
    assert shapes == [(max(m, k), min(m, k))]


def test_find_relations_n2_d3():
    rs = find_relations(2, 3, SEED)
    assert len(rs.relations) == 2
    assert rs.basis == ("xxx", "xxt", "xx*x", "xt*x", "x*x*x")
    target = [2, 0, -3, 0, 1]  # Tr(x)^3 - 3Tr(x^2)Tr(x) + 2Tr(x^3)
    span = [list(v) for v in rs.relations]
    assert rank_of(span) == 2
    assert rank_of(span + [target]) == 2


def test_find_relations_stable_range_empty():
    # find_relations and rel_dimension_table answer these cells by the
    # stable-range theorem without sampling; the sampled kernel still checks
    # the theorem here
    for n in range(1, 5):
        for d in range(1, n + 1):
            assert find_relations(n, d, SEED).relations == ()
            k = len(enumerate_invariant_basis(d))
            rows = build_evaluation_matrix(n, d, k + montecarlo.IDLE_ROWS, SEED)
            assert nullspace(rows) == []


def test_find_relations_n2_d4():
    assert len(find_relations(2, 4, SEED).relations) == 3


def test_theorem_diagonal():
    from trace_relations.dimensions import rel_dim_formula
    for n in range(1, 8):
        rs = find_relations(n, n + 1, SEED)
        assert len(rs.relations) == rel_dim_formula(n)


@pytest.mark.skipif(os.environ.get("TRACE_RELATIONS_LONG") != "1",
                    reason="long diagonal cells; set TRACE_RELATIONS_LONG=1")
@pytest.mark.parametrize("n", [8, 9])
def test_theorem_diagonal_long(n):
    from trace_relations.dimensions import rel_dim_formula
    assert len(find_relations(n, n + 1, SEED).relations) == rel_dim_formula(n)


def test_diagonal_kernels_are_compared_with_the_closed_form(monkeypatch):
    # every certified kernel is compared with its proved count kernel_dim,
    # which is the closed form at d = n + 1: relations checks K_n and, past
    # d = n + 1, the ambient K_{n+1}; dims checks every kernel of each
    # degree's chain
    calls = []
    true_dim = montecarlo.kernel_dim
    monkeypatch.setattr(montecarlo, "kernel_dim",
                        lambda n, d: calls.append((n, d)) or true_dim(n, d))
    find_relations(3, 4, SEED)
    find_relations(2, 4, SEED)
    find_relations(1, 4, SEED)
    assert calls == [(3, 4), (2, 4), (3, 4), (1, 4), (2, 4)]
    calls.clear()
    rel_dimension_table(4, 2, SEED)
    assert calls == [(1, 4), (2, 4), (3, 4), (1, 3), (2, 3), (1, 2)]


def _draws(monkeypatch):
    # the (rows, echelon) pair of every _draw_rows call, with its n and d
    drawn = []
    true_draw = montecarlo._draw_rows

    def recording(n, d, *args):
        drawn.append((n, d, true_draw(n, d, *args)))
        return drawn[-1][2]

    monkeypatch.setattr(montecarlo, "_draw_rows", recording)
    return drawn


def _assert_each_draw_stopped_on_its_target(drawn):
    # the last row drawn raised the rank to k - kernel_dim(n, d)
    for n, d, (rows, echelon) in drawn:
        k = len(enumerate_invariant_basis(d))
        assert echelon.rank == k - kernel_dim(n, d)
        before = montecarlo._Echelon(k)
        for row in rows[:-1]:
            before.add(row)
        assert before.rank == echelon.rank - 1


@pytest.mark.parametrize("n", range(1, 6))
def test_diagonal_draw_stops_at_the_proved_rank(monkeypatch, n):
    # rank_p <= rank_Q <= k - rel_dim_formula(n) at d = n + 1, so drawing
    # stops on the row that reaches that rank, not after IDLE_ROWS idle rows
    from trace_relations.dimensions import rel_dim_formula
    drawn = _draws(monkeypatch)
    certified_kernel(n, n + 1, 13)
    [(_, _, (_, echelon))] = drawn
    assert echelon.rank == len(enumerate_invariant_basis(n + 1)) - rel_dim_formula(n)
    _assert_each_draw_stopped_on_its_target(drawn)


@pytest.mark.parametrize("run,draws", [(lambda: find_relations(4, 7, 5), 2),
                                       (lambda: rel_dimension_table(7, 2, 5), 15)],
                         ids=["relations-4-7", "dims-7x2"])
def test_every_draw_stops_at_the_proved_rank(monkeypatch, run, draws):
    # the same off the diagonal, at k - kernel_dim(n, d); a nested kernel's
    # rank counts its base rows too.  relations (4, 7) draws K_4 and K_5;
    # dims 7 x 2 draws K_1..K_3 per degree.
    drawn = _draws(monkeypatch)
    run()
    assert len(drawn) == draws
    _assert_each_draw_stopped_on_its_target(drawn)


def _idle_runs(monkeypatch):
    # per _draw_rows call: (target, rank reached, longest run of drawn rows
    # that raised no rank)
    draws, raised = [], []
    true_draw, true_add = montecarlo._draw_rows, montecarlo._Echelon.add

    def add(self, row):
        raised.append(true_add(self, row))
        return raised[-1]

    def recording(n, d, seed, base, target):
        raised.clear()
        rows, echelon = true_draw(n, d, seed, base, target)
        longest = max((len(list(run)) for up, run in itertools.groupby(raised)
                       if not up), default=0)
        draws.append((target, echelon.rank, longest))
        return rows, echelon

    monkeypatch.setattr(montecarlo._Echelon, "add", add)
    monkeypatch.setattr(montecarlo, "_draw_rows", recording)
    return draws


def _assert_idle_margin(monkeypatch, max_d, max_n, seeds):
    # A stall raises at once, so every draw must reach its proved rank well
    # before IDLE_ROWS idle rows: the longest idle run measured over 7100
    # kernels of dims 8 x 7, 10 x 9 and 11 x 10 was 3.
    draws = _idle_runs(monkeypatch)
    for seed in seeds:
        rel_dimension_table(max_d, max_n, seed)
    chain = sum(min(max_n + 1, d - 1) for d in range(2, max_d + 1))
    assert len(draws) == chain * len(seeds)
    assert all(rank == target for target, rank, _ in draws)
    assert max(longest for _, _, longest in draws) <= 3 < montecarlo.IDLE_ROWS


def test_every_draw_reaches_its_rank_with_an_idle_margin(monkeypatch):
    # dims 8 x 7 for seeds 0..4: 140 kernels
    _assert_idle_margin(monkeypatch, 8, 7, range(5))


@pytest.mark.skipif(os.environ.get("TRACE_RELATIONS_LONG") != "1",
                    reason="dims 10 x 9 twice; set TRACE_RELATIONS_LONG=1")
def test_every_draw_reaches_its_rank_with_an_idle_margin_long(monkeypatch):
    # dims 10 x 9 for seeds 100 and 101: 90 kernels
    _assert_idle_margin(monkeypatch, 10, 9, (100, 101))


@pytest.mark.parametrize("n,d,error", [(2, 3, -1), (1, 5, -1), (3, 6, -1), (4, 7, -1),
                                       (2, 3, 1), (2, 4, 1), (1, 5, 1)])
def test_a_wrong_kernel_dim_fails_certification(monkeypatch, n, d, error):
    # too small a count sets a rank the rows cannot reach, so drawing stalls
    # with the true dimension, not the count; too large a count stops short
    # and leaves a vector that fresh samples reject (or, with a target rank
    # of 0, passes it on the first row and stalls).
    # Too large a count runs on small cells only: the vector it leaves is
    # one of large fractions, which nullspace lifts through many primes.
    true_dim = montecarlo.kernel_dim
    monkeypatch.setattr(montecarlo, "kernel_dim", lambda m, e: true_dim(m, e) + error)
    with pytest.raises(KernelCertificationError):
        certified_kernel(n, d, SEED)


def _kernel_extra_primes(monkeypatch):
    # _rref_mod calls under certified_kernel, whose first prime's
    # elimination is the drawn echelon: each call is an extra prime.
    # rank_of's calls run outside it and are left out.
    calls, inside = [], [0]
    true_kernel = montecarlo.certified_kernel
    rref_mod = montecarlo._rref_mod

    def kernel(*args):
        inside[0] += 1
        try:
            return true_kernel(*args)
        finally:
            inside[0] -= 1

    def counting(rows, p):
        if inside[0]:
            calls.append(p)
        return rref_mod(rows, p)

    monkeypatch.setattr(montecarlo, "certified_kernel", kernel)
    monkeypatch.setattr(montecarlo, "_rref_mod", counting)
    return calls


def test_kernels_with_wide_integer_entries_take_one_prime(monkeypatch):
    # both seed-13 kernels at (5, 9) have integer entries past 2^14.5, and
    # each used to take a second prime
    calls = _kernel_extra_primes(monkeypatch)
    find_relations(5, 9, 13)
    assert calls == []


@pytest.mark.parametrize("command", ["relations", "dims"])
def test_workload_kernels_are_read_as_integer_vectors(monkeypatch, command):
    # every kernel column of these cells, the ambient and containment ones
    # included, passes as the integer vector of its residues, so no column
    # is rebuilt from fractions
    calls = []
    rational_vector = montecarlo._rational_vector
    monkeypatch.setattr(montecarlo, "_rational_vector",
                        lambda *args: calls.append(args) or rational_vector(*args))
    if command == "dims":
        rel_dimension_table(7, 2, 5)
    else:
        find_relations(4, 7, 13)
    assert calls == []


@pytest.mark.skipif(os.environ.get("TRACE_RELATIONS_LONG") != "1",
                    reason="frontier cells; set TRACE_RELATIONS_LONG=1")
@pytest.mark.parametrize("cell", [(8, 9), (9, 10), (3, 10), (2, 11), "dims"])
def test_kernels_with_wide_integer_entries_take_one_prime_long(monkeypatch, cell):
    # each of these used to take one second prime; the dims 10 x 9 table at
    # seed 5 used to take 11
    calls = _kernel_extra_primes(monkeypatch)
    if cell == "dims":
        rel_dimension_table(10, 9, 5)
    else:
        find_relations(*cell, 13)
    assert calls == []


def test_relations_vanish_only_on_smaller_matrices():
    # deep cell: every returned vector vanishes on M_n samples but the
    # selected basis is independent of the kernel one dimension up
    rs = find_relations(1, 4, SEED)
    assert len(rs.relations) == 5
    up, _ = certified_kernel(2, 4, SEED)
    stack = [list(v) for v in up] + [list(v) for v in rs.relations]
    assert rank_of(stack) == len(up) + len(rs.relations)


def _greedy_quotient(kernel, ambient):
    # Reference quotient: keep each kernel vector that raises the rank of the
    # ambient kernel plus the vectors kept so far.
    chosen = []
    for v in kernel:
        if rank_of(ambient + chosen + [v]) > len(ambient) + len(chosen):
            chosen.append(v)
    return tuple(chosen)


@pytest.mark.parametrize("n,d", [(1, 3), (1, 5), (2, 4), (2, 5), (2, 6),
                                 (3, 5), (3, 6)])
def test_quotient_matches_greedy_rank_loop(monkeypatch, n, d):
    kernels = {}
    true_kernel = montecarlo.certified_kernel

    def recording(m, *args, **kwargs):
        result = true_kernel(m, *args, **kwargs)
        kernels[m] = result[0]
        return result

    monkeypatch.setattr(montecarlo, "certified_kernel", recording)
    rs = find_relations(n, d, SEED)
    assert rs.relations == _greedy_quotient(kernels[n], kernels[n + 1])


def test_find_relations_rejects_kernel_one_up_outside_kernel(monkeypatch, capsys):
    # Tr(x^3) does not vanish on 1 x 1 matrices, so a 2 x 2 kernel holding
    # it cannot lie in the 1 x 1 kernel; nor can a true 2 x 2 relation off by
    # one in its last coordinate, since every invariant is x^3 on 1 x 1
    true_kernel = montecarlo.certified_kernel
    for spurious in (_unit, _near_miss):
        def padded(m, *args, **kwargs):
            kernel, base = true_kernel(m, *args, **kwargs)
            return (kernel + [spurious(kernel)] if m == 2 else kernel), base

        monkeypatch.setattr(montecarlo, "certified_kernel", padded)
        with pytest.raises(KernelCertificationError):
            find_relations(1, 3, SEED)
        assert main(["relations", "--n", "1", "--d", "3", "--seed", "1"]) == 4
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("n,d", [(1, 3), (2, 5), (3, 6), (4, 7)])
def test_find_relations_certifies_the_ambient_on_the_n_rows(monkeypatch, n, d):
    # the (n+1) kernel is certified on top of the n x n rows: its rows are
    # K_n's rows, then a prefix of the rows an unnested K_{n+1} would draw,
    # and every ambient vector annihilates the n x n rows
    seen = _kernel_rows(monkeypatch)
    calls = {}      # m -> (base, rows, certified_kernel's result)
    true_kernel = montecarlo.certified_kernel

    def recording(m, deg, seed, base=None):
        first = len(seen)
        result = true_kernel(m, deg, seed, base)
        calls[m] = base, seen[first], result
        return result

    monkeypatch.setattr(montecarlo, "certified_kernel", recording)
    find_relations(n, d, SEED)
    assert sorted(calls) == [n, n + 1]
    base, _, (_, below) = calls[n]
    assert base is None
    base, rows, (ambient, _) = calls[n + 1]
    assert base is below
    drawn = rows[len(below[0]):]
    assert rows[:len(below[0])] == below[0]
    assert 1 <= len(drawn)
    assert drawn == build_evaluation_matrix(n + 1, d, len(drawn),
                                            f"{SEED}:n{n + 1}:attempt0")
    cols = list(zip(*below[0]))
    assert ambient and all(annihilates(cols, u) for u in ambient)


def test_dims_nests_each_kernel_in_the_one_below(monkeypatch, tmp_path):
    # dims certifies each K_{m+1} on top of K_m's rows, so K_{m+1} lies in
    # span(K_m) by construction: no rank_of runs, and the table is unchanged
    def no_rank(rows):
        raise AssertionError("dims ran rank_of")

    kernels = {}    # (m, d) -> (certified_kernel's result, its base)
    true_kernel = montecarlo.certified_kernel

    def recording(m, d, seed, base=None):
        kernels[(m, d)] = true_kernel(m, d, seed, base), base
        return kernels[(m, d)][0]

    monkeypatch.setattr(montecarlo, "rank_of", no_rank)
    monkeypatch.setattr(montecarlo, "certified_kernel", recording)
    out = tmp_path / "dims"
    argv = ["dims", "--max-d", "7", "--max-n", "2", "--seed", "5", "--output", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIMS_D7_N2_SEED5
    nested = 0
    for (m, d), ((kernel, _), base) in kernels.items():
        if m == 1:
            assert base is None
            continue
        _, below = kernels[(m - 1, d)][0]
        assert base is below
        cols = list(zip(*below[0]))
        assert all(annihilates(cols, v) for v in kernel)
        nested += 1
    # K_2 for d = 3..7 and K_3 for d = 4..7
    assert nested == 9


def test_verify_relation():
    good = (2, 0, -3, 0, 1)
    bad = (1, 0, 0, 0, 0)
    assert verify_relation(good, 2, 3, stream(9, "v"))
    assert not verify_relation(bad, 2, 3, stream(9, "v"))
    with pytest.raises(ValueError):
        verify_relation((1, 2), 2, 3, stream(9, "v"))


def test_verify_relation_rejects_zero_vector():
    assert not verify_relation((0, 0, 0, 0, 0), 2, 3, stream(9, "v"))


def _unit(kernel):
    # basis invariant 0 alone is no relation: on diag(x, 0, ..., 0) it is x^d
    return (1,) + (0,) * (len(kernel[0]) - 1)


def _near_miss(kernel):
    # a true kernel vector, off by one in its last coordinate
    return kernel[-1][:-1] + (kernel[-1][-1] + 1,)


@pytest.mark.parametrize("n,d,spurious,position", [
    (2, 3, _unit, "first"), (2, 3, _unit, "last"),
    (1, 7, _unit, "first"), (1, 7, _unit, "last"),
    (1, 7, _near_miss, "last"), (2, 5, _near_miss, "first")],
    ids=["first", "last", "many-first", "many-last", "many-near-miss",
         "near-miss"])
def test_certified_kernel_rejects_spurious_vector(monkeypatch, n, d, spurious,
                                                  position):
    # the kernel carries a non-relation; the shared certification samples
    # must catch it wherever it sits, also among the 75 vectors of (1, 7)
    # and when it is one unit away from a relation
    true_nullspace = montecarlo.nullspace

    def padded(rows, *args):
        kernel = true_nullspace(rows, *args)
        bad = spurious(kernel)
        return [bad] + kernel if position == "first" else kernel + [bad]

    monkeypatch.setattr(montecarlo, "nullspace", padded)
    with pytest.raises(KernelCertificationError):
        certified_kernel(n, d, SEED)


def _calls(monkeypatch, name):
    # the arguments of every call through montecarlo.<name>
    calls = []
    true_function = getattr(montecarlo, name)

    def recording(*args):
        calls.append(args)
        return true_function(*args)

    monkeypatch.setattr(montecarlo, name, recording)
    return calls


@pytest.mark.parametrize("n,d", [(2, 5), (3, 6)])
def test_a_stall_fails_without_a_lift_or_fresh_samples(monkeypatch, capsys, n, d):
    # a count one too small sets a rank the rows cannot reach: the draw
    # stalls at the true dimension and fails at once, with no nullspace
    # call and no fresh sample, in the engine and as exit 4 from the CLI
    true_dim = montecarlo.kernel_dim
    monkeypatch.setattr(montecarlo, "kernel_dim", lambda m, e: true_dim(m, e) - 1)
    lifts = _calls(monkeypatch, "nullspace")
    rounds = _calls(monkeypatch, "fresh_sample_verdicts")
    k = len(enumerate_invariant_basis(d))
    with pytest.raises(KernelCertificationError,
                       match=f"has dimension {true_dim(n, d)}, but the proved "
                             f"count is {true_dim(n, d) - 1} of k={k}$"):
        certified_kernel(n, d, SEED)
    assert main(["relations", "--n", str(n), "--d", str(d), "--seed", "1"]) == 4
    assert capsys.readouterr().err.startswith(
        f"error: kernel for n={n}, d={d} has dimension ")
    assert (lifts, rounds) == ([], [])


@pytest.mark.parametrize("n,d", [(2, 3), (2, 5)])
def test_a_rejected_vector_fails_after_one_round(monkeypatch, n, d):
    # at the proved rank another draw cannot mend a vector that fresh
    # samples reject: one lift and one fresh-sample round, then the error
    true_nullspace = montecarlo.nullspace
    lifts = []

    def padded(rows, *args):
        lifts.append(rows)
        kernel = true_nullspace(rows, *args)
        return kernel + [_near_miss(kernel)]

    monkeypatch.setattr(montecarlo, "nullspace", padded)
    rounds = _calls(monkeypatch, "fresh_sample_verdicts")
    with pytest.raises(KernelCertificationError, match="fresh samples reject"):
        certified_kernel(n, d, SEED)
    assert (len(lifts), len(rounds)) == (1, 1)


def _kernel_rows(monkeypatch):
    # the evaluation rows that certified_kernel hands to nullspace, per call
    seen = []
    true_nullspace = montecarlo.nullspace

    def recording(rows, *args):
        seen.append(rows)
        return true_nullspace(rows, *args)

    monkeypatch.setattr(montecarlo, "nullspace", recording)
    return seen


IDLE_COUNTS = (1, 2, 10)


@pytest.mark.parametrize("n,d", [(1, 7), (2, 5), (3, 6), (4, 5)])
def test_certified_kernel_draws_a_prefix_of_the_oversampled_matrix(monkeypatch, n, d):
    # the rows are a prefix of the evaluation matrix, (k + 1) IDLE_ROWS
    # rows at most
    seen = _kernel_rows(monkeypatch)
    k = len(enumerate_invariant_basis(d))
    first = f"{SEED}:n{n}:attempt0"
    for idle in IDLE_COUNTS:
        monkeypatch.setattr(montecarlo, "IDLE_ROWS", idle)
        seen.clear()
        certified_kernel(n, d, SEED)
        assert 1 <= len(seen[0]) <= (k + 1) * idle
        assert seen[0] == build_evaluation_matrix(n, d, len(seen[0]), first)


@pytest.mark.parametrize("d,m", [(5, 1), (6, 2), (7, 3)])
def test_dims_draws_each_nested_kernel_after_the_rows_below(monkeypatch, d, m):
    # the rows of a nested K_{m+1} are K_m's rows, then a prefix of the rows
    # an unnested K_{m+1} would draw
    seen = _kernel_rows(monkeypatch)
    calls = {}      # m -> (seed, rows, certified_kernel's result)
    true_kernel = montecarlo.certified_kernel

    def recording(n, deg, seed, base=None):
        first = len(seen)
        result = true_kernel(n, deg, seed, base)
        if deg == d:
            calls[n] = seed, seen[first], result
        return result

    monkeypatch.setattr(montecarlo, "certified_kernel", recording)
    rel_dimension_table(d, m, SEED)
    _, (below, _) = calls[m][2]
    seed, rows, _ = calls[m + 1]
    drawn = rows[len(below):]
    assert rows[:len(below)] == below
    assert 1 <= len(drawn)
    assert drawn == build_evaluation_matrix(m + 1, d, len(drawn),
                                            f"{seed}:n{m + 1}:attempt0")


def test_certified_kernel_stops_once_the_rank_settles(monkeypatch):
    # on 1 x 1 matrices every degree-7 invariant is a multiple of x^7: rank 1
    seen = _kernel_rows(monkeypatch)
    for idle in IDLE_COUNTS:
        monkeypatch.setattr(montecarlo, "IDLE_ROWS", idle)
        seen.clear()
        assert len(certified_kernel(1, 7, SEED)[0]) == 75
        assert len(seen) == 1 and len(seen[0]) <= 1 + idle


def test_certified_kernel_rejects_a_prefix_cut_too_short(monkeypatch):
    # one row leaves a kernel far larger than the true one: rank 1, short of
    # the proved rank, fails as a stall does, with no lift
    true_draw = montecarlo._draw_rows

    def one_row(n, d, seed, base, target):
        rows, _ = true_draw(n, d, seed, base, target)
        echelon = montecarlo._Echelon(len(rows[0]), P)
        echelon.add(rows[0])
        return rows[:1], echelon

    monkeypatch.setattr(montecarlo, "_draw_rows", one_row)
    lifts = _calls(monkeypatch, "nullspace")
    k = len(enumerate_invariant_basis(5))
    with pytest.raises(KernelCertificationError,
                       match=f"has dimension {k - 1}, but the proved count is "
                             f"{kernel_dim(2, 5)} of k={k}$"):
        certified_kernel(2, 5, SEED)
    assert lifts == []


@pytest.mark.parametrize("n,d", [(1, 5), (2, 6), (3, 6), (4, 7)])
def test_relations_do_not_depend_on_oversample(monkeypatch, n, d):
    # every draw stops at its proved rank before any idle run, so fewer
    # idle rows, which only end a stall, never change the certified result
    results = set()
    for idle in IDLE_COUNTS:
        monkeypatch.setattr(montecarlo, "IDLE_ROWS", idle)
        results.add(find_relations(n, d, 13).relations)
    assert len(results) == 1


def test_certification_trials_meet_the_bound_at_every_degree():
    # the floor of 20 wherever B = 10 and d <= 7; d = 8 needs more
    assert [certification_trials(10, d) for d in range(1, 8)] == [20] * 7
    assert certification_trials(10, 8) == 22
    for b in (1, 2, 10, 80):
        for d in range(1, 2 * b + 1):
            trials = certification_trials(b, d)
            per_trial = math.log2(d / (2 * b + 1))
            assert trials * per_trial <= -30
            assert trials >= 20
            assert trials == 20 or (trials - 1) * per_trial > -30


def test_certification_trials_are_exact_for_any_entry_bound():
    # The count is found in integers.  Where (2B + 1) / d fits a float, the
    # float formula is its oracle, on every degree the basis cap allows.
    for d in range(1, 15):
        for b in range((d + 1) // 2, 3000):
            q = 2 * b + 1
            assert certification_trials(b, d) == max(20, math.ceil(30 / math.log2(q / d)))
    # past float range, where q / d overflows, the floor of 20 holds
    assert certification_trials(10 ** 309, 14) == 20
    assert certification_trials(10 ** 4000, 1) == 20


@pytest.mark.parametrize("b,d", [(1, 3), (1, 4), (10, 21), (10, 30)])
def test_certification_trials_refuse_degree_past_entry_range(b, d):
    with pytest.raises(ValueError):
        certification_trials(b, d)


def test_engines_run_the_derived_trial_count(monkeypatch):
    # Every sample, kernel row or fresh, is drawn at B = ENTRY_BOUND, and
    # fresh_sample_verdicts draws certification_trials(ENTRY_BOUND, d)
    # samples itself: one round per kernel, and one round shared by the
    # kept vectors.
    from trace_relations import symmetrizer
    from trace_relations.symmetrizer import symmetrizer_relation_space
    rounds, bounds, degrees = [], [], []
    true_verdicts = montecarlo.fresh_sample_verdicts
    true_sample = montecarlo.sample_matrix
    true_row = montecarlo.evaluate_basis_row

    def recording(vectors, *args):
        rounds.append(len(vectors))
        return true_verdicts(vectors, *args)

    def sampling(n, rng, b):
        bounds.append(b)
        return true_sample(n, rng, b)

    def counting(d, x):
        degrees.append(d)
        return true_row(d, x)

    monkeypatch.setattr(montecarlo, "fresh_sample_verdicts", recording)
    monkeypatch.setattr(symmetrizer, "fresh_sample_verdicts", recording)
    monkeypatch.setattr(montecarlo, "sample_matrix", sampling)
    find_relations(2, 3, 3)
    assert rounds == [2]
    rounds.clear()
    symmetrizer_relation_space(2, 3)
    assert rounds == [2]
    assert bounds and set(bounds) == {ENTRY_BOUND}

    monkeypatch.setattr(montecarlo, "evaluate_basis_row", counting)
    vec = (1,) + (0,) * (len(enumerate_invariant_basis(8)) - 1)
    true_verdicts([vec], 2, 8, stream(1, "v"))
    assert len(degrees) == certification_trials(ENTRY_BOUND, 8) == 22
    degrees.clear()
    rounds.clear()
    verify_relation(vec, 2, 8, stream(1, "v"))
    assert (rounds, len(degrees)) == ([1], 22)


def test_verify_rejects_ambiguous_coefficient_variant():
    # the two printed candidates for the second (n=2, d=3) relation differ in
    # one coefficient; exact verification picks -1 and rejects -3
    assert verify_relation((0, 2, -1, -2, 1), 2, 3, stream(11, "v"))
    assert not verify_relation((0, 2, -3, -2, 1), 2, 3, stream(11, "v"))


def _fields(rs):
    return rs.n, rs.d, rs.relations, rs.method, rs.seed


def test_engines_hash_no_word_monomial_or_matching():
    # The degree alone fixes the basis, and words, classes and matchings are
    # plain tuples, so no engine path hashes a value object: with every
    # cache cleared, the row, symmetrizer and verify paths give the same
    # results again.
    from trace_relations import evaluate, symmetrizer, words

    def run():
        sets = (find_relations(2, 4, SEED),
                symmetrizer.symmetrizer_relation_space(2, SEED))
        return ([(_fields(rs), rs.to_json()) for rs in sets],
                verify_relation((0, 2, -1, -2, 1), 2, 3, stream(11, "v")),
                verify_relation((0, 2, -3, -2, 1), 2, 3, stream(11, "v")))

    def clear_caches():
        for cached in (words.canonical_words, words._invariant_basis,
                       evaluate._compile_basis, evaluate._row_function,
                       symmetrizer._basis_index, symmetrizer._class_index):
            cached.cache_clear()

    expected = run()
    assert expected[1:] == (True, False)
    clear_caches()
    assert run() == expected
    # one row function per degree, bound once for each n it runs at
    clear_caches()
    find_relations(4, 7, SEED)
    assert evaluate._compile_basis.cache_info().misses == 1
    assert evaluate._row_function.cache_info().misses == 2     # n = 4 and 5


def test_relation_set_json_roundtrip():
    rs = find_relations(2, 3, SEED)
    text = rs.to_json()
    back = RelationSet.from_json(text)
    assert _fields(back) == _fields(rs)
    assert back.to_json() == text == find_relations(2, 3, SEED).to_json()


def test_reproducibility_bit_identical():
    a = find_relations(3, 4, 12345).to_json()
    b = find_relations(3, 4, 12345).to_json()
    assert a == b


def test_rel_dimension_table_small():
    table = rel_dimension_table(3, 2, SEED)
    assert table == {(1, 1): 0, (1, 2): 0, (2, 1): 2, (2, 2): 0,
                     (3, 1): 2, (3, 2): 2}


def test_rel_dimension_table_certifies_each_kernel_once(monkeypatch):
    calls = collections.Counter()
    true_kernel = montecarlo.certified_kernel

    def counting(m, d, *args, **kwargs):
        calls[(m, d)] += 1
        return true_kernel(m, d, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "certified_kernel", counting)
    rel_dimension_table(7, 3, SEED)
    # cell (d, n) needs the kernels for n and, for d > n + 1, n + 1
    assert calls == {(m, d): 1 for d in range(1, 8) for m in range(1, 5) if m < d}


@pytest.mark.parametrize("seed", [5, 42])
def test_rel_dimension_table_matches_unshared_cells(seed):
    table = rel_dimension_table(7, 3, seed)
    for (d, n), count in table.items():
        cell_seed = stream(seed, "table", d, n).getrandbits(63)
        assert count == (0 if d <= n else
                         len(find_relations(n, d, cell_seed).relations))
