import itertools

import pytest
from hypothesis import given, strategies as st

from trace_relations import words
from trace_relations.evaluate import evaluate_word
from trace_relations.symmetrizer import _swap_labels
from trace_relations.words import (
    X, XT, EnumerationCapError, canonicalize_letters, encode,
    enumerate_invariant_basis, involution_to_monomial, monomial, tau)

from oracles import enumerate_fpf_involutions

letters = st.lists(st.sampled_from([X, XT]), min_size=1, max_size=9)


def brute_canonical(w):
    w = tuple(w)
    rev = tuple(1 - l for l in reversed(w))
    return min(b[r:] + b[:r] for b in (w, rev) for r in range(len(w)))


def test_canonicalize_examples():
    assert canonicalize_letters((XT,)) == (X,)
    assert canonicalize_letters((XT, X)) == (X, XT)
    assert canonicalize_letters((X, XT, X, X)) == brute_canonical((X, XT, X, X))
    assert canonicalize_letters((X, XT, X, X)) == (X, X, X, XT)


def test_canonicalize_rejects_empty_and_bad_letters():
    with pytest.raises(ValueError):
        canonicalize_letters(())
    with pytest.raises(ValueError):
        canonicalize_letters((0, 2))


@given(letters)
def test_canonicalize_idempotent(w):
    c = canonicalize_letters(w)
    assert canonicalize_letters(c) == c


@given(letters)
def test_canonicalize_matches_brute_force(w):
    assert canonicalize_letters(w) == brute_canonical(w)


@given(letters, st.integers(min_value=0, max_value=8))
def test_canonical_form_rotation_invariant(w, r):
    r = r % len(w)
    rotated = tuple(w[r:]) + tuple(w[:r])
    assert canonicalize_letters(rotated) == canonicalize_letters(w)
    swapped_rev = tuple(1 - l for l in reversed(w))
    assert canonicalize_letters(swapped_rev) == canonicalize_letters(w)


def test_tau():
    assert tau(1) == (1, 0)
    assert tau(2) == (1, 0, 3, 2)
    assert tau(3) == (1, 0, 3, 2, 5, 4)


def _is_fpf_involution(p):
    return len(p) % 2 == 0 and all(0 <= b < len(p) and b != a and p[b] == a
                                   for a, b in enumerate(p))


def test_fpf_involution_validation():
    # A matching is its pairing tuple, unchecked.  The symmetrizer builds
    # every matching from tau by label swaps, so those must give exactly
    # the fixed-point-free involutions.
    assert not _is_fpf_involution((0, 1, 2))        # odd length
    assert not _is_fpf_involution((0, 1, 3, 2))     # fixed point at 0
    assert not _is_fpf_involution((1, 0, 3, 3))     # not an involution
    for d in range(1, 5):
        seen, todo = {tau(d)}, [tau(d)]
        while todo:
            m = todo.pop()
            assert _is_fpf_involution(m)
            for a, b in itertools.combinations(range(2 * d), 2):
                m2 = _swap_labels(m, a, b)
                if m2 not in seen:
                    seen.add(m2)
                    todo.append(m2)
        assert seen == set(enumerate_fpf_involutions(d))


@pytest.mark.parametrize("d,count", [(1, 1), (2, 3), (3, 15), (4, 105), (5, 945), (6, 10395)])
def test_involution_counts(d, count):
    invs = enumerate_fpf_involutions(d)
    assert len(invs) == count
    assert len(set(invs)) == count


def test_involution_to_monomial_degree1():
    assert involution_to_monomial(tau(1)) == ((X,),)
    assert encode(involution_to_monomial(tau(1))) == "x"


@pytest.mark.parametrize("p", [(1, 2, 3, 0), (0, 1), (), (1, 0, 2), (1, 0, 3, 4)])
def test_involution_to_monomial_refuses_other_pairings(p):
    # not an involution, fixed points, empty, odd length, out of range
    with pytest.raises(ValueError, match="not a fixed-point-free involution"):
        involution_to_monomial(p)


def test_involution_to_monomial_degree2_classes():
    images = {encode(involution_to_monomial(i))
              for i in enumerate_fpf_involutions(2)}
    assert images == {"xx", "xt", "x*x"}
    # the slot convention pins which matching is which (certified against the
    # contraction oracle in test_evaluate)
    assert encode(involution_to_monomial((3, 2, 1, 0))) == "xx"   # (1 4)(2 3)
    assert encode(involution_to_monomial((2, 3, 0, 1))) == "xt"   # (1 3)(2 4)


def test_involution_to_monomial_degree3_image():
    images = {encode(involution_to_monomial(i))
              for i in enumerate_fpf_involutions(3)}
    assert images == {"xxx", "xxt", "xx*x", "xt*x", "x*x*x"}


def test_tau_maps_to_trace_power():
    for d in range(1, 5):
        assert encode(involution_to_monomial(tau(d))) == "*".join(["x"] * d)


@pytest.mark.parametrize("d,k", [(1, 1), (2, 3), (3, 5), (4, 12)])
def test_basis_sizes(d, k):
    assert len(enumerate_invariant_basis(d)) == k


def test_basis_cap_env(monkeypatch):
    # the cap is a constant; no environment variable lowers it
    monkeypatch.setenv("TRACE_RELATIONS_CAP", "2")
    assert len(enumerate_invariant_basis(3)) == 5
    # a word is evaluated through its degree's basis, so the cap holds there
    with pytest.raises(EnumerationCapError):
        evaluate_word((X,) * 15, (1,))
    monkeypatch.setattr(words, "BASIS_CAP", 2)
    with pytest.raises(EnumerationCapError):
        enumerate_invariant_basis(3)
    monkeypatch.setattr(words, "BASIS_CAP", 3)
    assert len(enumerate_invariant_basis(3)) == 5


def test_basis_is_one_cached_tuple_per_degree(monkeypatch):
    basis = enumerate_invariant_basis(4)
    assert isinstance(basis, tuple)
    assert enumerate_invariant_basis(4) is basis
    # the cap is checked before the cache, so a cached degree still obeys it
    monkeypatch.setattr(words, "BASIS_CAP", 3)
    with pytest.raises(EnumerationCapError):
        enumerate_invariant_basis(4)


def test_basis_order_degree3():
    assert [encode(m) for m in enumerate_invariant_basis(3)] == \
        ["xxx", "xxt", "xx*x", "xt*x", "x*x*x"]


def test_basis_is_in_word_key_order():
    for d in range(1, 13):
        basis = enumerate_invariant_basis(d)
        assert list(basis) == sorted(
            basis, key=lambda m: tuple(map(words._word_key, m)))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_basis_equals_involution_image(d):
    direct = set(map(encode, enumerate_invariant_basis(d)))
    via_inv = {encode(involution_to_monomial(i))
               for i in enumerate_fpf_involutions(d)}
    assert direct == via_inv


def test_basis_degrees_and_canonical_words():
    for m in enumerate_invariant_basis(5):
        assert sum(map(len, m)) == 5
        assert monomial(m) == m
        for w in m:
            assert w == canonicalize_letters(w)


@pytest.mark.parametrize("length", range(1, 13))
def test_canonical_words_are_every_class_minimum_in_order(length):
    # exhaustive against canonicalize_letters on all 2^length letter tuples
    found = {canonicalize_letters(w)
             for w in itertools.product((X, XT), repeat=length)}
    assert words.canonical_words(length) == tuple(sorted(found))


def _pair_permutation_conjugate(p, g):
    # g permutes tensor factors; slot 2i+e goes to 2g(i)+e
    d = len(g)
    slot = [0] * (2 * d)
    for i in range(d):
        slot[2 * i] = 2 * g[i]
        slot[2 * i + 1] = 2 * g[i] + 1
    out = [0] * (2 * d)
    for a in range(2 * d):
        out[slot[a]] = slot[p[a]]
    return tuple(out)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_class_constant_on_factor_permutation_orbits(d):
    perms = list(itertools.permutations(range(d)))
    for inv in enumerate_fpf_involutions(d):
        cid = encode(involution_to_monomial(inv))
        for g in perms:
            conj = _pair_permutation_conjugate(inv, g)
            assert encode(involution_to_monomial(conj)) == cid


def test_monomial_word_order():
    m = monomial(((X,), (X, X)))
    assert m == ((X, X), (X,))
    assert encode(m) == "xx*x"


def test_monomial_canonicalises_letter_tuples_and_keeps_words():
    # (XT, X) and (X, XT, XT) are not canonical; (XT,) is Tr(x^T) = Tr(x)
    m = monomial(((XT,), (XT, X), (X, XT, XT)))
    assert encode(m) == "xxt*xt*x"
    assert m == ((X, X, XT), (X, XT), (X,))
