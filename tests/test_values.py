"""The cached basis of a relation set, and the validation of the word, class
and tableau constructors."""

import re

import pytest

from trace_relations.montecarlo import METHOD_MONTECARLO, RelationSet
from trace_relations.symmetrizer import enumerate_standard_tableaux
from trace_relations.words import X, XT, canonicalize_letters, monomial

RELATION_SET_ARGS = (2, 3, ((1, 0, -1, 0, 0),), METHOD_MONTECARLO, 1)


def test_relation_set_cached_basis_is_not_a_field():
    a = RelationSet(*RELATION_SET_ARGS)
    assert a.basis == ("xxx", "xxt", "xx*x", "xt*x", "x*x*x")
    assert a.basis is a.basis


def test_constructors_canonicalise_their_fields():
    assert canonicalize_letters([XT, X, XT]) == (X, X, XT)
    assert monomial([[X], (XT, X)]) == monomial([(X, XT), (X,)]) == ((X, XT), (X,))


@pytest.mark.parametrize("build,message", [
    (lambda: canonicalize_letters(()), "trace word must have at least one letter"),
    (lambda: monomial([(X, 2)]), "letters must be X or XT"),
    (lambda: monomial(()), "invariant monomial needs at least one word"),
    (lambda: enumerate_standard_tableaux((1, 2)), "parts must be weakly decreasing"),
])
def test_validation_errors_are_unchanged(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
