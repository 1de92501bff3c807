"""Value semantics of the package's immutable class: equality by class and
fields, equal hashes, read-only fields, a repr that names both; and the
validation of the word and class constructors."""

import re

import pytest

from trace_relations.montecarlo import METHOD_MONTECARLO, RelationSet
from trace_relations.symmetrizer import enumerate_standard_tableaux
from trace_relations.words import X, XT, canonicalize_letters, monomial

RELATION_SET_ARGS = (2, 3, ((1, 0, -1, 0, 0),), METHOD_MONTECARLO, 1)

# (class, fields, constructor arguments, arguments that differ in one field)
CASES = [
    (RelationSet, ("n", "d", "relations", "method", "seed"),
     RELATION_SET_ARGS, (2, 3, ((1, 0, -1, 0, 0),), METHOD_MONTECARLO, 2)),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls,fields,args,other_args", CASES, ids=IDS)
def test_equal_fields_are_equal_with_equal_hashes(cls, fields, args, other_args):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != cls(*other_args)
    assert len({a, b, cls(*other_args)}) == 2


@pytest.mark.parametrize("cls,fields,args,other_args", CASES, ids=IDS)
def test_other_class_with_same_fields_is_not_equal(cls, fields, args, other_args):
    other = type("Other", (cls,), {})
    a, b = cls(*args), other(*args)
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
    assert a != b and b != a
    assert a != tuple(getattr(a, f) for f in fields)


@pytest.mark.parametrize("cls,fields,args,other_args", CASES, ids=IDS)
def test_fields_are_read_only(cls, fields, args, other_args):
    a = cls(*args)
    for f in fields:
        value = getattr(a, f)
        with pytest.raises(AttributeError):
            setattr(a, f, value)
        with pytest.raises(AttributeError):
            delattr(a, f)
        assert getattr(a, f) == value
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == cls(*args)


@pytest.mark.parametrize("cls,fields,args,other_args", CASES, ids=IDS)
def test_repr_names_class_and_fields(cls, fields, args, other_args):
    a = cls(*args)
    assert repr(a) == (f"{cls.__qualname__}("
                       + ", ".join(f"{f}={getattr(a, f)!r}" for f in fields) + ")")


def test_relation_set_cached_basis_is_not_a_field():
    a, b = RelationSet(*RELATION_SET_ARGS), RelationSet(*RELATION_SET_ARGS)
    assert a.basis == ("xxx", "xxt", "xx*x", "xt*x", "x*x*x")
    assert a.basis is a.basis
    assert a == b and hash(a) == hash(b)


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
