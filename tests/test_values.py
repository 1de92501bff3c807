"""Value semantics of the package's immutable classes: equality by class and
fields, equal hashes, read-only fields, a repr that names both, and the
constructors' validation."""

import re

import pytest

from trace_relations.evaluate import MatrixSample, _Compiled
from trace_relations.montecarlo import METHOD_MONTECARLO, RelationSet, SamplerConfig
from trace_relations.symmetrizer import StandardTableau
from trace_relations.words import X, XT, FpfInvolution, InvariantMonomial, TraceWord


def _make(mul, trace_mul, diag):
    return None


# (class, fields, constructor arguments, arguments that differ in one field)
CASES = [
    (TraceWord, ("letters",), ((XT, X, XT),), ((X, X, X),)),
    (InvariantMonomial, ("words",), (((X,), (XT, X)),), (((X,), (X, X)),)),
    (FpfInvolution, ("pairing",), ((1, 0, 3, 2),), ((2, 3, 0, 1),)),
    (MatrixSample, ("n", "entries"), (2, ((1, 2), (3, 4))), (2, ((1, 2), (3, 5)))),
    (_Compiled, ("products", "make"), (2, _make), (3, _make)),
    (SamplerConfig, ("seed", "entry_bound"), (7, 10), (7, 20)),
    (RelationSet, ("n", "d", "relations", "method", "seed", "entry_bound"),
     (2, 3, ((1, 0, -1, 0, 0),), METHOD_MONTECARLO, 1, 10),
     (2, 3, ((1, 0, -1, 0, 0),), METHOD_MONTECARLO, 2, 10)),
    (StandardTableau, ("shape", "rows"),
     ((2, 2), ((0, 1), (2, 3))), ((2, 2), ((0, 2), (1, 3)))),
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
    args = CASES[6][2]
    a, b = RelationSet(*args), RelationSet(*args)
    assert a.basis == ("xxx", "xxt", "xx*x", "xt*x", "x*x*x")
    assert a.basis is a.basis
    assert a == b and hash(a) == hash(b)


def test_constructors_canonicalise_their_fields():
    assert TraceWord([XT, X, XT]).letters == (X, X, XT)
    assert InvariantMonomial([[X], (XT, X)]) == InvariantMonomial([(X, XT), (X,)])
    assert FpfInvolution([1, 0]).pairing == (1, 0)
    assert MatrixSample(1, [[5]]).entries == ((5,),)
    assert StandardTableau([2, 2], [[0, 1], [2, 3]]).rows == ((0, 1), (2, 3))
    assert SamplerConfig(seed=3).entry_bound == 10


@pytest.mark.parametrize("build,message", [
    (lambda: TraceWord(()), "trace word must have at least one letter"),
    (lambda: TraceWord((X, 2)), "letters must be X or XT"),
    (lambda: InvariantMonomial(()), "invariant monomial needs at least one word"),
    (lambda: FpfInvolution((0, 1)), "not a fixed-point-free involution"),
    (lambda: FpfInvolution((1, 0, 2)), "pairing must cover an even, positive"),
    (lambda: FpfInvolution(()), "pairing must cover an even, positive"),
    (lambda: MatrixSample(2, ((1, 2), (3,))), "entries must form an 2x2 matrix"),
    (lambda: MatrixSample(2, ((1, 2),)), "entries must form an 2x2 matrix"),
    (lambda: MatrixSample(0, ()), "n must be positive"),
    (lambda: SamplerConfig(seed=1, entry_bound=0), "entry_bound must be >= 1"),
    (lambda: StandardTableau((2, 2), ((0, 2), (3, 1))), "rows must strictly increase"),
    (lambda: StandardTableau((2, 2), ((0, 3), (1, 2))), "columns must strictly increase"),
    (lambda: StandardTableau((1, 2), ((0,), (1, 2))), "parts must be weakly decreasing"),
    (lambda: StandardTableau((2, 2), ((0, 1), (2,))), "row lengths do not match shape"),
    (lambda: StandardTableau((2,), ((0, 0),)), "entries must be 0..size-1 exactly once"),
])
def test_validation_errors_are_unchanged(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
