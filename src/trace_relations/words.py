"""Trace words, necklace classes and fixed-point-free involutions.

A degree-d invariant of the orthogonal conjugation action is a product of
traces of monomials in x and x^T with d letters in total.  Each trace factor
is a cyclic word over the two-letter alphabet {X, XT}; the whole product is a
multiset of such words.  Words are stored in a canonical form that quotients
out rotation (cyclicity of the trace) and reversal-with-letter-swap
(Tr(W) = Tr(W^T)), so equal invariants compare equal.

Fixed-point-free involutions on 2d points encode the same data as tensor
contraction patterns: slots 2i and 2i+1 (0-indexed) are the row and column
index of tensor factor i.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

X = 0   # letter for a factor x
XT = 1  # letter for a factor x^T

_LETTER_CHARS = {X: "x", XT: "t"}

BASIS_CAP = 14       # direct word-multiset generation stays cheap


class EnumerationCapError(Exception):
    """Requested enumeration exceeds a fixed resource cap."""


def canonicalize_letters(letters):
    """Canonical representative of a cyclic trace word.

    Minimum, lexicographically with X < XT, over all rotations of the word
    and all rotations of the reversed word with every letter swapped.
    """
    w = tuple(letters)
    if not w:
        raise ValueError("trace word must have at least one letter")
    if any(l not in (X, XT) for l in w):
        raise ValueError(f"letters must be X or XT, got {w!r}")
    rev = tuple(1 - l for l in reversed(w))
    best = w
    for base in (w, rev):
        for r in range(len(w)):
            cand = base[r:] + base[:r]
            if cand < best:
                best = cand
    return best


class _Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in `_fields` and sets each once in its
    __init__ with `_set`.  Instances are equal when they are of the same
    class with equal fields, and equal instances hash equal.  Assigning or
    deleting any attribute raises AttributeError.
    """

    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_set = object.__setattr__


class TraceWord(_Value):
    """One trace factor; letters are stored canonically."""

    __slots__ = _fields = ("letters",)

    def __init__(self, letters):
        _set(self, "letters", canonicalize_letters(letters))

    # Explicit single-field __eq__ and __hash__: both run on hot paths.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.letters == other.letters
        return NotImplemented

    def __hash__(self):
        return hash(self.letters)

    def __len__(self):
        return len(self.letters)

    def encode(self):
        return "".join(_LETTER_CHARS[l] for l in self.letters)


def _word_key(word):
    # Longer words first, then lexicographic with X < XT.  This matches the
    # bit-exact class-id serialization ("xx*x", not "x*xx").
    return (-len(word), word.letters)


class InvariantMonomial(_Value):
    """Multiset of canonical trace words; one necklace class."""

    __slots__ = ("words", "_hash")
    _fields = ("words",)

    def __init__(self, words):
        # A TraceWord is canonical already; anything else is canonicalised.
        ws = tuple(sorted((w if isinstance(w, TraceWord) else TraceWord(w)
                           for w in words), key=_word_key))
        if not ws:
            raise ValueError("invariant monomial needs at least one word")
        _set(self, "words", ws)
        # Bases are hashed as cache keys once per evaluated row; hash once.
        _set(self, "_hash", hash(ws))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.words == other.words
        return NotImplemented

    def __hash__(self):
        return self._hash

    @property
    def degree(self):
        return sum(len(w) for w in self.words)

    def sort_key(self):
        return tuple(_word_key(w) for w in self.words)

    def encode(self):
        return "*".join(w.encode() for w in self.words)


class FpfInvolution(_Value):
    """Fixed-point-free involution on {0, ..., 2d-1}, i.e. a perfect matching."""

    __slots__ = _fields = ("pairing",)

    def __init__(self, pairing):
        p = tuple(pairing)
        _set(self, "pairing", p)
        if len(p) % 2 != 0 or not p:
            raise ValueError("pairing must cover an even, positive number of points")
        for a, b in enumerate(p):
            if not 0 <= b < len(p) or b == a or p[b] != a:
                raise ValueError(f"not a fixed-point-free involution: {p!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.pairing == other.pairing
        return NotImplemented

    def __hash__(self):
        return hash(self.pairing)

    @property
    def degree(self):
        return len(self.pairing) // 2


def tau(d):
    """The canonical involution pairing slot 2i with slot 2i+1."""
    if d < 1:
        raise ValueError("d must be positive")
    p = []
    for i in range(d):
        p += [2 * i + 1, 2 * i]
    return FpfInvolution(tuple(p))


def involution_to_monomial(inv):
    """Trace-word multiset of a matching under the left/right slot convention.

    Factor i owns slots 2i (left / row index) and 2i+1 (right / column index).
    Entering a factor through its left slot contributes the letter X and exits
    through the right slot; entering through the right slot contributes XT and
    exits left.  Each traversal cycle closes up into one trace word.
    """
    if not isinstance(inv, FpfInvolution):
        inv = FpfInvolution(tuple(inv))
    p = inv.pairing
    d = len(p) // 2
    seen = [False] * d
    words = []
    for start in range(d):
        if seen[start]:
            continue
        letters = []
        f, entered_left = start, True
        while True:
            seen[f] = True
            letters.append(X if entered_left else XT)
            exit_slot = 2 * f + (1 if entered_left else 0)
            s = p[exit_slot]
            f, entered_left = s // 2, (s % 2 == 0)
            if f == start:
                break
        words.append(TraceWord(tuple(letters)))
    return InvariantMonomial(tuple(words))


@lru_cache(maxsize=None)
def canonical_words(length):
    """All canonical trace words of the given length, sorted."""
    found = {canonicalize_letters(bits)
             for bits in itertools.product((X, XT), repeat=length)}
    return tuple(TraceWord(w) for w in sorted(found))


def enumerate_invariant_basis(d):
    """Ordered degree-d spanning set; fixes the coordinate system for relations.

    Generated directly as multisets of canonical words, without enumerating
    the (2d-1)!! matchings.  The cap is checked on every call; below it, each
    d has one cached tuple, so callers share the very monomial objects.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if d > BASIS_CAP:
        raise EnumerationCapError(
            f"basis enumeration for d={d} exceeds cap d <= {BASIS_CAP}")
    return _invariant_basis(d)


@lru_cache(maxsize=None)
def _invariant_basis(d):
    pool = sorted((w for m in range(1, d + 1) for w in canonical_words(m)),
                  key=_word_key)
    out = []

    def rec(i, remaining, acc):
        if remaining == 0:
            out.append(InvariantMonomial(tuple(acc)))
            return
        for j in range(i, len(pool)):
            w = pool[j]
            if len(w) <= remaining:
                rec(j, remaining - len(w), acc + [w])

    rec(0, d, [])
    return tuple(sorted(out, key=InvariantMonomial.sort_key))


def class_of_involution(inv):
    """Canonical class id (serialized necklace class) of a matching."""
    return involution_to_monomial(inv).encode()
