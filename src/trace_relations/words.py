"""Trace words, necklace classes and fixed-point-free involutions.

A degree-d invariant of the orthogonal conjugation action is a product of
traces of monomials in x and x^T with d letters in total.  Each trace factor
is a cyclic word over the two-letter alphabet {X, XT}; the whole product is a
multiset of such words.  A word is its canonical letter tuple, which
quotients out rotation (cyclicity of the trace) and reversal-with-letter-swap
(Tr(W) = Tr(W^T)), and a necklace class is the sorted tuple of its words, so
equal invariants compare equal.

Fixed-point-free involutions on 2d points (perfect matchings) encode the
same data as tensor contraction patterns: slots 2i and 2i+1 (0-indexed) are
the row and column index of tensor factor i.  A matching is its pairing
tuple p, p[a] the partner of slot a.
"""

from __future__ import annotations

from functools import lru_cache

X = 0   # letter for a factor x
XT = 1  # letter for a factor x^T

_LETTER_CHARS = "xt"   # indexed by letter

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


def _word_key(word):
    # Longer words first, then lexicographic with X < XT.  This matches the
    # bit-exact class-id serialization ("xx*x", not "x*xx").
    return (-len(word), word)


def monomial(words):
    """The necklace class of a multiset of trace words: the tuple of their
    canonical letter tuples, sorted by _word_key."""
    ws = tuple(sorted(map(canonicalize_letters, words), key=_word_key))
    if not ws:
        raise ValueError("invariant monomial needs at least one word")
    return ws


def encode(m):
    """Class id of a necklace class: its words spelled in x and t, joined
    by '*'."""
    return "*".join("".join(_LETTER_CHARS[l] for l in w) for w in m)


def tau(d):
    """The canonical matching, pairing slot 2i with slot 2i+1."""
    if d < 1:
        raise ValueError("d must be positive")
    p = []
    for i in range(d):
        p += [2 * i + 1, 2 * i]
    return tuple(p)


def involution_to_monomial(p):
    """Necklace class of a matching (pairing tuple p) under the left/right
    slot convention; ValueError unless p is a fixed-point-free involution.

    Factor i owns slots 2i (left / row index) and 2i+1 (right / column index).
    Entering a factor through its left slot contributes the letter X and exits
    through the right slot; entering through the right slot contributes XT and
    exits left.  Each traversal cycle closes up into one trace word.
    """
    size = len(p)
    if not size or size % 2 or any(not 0 <= b < size or b == a or p[b] != a
                                   for a, b in enumerate(p)):
        raise ValueError(f"not a fixed-point-free involution: {p!r}")
    d = size // 2
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
        words.append(letters)
    return monomial(words)


@lru_cache(maxsize=None)
def canonical_words(length):
    """All canonical trace words of the given length, sorted.

    A word is read as a length-bit int v, one bit per letter (X = 0,
    XT = 1), first letter most significant, so int order is the letter
    tuples' lexicographic order.  Walking v upward, the first value met in
    each class is its minimum, the canonical word; marking its rotations
    and those of its reversed, letter-swapped word as seen covers the
    whole class.
    """
    mask = (1 << length) - 1
    top = length - 1
    seen = bytearray(1 << length)
    found = []
    for v in range(1 << length):
        if seen[v]:
            continue
        bits = format(v, f"0{length}b")
        found.append(tuple(map(int, bits)))
        for w in (v, int(bits[::-1], 2) ^ mask):
            for _ in range(length):
                seen[w] = 1
                w = (w << 1 & mask) | (w >> top)
    return tuple(found)


def enumerate_invariant_basis(d):
    """Ordered degree-d spanning set; fixes the coordinate system for relations.

    Generated directly as multisets of canonical words, without enumerating
    the (2d-1)!! matchings.  The cap is checked on every call; below it, each
    d has one cached tuple, so callers share the very class tuples.
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
            out.append(tuple(acc))    # pool order is _word_key order
            return
        for j in range(i, len(pool)):
            w = pool[j]
            if len(w) <= remaining:
                rec(j, remaining - len(w), acc + [w])

    rec(0, d, [])
    return tuple(out)                 # the DFS emits them in word-key order
