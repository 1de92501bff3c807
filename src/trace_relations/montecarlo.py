"""Random-evaluation engine for relations between trace invariants.

Samples integer matrices, evaluates every spanning invariant on each sample,
and computes the exact rational null space of the resulting evaluation
matrix.  Any true relation lies in that null space for every sample choice,
so the kernel can only be too large, never too small.  Rows are drawn
until the rank reaches the one the proved kernel dimension allows, where
the null space is exactly the kernel; one certification round on fresh
samples still checks every vector.
"""

from __future__ import annotations

import json
import random
import struct
from functools import cached_property
from itertools import compress, islice, repeat
from math import gcd, isqrt, lcm
from operator import mul

from .dimensions import kernel_dim, stable_range
# evaluate_monomial is unused here but stays importable from this module:
# benchmark/spans.py traces calls through montecarlo.evaluate_monomial.
from .evaluate import evaluate_basis_row, evaluate_monomial  # noqa: F401
from .words import encode, enumerate_invariant_basis

METHOD_MONTECARLO = "montecarlo"
METHOD_SYMMETRIZER = "symmetrizer"


class KernelCertificationError(Exception):
    """A computed relation basis failed certification (CLI exit 4)."""


# Every sample, for kernel rows and fresh checks alike, has entries uniform
# on [-B, B], B = ENTRY_BOUND; 2B + 1 = 21 exceeds every degree the basis cap
# allows (d <= 14), so `certification_trials` always has a bound.
ENTRY_BOUND = 10


def stream(seed, *labels):
    """Deterministic per-purpose RNG stream; str seeding is stable across runs."""
    return random.Random("/".join([str(seed), *map(str, labels)]))


def sample_matrix(n, rng, b):
    """An n x n sample as the flat row-major tuple of its n^2 integer
    entries, each uniform on [-b, b].

    Each entry is drawn as CPython's rng.randint(-b, b) draws it, on 3.10
    to 3.13: r = rng.getrandbits(k), k = (2b + 1).bit_length(), redrawn
    while r >= 2b + 1; the entry is r - b.  Same stream, without randint's
    per-call argument handling.
    """
    q = 2 * b + 1
    k = q.bit_length()
    bits = rng.getrandbits
    entries = []
    for _ in range(n * n):
        r = bits(k)
        while r >= q:
            r = bits(k)
        entries.append(r - b)
    return tuple(entries)


def _evaluation_rows(n, d, rng):
    """The degree-d basis invariants on each successive sample drawn from
    `rng` with entry bound ENTRY_BOUND.

    Zero matrices satisfy every relation vacuously, so they are skipped.
    """
    while True:
        x = sample_matrix(n, rng, ENTRY_BOUND)
        if any(x):
            yield evaluate_basis_row(d, x)


def build_evaluation_matrix(n, d, m, seed):
    """m x k matrix of the first m rows drawn from stream(seed, "rows")."""
    return list(islice(_evaluation_rows(n, d, stream(seed, "rows")), m))


def normalize_vector(vec):
    """The integer vector divided by the gcd of its entries, signed so that
    its leading nonzero coordinate is positive."""
    if not any(vec):
        raise ValueError("cannot normalize the zero vector")
    g = gcd(*vec)
    if next(v for v in vec if v) < 0:
        g = -g
    return tuple(v // g for v in vec)


def _is_prime(q):
    # Miller-Rabin with these bases is exact for odd 37 < q < 3.3e24.
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


# The largest prime below 2^30.  CPython stores ints in 30-bit digits, so
# every multiplier p - f of a row update is a single digit, and a packed
# slot takes 9 bytes (10 from k = 2048 on).
FIRST_PRIME = 2 ** 30 - 35


def _primes():
    """The fixed moduli of `nullspace`: FIRST_PRIME = 2^30 - 35, then the
    primes below it in descending order (2^30 - 41, 2^30 - 83, ...).
    FIRST_PRIME is yielded untested; the tests check it with `_is_prime`."""
    yield FIRST_PRIME
    q = FIRST_PRIME - 2
    while True:
        if _is_prime(q):
            yield q
        q -= 2


def _slot_bytes(entries, size):
    """Nonnegative ints, each below 2^(8 size), as consecutive little-endian
    slots of `size` bytes."""
    return b"".join(map(int.to_bytes, entries, repeat(size), repeat("little")))


def _ones(size, slots):
    """The int with a 1 at the bottom of each of `slots` slots of `size`
    bytes."""
    return int.from_bytes(b"\x01".ljust(size, b"\x00") * slots, "little")


class _Echelon:
    """Row echelon form over GF(p) of integer rows fed one at a time.

    Each row is packed into one int, entry j in the j-th slot of `width`
    bits, so a row update is one big-int multiply-add.  Slots stay
    nonnegative and are not reduced between updates: a pivot row holds
    slots below p, and a slot takes at most `updates` products below p^2
    before it is folded (one per pivot, so k by default), so it stays below
    p + updates p^2 < 2^width.

    Reduction mod p is packed as well.  Write p = 2^s - c; for the moduli of
    `_primes`, c is small (35, 41, 83, ...).  Since 2^s = c mod p,
    `_fold` replaces the bits at and above s of every slot by c times their
    value, x <- (x & LO) + c ((x >> s) & HI), which keeps each slot's
    residue, until every slot is below 2^s.  Then one packed conditional
    subtract leaves every slot below p: a slot is >= p iff adding c to it
    carries past bit s.  A whole row is thus reduced, tested for zero, read
    for its leading column (its lowest set bit) and rescaled in a few
    big-int operations, with no per-slot Python work.

    A fed row is reduced against the pivot rows in insertion order; each
    pivot row is zero at the pivot columns of the rows before it, so what
    survives is zero at every pivot column and becomes a pivot row, scaled to
    a leading 1.  Every nonzero vector of the row space leads at a pivot
    column of its reduced row echelon form, so these leading columns are
    exactly its pivot columns.

    `free_rref` completes the reduced row echelon form at the free columns
    only, which are all that `nullspace` reads.  It packs those entries of
    each row into an `_Echelon` of f = k - rank slots that are sized for
    rank updates between folds, not f.
    """

    def __init__(self, k, p=FIRST_PRIME, updates=None):
        self.k, self.p = k, p
        self.s = s = p.bit_length()
        self.c = (1 << s) - p
        updates = k if updates is None else updates
        self.size = (2 * s + updates.bit_length() + 8) // 8  # bytes per slot
        # a residue below p < 2^32 in the low 4 bytes of each slot
        self.slots = struct.Struct("<" + f"I{self.size - 4}x" * k)
        self.width, self.mask = 8 * self.size, (1 << 8 * self.size) - 1
        self.ones = _ones(self.size, k)                 # 1 in every slot
        self.lo = ((1 << s) - 1) * self.ones            # bits below s
        self.hi = ((1 << self.width - s) - 1) * self.ones  # width - s low bits
        self.top = self.hi << s                         # bits at and above s
        self.cs = self.c * self.ones
        self.pivots = []        # leading column of each pivot row
        self.rows = []          # packed pivot rows, slots below p

    @property
    def rank(self):
        return len(self.pivots)

    def copy(self):
        """An echelon form to feed further rows without changing this one;
        packed rows are ints, so only the two lists are copied."""
        other = _Echelon.__new__(_Echelon)
        vars(other).update(vars(self), pivots=list(self.pivots), rows=list(self.rows))
        return other

    def _pack(self, residues):
        return int.from_bytes(self.slots.pack(*residues), "little")

    def _unpack(self, x):
        return list(self.slots.unpack(x.to_bytes(self.slots.size, "little")))

    def _fold(self, x):
        """x with every slot replaced by its residue mod p."""
        s, c, lo, hi, top = self.s, self.c, self.lo, self.hi, self.top
        while x & top:
            x = (x & lo) + c * (x >> s & hi)
        return x - self.p * ((x + self.cs) >> s & self.ones)

    def add(self, row):
        """Feed one integer row; True iff it raised the rank."""
        p, width, mask = self.p, self.width, self.mask
        x = self._pack(map(p.__rmod__, row))
        for col, prow in zip(self.pivots, self.rows):
            f = (x >> col * width & mask) % p
            if f:
                x += (p - f) * prow
        x = self._fold(x)
        if not x:
            return False
        lead = ((x & -x).bit_length() - 1) // width
        inv = pow(x >> lead * width & mask, -1, p)
        self.pivots.append(lead)
        self.rows.append(self._fold(x * inv))
        return True

    def free_rref(self):
        """(pivot columns in order, the nonzero rows of the reduced row
        echelon form at the free columns only, in the same order).

        One back-substitution pass from the last pivot row to the first.
        Pivot row i is zero at the pivot columns of the rows before it, so
        its reduced row is R_i = row_i - sum_{j>i} row_i[pivot_j] R_j: each
        later R_j is 1 at its own pivot column and 0 at every other, so the
        coefficient is row i's own entry there.  Restricted to the f free
        columns, F_i = row_i[free] - sum_{j>i} row_i[pivot_j] F_j.  Each
        row is unpacked once, and F_i is packed into f slots, which collect
        up to rank updates below p^2 before one fold.
        """
        p, pivots = self.p, self.pivots
        piv_set = set(pivots)
        free = [j for j in range(self.k) if j not in piv_set]
        packed = _Echelon(len(free), p, self.rank)
        later_cols, later = [], []      # F_j of the rows after this one
        for col, row in zip(reversed(pivots), reversed(self.rows)):
            entries = self._unpack(row)
            x = packed._pack(map(entries.__getitem__, free))
            for e, g in zip(map(entries.__getitem__, later_cols), later):
                if e:
                    x += (p - e) * g
            later_cols.append(col)
            later.append(packed._fold(x))
        later.reverse()
        order = sorted(range(len(pivots)), key=pivots.__getitem__)
        return [pivots[i] for i in order], [packed._unpack(later[i]) for i in order]


def _rref_mod(rows, p):
    """Reduced row echelon form of integer rows over GF(p) at the free
    columns: (pivot columns, the nonzero rows at the free columns)."""
    echelon = _Echelon(len(rows[0]), p)
    for row in rows:
        echelon.add(row)
        if echelon.rank == echelon.k:
            break
    return echelon.free_rref()


def _rational(r, modulus, bound):
    """(a, b) with a = b r mod modulus, |a| <= bound, 0 < b <= bound and
    gcd(a, b) = 1, or None (Wang's rational reconstruction)."""
    r0, r1, t0, t1 = modulus, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _signed(vec):
    """The integer vector as a tuple, negated if its leading nonzero entry
    is negative."""
    if next(v for v in vec if v) < 0:
        return tuple(-v for v in vec)
    return tuple(vec)


def _integer_vector(fc, pivots, column, modulus, k):
    """The integer vector with 1 at free column fc and s_i at pivot column
    pivots[i], s_i = -column[i] read in the symmetric range
    [-(modulus - 1)/2, (modulus - 1)/2], signed to a positive leading
    entry.  Its entry 1 at fc makes it primitive.

    For odd modulus and half = modulus // 2, (x + half) mod modulus is
    half - s for the symmetric value s of -x, so the whole column is read
    with two C-level maps.
    """
    half = modulus // 2
    vec = [0] * k
    vec[fc] = 1
    for pc, t in zip(pivots, map(modulus.__rmod__, map(half.__add__, column))):
        vec[pc] = half - t
    return _signed(vec)


def _rational_vector(fc, pivots, column, modulus, k):
    """Primitive integer vector with 1 at free column fc and -column[i] at
    pivot column pivots[i], each entry rebuilt as a fraction from its
    residue mod modulus and the vector scaled to a positive leading entry;
    None if some entry has no rational reconstruction.

    Each entry is reconstructed alone, numerator and denominator bounded by
    isqrt(modulus // 2).  Scaling the fractions a_i/b_i (each in lowest
    terms) by denom = lcm(b) already gives a primitive vector.  A prime q
    dividing denom divides it to the power it has in some b_i, so q does
    not divide denom/b_i, nor a_i, which is coprime to b_i: q does not
    divide that entry, a_i denom/b_i.  A prime not dividing denom does not
    divide the entry denom at fc.  So only the sign is normalized.
    """
    bound = isqrt(modulus // 2)
    fracs = [_rational(-x % modulus, modulus, bound) for x in column]
    if None in fracs:
        return None
    denom = lcm(*(b for _, b in fracs))
    vec = [0] * k
    vec[fc] = denom
    for pc, (a, b) in zip(pivots, fracs):
        vec[pc] = a * (denom // b)
    return _signed(vec)


def _annihilates(mat, vectors):
    """For each v in `vectors`, whether M v = 0, checked exactly.

    Each column of the integer matrix M (m rows) is packed once per call,
    row i in slot i of W bits, in two's complement, that is x mod 2^W.  For
    W <= 64 that is one struct pack of m 64-bit slots (W = 64); above, one
    W-bit slot per entry.  Each column, read as one int and XORed with
    2^(W-1) in every slot, holds M[i][j] + 2^(W-1) in slot i: flipping the
    sign bit turns x mod 2^W into x + 2^(W-1) for every |x| < 2^(W-1).
    Then sum_j v_j col_j - sum(v) * (the packed offsets) is
    sum_i (M v)_i 2^(W i), one multiply-add per nonzero entry of v, summed
    by C-level `map` and `sum` over those entries and their columns.  A
    sum sum_i a_i 2^(W i) with every |a_i| < 2^(W-1) is zero only if every
    a_i is: its highest nonzero term outweighs all the terms below it.  Here
    |(M v)_i| <= k max|M| max|v| < 2^(bits(k) + bits(M) + bits(v)), so
    W >= bits(M) + bits(v) + bits(k) + 2 makes the test exact.
    """
    if not vectors:
        return []
    m, k = len(mat), len(mat[0])
    mbits = max(max(max(row), -min(row)) for row in mat).bit_length()
    vbits = max(max(max(v), -min(v)) for v in vectors).bit_length()
    size = (mbits + vbits + k.bit_length() + 2 + 7) // 8   # bytes per slot
    if size <= 8:
        # one compiled Struct per call: struct.pack's format cache would
        # keep one of about 32 bytes per slot alive after the call
        size, pack = 8, struct.Struct(f"<{m}q").pack
        packed = [pack(*col) for col in zip(*mat)]
    else:
        mask = (1 << 8 * size) - 1
        packed = [_slot_bytes(map(mask.__and__, col), size) for col in zip(*mat)]
    offsets = (1 << 8 * size - 1) * _ones(size, m)     # 2^(W-1) in every slot
    cols = [int.from_bytes(b, "little") ^ offsets for b in packed]
    return [not sum(map(mul, filter(None, v), compress(cols, v)), -sum(v) * offsets)
            for v in vectors]


def nullspace(rows, echelon=None):
    """Exact basis of {v : Mv = 0}, one primitive integer vector per free
    column, in column order.

    The entries of M are ints.  The reduced row echelon form over GF(p),
    p = FIRST_PRIME = 2^30 - 35, gives for each free column fc the vector
    with 1 at fc and -R[i][fc] at each pivot column below fc.  Only the
    free columns of R are read, so only they are back-substituted
    (`_Echelon.free_rref`).  Each column is lifted by one rule.  First it
    is read as the integer vector of its symmetric residues
    (`_integer_vector`), so one prime holds integer entries up to
    (p - 1)/2.  Only a column whose integer vector fails the exact check is
    rebuilt entry by entry as fractions (`_rational_vector`), which one
    prime allows while numerator and denominator stay below sqrt(p/2),
    about 2^14.5.  Each vector is a primitive integer vector with positive
    leading entry, and M v = 0 is checked exactly over the integer rows by
    `_annihilates`: the columns of M are packed into ints with slots wide
    enough that no signed slot total can reach 2^(W-1) in size, so M v is
    a few big-int multiply-adds and a test for zero.

    Certificate: the vectors are independent, since each is 1 at its own
    free column and 0 at the others.  If all k - rank_p of them pass, then
    dim ker_Q >= k - rank_p >= k - rank_Q = dim ker_Q, so they span ker_Q,
    and they are its unique basis in this reduced form.  So a vector that
    passes is that basis vector, however it was read.

    If a reconstruction is missing or a check fails, further primes below
    2^30 are taken from `_primes`.  Residues of primes whose pivot columns
    are the best seen so far (most pivots, then earliest) are combined by
    CRT, and the same rule is applied to their product until every vector
    passes.  No unchecked vector is returned.  Past the primes a correct
    run can need, counted after the first failure, this raises
    KernelCertificationError.

    `echelon`, if given, is an `_Echelon` over FIRST_PRIME already fed with
    exactly these rows; it stands in for the first prime's elimination.
    """
    if not rows:
        raise ValueError("matrix needs at least one row")
    k = len(rows[0])
    if any(len(row) != k for row in rows):
        raise ValueError("ragged matrix")
    best = residues = modulus = limit = None
    for used, p in enumerate(_primes()):
        if used == limit:
            raise KernelCertificationError(
                f"nullspace: no exact kernel after {used} primes, the most a "
                "correct lift needs")
        if echelon is not None and p == echelon.p:
            pivots, reduced = echelon.free_rref()
        else:
            pivots, reduced = _rref_mod(rows, p)
        # a prime that loses rank loses pivots or moves them later
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, residues, modulus = key, reduced, p
        elif key == best:
            # CRT: x = x1 + modulus * ((x2 - x1) / modulus mod p)
            inv = pow(modulus, -1, p)
            residues = [[x + modulus * ((y - x) * inv % p)
                         for x, y in zip(row, prow)]
                        for row, prow in zip(residues, reduced)]
            modulus *= p
        else:
            continue
        piv_set = set(pivots)
        free = [j for j in range(k) if j not in piv_set]
        # R[i][fc] is 0 at every pivot column after fc
        columns = [[row[t] for row in residues] for t in range(len(free))]
        basis = [_integer_vector(fc, pivots, column, modulus, k)
                 for fc, column in zip(free, columns)]
        failed = [t for t, ok in enumerate(_annihilates(rows, basis)) if not ok]
        rebuilt = [_rational_vector(free[t], pivots, columns[t], modulus, k)
                   for t in failed]
        if None not in rebuilt and all(_annihilates(rows, rebuilt)):
            for t, vec in zip(failed, rebuilt):
                basis[t] = vec
            return basis
        if limit is None:
            # Hadamard: no minor exceeds h = norm^min(m, k), so a lift needs
            # 2 bits(h) + 1 bits of modulus, and at most bits(h) / 29 primes
            # divide the pivot minor; every prime has 29 bits or more.
            norm = isqrt(max(sum(e * e for e in row) for row in rows)) + 1
            limit = (3 * (norm ** min(len(rows), k)).bit_length() + 2) // 29 + 2


def rank_of(rows):
    """The rank of an integer matrix, as its column count less the
    dimension of its exact `nullspace`.

    rank(M) = rank(M^T), and `nullspace` lifts and checks one vector per
    free column, so a matrix with fewer rows than columns is transposed
    first: the shorter side is eliminated, and fewer vectors are lifted.
    """
    if not rows:
        return 0
    if len(rows) < len(rows[0]):
        rows = list(zip(*rows))
    return len(rows[0]) - len(nullspace(rows))


CERTIFICATE_BITS = 30


def certification_trials(entry_bound, d):
    """Fresh-sample trials per relation: at least 20, and enough that a
    false degree-d relation passes all of them with probability at most
    2^-CERTIFICATE_BITS.

    Schwartz-Zippel: a nonzero degree-d polynomial vanishes on entries
    uniform in [-B, B] with probability at most d / (2B + 1); excluding the
    zero matrix, on which every relation vanishes, only lowers that.  So the
    count is the least t >= 20 with (2B + 1)^t >= 2^CERTIFICATE_BITS d^t,
    found in integers, so any B is exact.  For d >= 2B + 1 no bound holds,
    and this raises ValueError.
    """
    q = 2 * entry_bound + 1
    if d >= q:
        raise ValueError(f"degree {d} needs an entry bound B with 2B + 1 > d, "
                         f"B >= {(d + 1) // 2}; got B = {entry_bound}")
    t = 20
    while q ** t < d ** t << CERTIFICATE_BITS:
        t += 1
    return t


def fresh_sample_verdicts(vectors, n, d, rng):
    """For each vector, whether it is nonzero and annihilates each of
    certification_trials(ENTRY_BOUND, d) fresh samples drawn from `rng`,
    checked exactly by `_annihilates` on their evaluation rows.

    All vectors share the samples; each one still meets every independent
    draw, so its Schwartz-Zippel bound is what it would be alone.  For
    d <= n (stable range) no nonzero relation exists, and nothing is drawn.
    """
    if not vectors or stable_range(d, n):
        return [False] * len(vectors)
    trials = certification_trials(ENTRY_BOUND, d)
    rows = list(islice(_evaluation_rows(n, d, rng), trials))
    return [any(v) and ok for v, ok in zip(vectors, _annihilates(rows, vectors))]


def verify_relation(coeffs, n, d, rng):
    """True iff the coefficient vector is nonzero and annihilates
    certification_trials(ENTRY_BOUND, d) fresh exact samples."""
    if len(coeffs) != len(enumerate_invariant_basis(d)):
        raise ValueError("coefficient length does not match basis size")
    [ok] = fresh_sample_verdicts([coeffs], n, d, rng)
    return ok


def _json_int(value, key):
    if type(value) is not int:
        raise ValueError(f"{key!r} must be a JSON integer")
    return value


def _coefficient(entry):
    """A relation entry: a JSON integer or a decimal-integer string."""
    if type(entry) is int:
        return entry
    # exactly -?[0-9]+; int() alone also reads "+2", "1_000", " 2", non-ASCII digits
    if type(entry) is str and entry.isascii() and entry[entry[:1] == "-":].isdigit():
        return int(entry)
    raise ValueError("relation entries must be integers or decimal-integer strings")


class RelationSet:
    """Certified relation basis plus the seed that produced it.

    relations is a tuple of normalized integer tuples.
    """

    def __init__(self, n, d, relations, method, seed):
        self.n, self.d, self.relations = n, d, relations
        self.method, self.seed = method, seed

    @cached_property
    def basis(self):
        """Class-id strings of the degree-d invariant basis, coordinate order."""
        return tuple(map(encode, enumerate_invariant_basis(self.d)))

    def to_json(self):
        obj = {
            "n": self.n,
            "d": self.d,
            "basis": list(self.basis),
            "relations": [[str(c) for c in rel] for rel in self.relations],
            "method": self.method,
            "seed": self.seed,
            "entry_bound": ENTRY_BOUND,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text):
        """The relation set of a `to_json` file.  n, d, seed and entry_bound
        must be JSON integers (not booleans); entry_bound is only a record,
        and its value is not read.  Relations must be lists of integers or
        decimal-integer strings, each as long as the degree-d basis, which
        `basis` must be, in order; anything else is a ValueError."""
        try:
            obj = json.loads(text)
            if type(obj) is not dict:
                raise ValueError("top-level value must be a JSON object")
            fields = {key: _json_int(obj[key], key)
                      for key in ("n", "d", "seed", "entry_bound")}
            del fields["entry_bound"]
            relations = obj["relations"]
            if type(relations) is not list or any(type(rel) is not list
                                                  for rel in relations):
                raise ValueError("'relations' must be a list of lists")
            if obj["method"] not in (METHOD_MONTECARLO, METHOD_SYMMETRIZER):
                raise ValueError(f"unknown method {obj['method']!r}")
            file_basis = obj["basis"]
            rs = cls(relations=tuple(tuple(map(_coefficient, rel))
                                     for rel in relations),
                     method=obj["method"], **fields)
        except KeyError as exc:
            raise ValueError(f"malformed relation file: missing key {exc}") from exc
        except (TypeError, ValueError, RecursionError) as exc:
            # RecursionError: json.loads on too deeply nested arrays or objects
            raise ValueError(f"malformed relation file: {exc}") from exc
        if rs.n < 1 or rs.d < 1:
            raise ValueError("malformed relation file: n and d must be positive, "
                             f"got n={rs.n}, d={rs.d}")
        if file_basis != list(rs.basis):
            raise ValueError("malformed relation file: basis is not the "
                             f"degree-{rs.d} invariant basis")
        for i, rel in enumerate(rs.relations):
            if len(rel) != len(rs.basis):
                raise ValueError(f"malformed relation file: relation {i} has "
                                 f"{len(rel)} entries, basis has {len(rs.basis)}")
        return rs


IDLE_ROWS = 10


def _draw_rows(n, d, seed, base, target):
    """The rows of `base`, then rows drawn from stream(seed, "rows")
    (build_evaluation_matrix's rows) until the GF(FIRST_PRIME) rank of them
    all reaches `target`, or IDLE_ROWS consecutive rows leave it unchanged
    (a stall), and the echelon form of them all.

    `base`, if given, is the (rows, echelon) pair of `certified_kernel` on
    smaller samples; it is copied, not changed.  The idle rule alone ends
    every draw: the rank rises at most k times, so at most
    (k + 1) IDLE_ROWS rows are drawn.
    """
    if base is None:
        rows, echelon = [], _Echelon(len(enumerate_invariant_basis(d)))
    else:
        rows, echelon = list(base[0]), base[1].copy()
    idle = 0
    for row in _evaluation_rows(n, d, stream(seed, "rows")):
        rows.append(row)
        idle = 0 if echelon.add(row) else idle + 1
        if echelon.rank == target or idle == IDLE_ROWS:
            break
    return rows, echelon


def certified_kernel(n, d, seed, base=None):
    """(vectors, (rows, echelon)): the nullspace of the evaluation matrix on
    n x n samples, with every vector re-verified on fresh draws, and the
    rows it is the exact kernel of with their echelon form over
    GF(FIRST_PRIME).

    The true kernel K_n(d) has the proved dimension kernel_dim(n, d), read
    after the basis cap check.  Rows are drawn one at a time until the
    GF(p) rank reaches k - kernel_dim(n, d) (`_draw_rows`).  A GF(p) rank
    never exceeds the rank over Q, which never exceeds k - kernel_dim(n, d)
    since every row vanishes on K_n.  So at that rank ker_Q(M) is K_n
    itself, and more rows, or rows at another entry bound, cannot change it.

    `base`, if given, is the (rows, echelon) of a kernel certified on
    smaller samples, m x m with m < n.  The drawn rows are stacked under
    those rows.  They are n x n rows too: x and diag(x, 0) have the same
    trace words.  So the stacked kernel still contains the true one, and
    since `nullspace` checks M v = 0 exactly on every stacked row, the
    result lies in the span of the base's kernel by construction.

    There is one draw and one check, and every failure raises
    KernelCertificationError at once; each can only mean a wrong table
    entry or a defect.  A draw that stalls off the target rank leaves a
    kernel of dimension k - rank, not the count, and is reported so without
    a `nullspace` call.  At the target rank, a vector that fresh samples
    reject, or a lifted kernel whose size differs from the count, raises.
    """
    k = len(enumerate_invariant_basis(d))
    known = kernel_dim(n, d)
    # "attempt0" is part of the stream key: it fixes every row for a seed
    draw_seed = f"{seed}:n{n}:attempt0"
    rows, echelon = _draw_rows(n, d, draw_seed, base, k - known)
    dim = k - echelon.rank
    if dim == known:
        vectors = nullspace(rows, echelon)
        if not all(fresh_sample_verdicts(vectors, n, d, stream(draw_seed, "verify"))):
            raise KernelCertificationError(
                f"kernel for n={n}, d={d} has a vector that fresh samples reject")
        dim = len(vectors)
    if dim != known:
        raise KernelCertificationError(
            f"kernel for n={n}, d={d} has dimension {dim}, "
            f"but the proved count is {known} of k={k}")
    return vectors, (rows, echelon)


def _last_nonzero(vec):
    return max(i for i, c in enumerate(vec) if c)


def find_relations(n, d, seed):
    """Certified basis of the degree-d relation space for the O(n) action.

    The relation space is the kernel of restricting degree-d invariants of
    the (n+1)-dimensional action down to n x n matrices, so coefficient
    vectors that already vanish identically on (n+1) x (n+1) matrices are
    quotiented out.  For d <= n+1 that larger kernel is trivial and the
    result is simply the certified nullspace on n x n samples.

    The (n+1) kernel is certified on top of the n x n rows
    (`certified_kernel`'s `base`), so it lies in the span of the n kernel
    by construction.  The exact rank check of that containment still runs,
    only because the benchmark's traced quotient metrics read it.  Every
    certified kernel's dimension is checked against its proved count
    kernel_dim (`certified_kernel`).
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    kernel, base = ([], None) if stable_range(d, n) else certified_kernel(n, d, seed)
    relations = kernel
    if d > n + 1:
        ambient, _ = certified_kernel(n + 1, d, seed, base)
        # Every (n+1) relation holds on n x n matrices (embed x as
        # diag(x, 0)), and the ambient rows include the n x n rows, so the
        # ambient kernel lies in the n kernel.  The quotient below is only
        # right if it does.
        if rank_of(kernel + ambient) != len(kernel):
            raise KernelCertificationError(
                f"kernel for n={n + 1}, d={d} does not lie in the kernel for "
                f"n={n}; sampler configuration looks pathological")
        # nullspace gives one vector per free column, whose last nonzero
        # coordinate is that column.  Given the containment, a kernel vector
        # is independent of the ambient kernel and the earlier kernel
        # vectors exactly when no ambient vector ends at its free column.
        taken = {_last_nonzero(u) for u in ambient}
        relations = [v for v in kernel if _last_nonzero(v) not in taken]
    return RelationSet(n=n, d=d, relations=tuple(relations),
                       method=METHOD_MONTECARLO, seed=seed)


def rel_dimension_table(max_d, max_n, seed):
    """dict {(d, n): relation count} for 1 <= d <= max_d, 1 <= n <= max_n.

    Cell (d, n) counts dim K_n - dim K_{n+1}, where K_m is the degree-d
    kernel on m x m samples; K_m = 0 for m >= d (stable range).  For each
    degree, K_1, ..., K_{min(max_n + 1, d - 1)} are certified as one chain:
    each K_{m+1} is certified on top of K_m's rows (`certified_kernel`'s
    `base`), so it lies in span(K_m) by construction and the count is a
    difference of dimensions, with no rank computation.  Every kernel of
    the chain is checked against its proved count kernel_dim
    (`certified_kernel`).
    """
    table = {}
    # largest degree first, so the basis cap fails before any cell is computed
    for d in range(max_d, 0, -1):
        enumerate_invariant_basis(d)    # only the cap check
        dims = [0] * (max_n + 2)        # dims[m] = dim K_m; index 0 unused
        base = None
        for m in range(1, min(max_n + 1, d - 1) + 1):
            kernel_seed = stream(seed, "table", d, m).getrandbits(63)
            kernel, base = certified_kernel(m, d, kernel_seed, base)
            dims[m] = len(kernel)
        for n in range(1, max_n + 1):
            table[(d, n)] = dims[n] - dims[n + 1]
    return table
