"""Carriers, dense bitsets, and translate/quotient algebra.

Two kinds of carrier are supported:

* ``ZWindow(M, L)`` -- the integers ``0..M-1`` under addition.  The
  operation is partial: ``a + b`` is defined only when the sum stays
  below ``M``.  Witness operands are drawn from ``0..L-1`` with
  ``L <= M/2``, so any product of two operands is defined.
* ``CayleyGroup(table)`` -- an explicit finite carrier given by an
  ``n x n`` table of element indices.  The table must be a Latin
  square, so it is a quasigroup, and a group exactly when it is
  associative (``is_group``, Light's test); cyclic tables give the groups
  Z_n.  Only the exact witness searches use the difference.

Sets over a carrier are ``DenseSet`` bitsets.  The canonical
representation is a single Python integer (bit i set iff element i is a
member), so intersections, unions and quotients are single big-int
operations and the searches do their bitwise work on it.  Scans go
through a numpy view instead: ``to_numpy()`` unpacks the integer into a
bool array once and caches it, and ``members()`` and the prefix counts
are whole-array operations on that view.  Going the other way, every
bitset built from an array or a list of elements is built through one
mask path, ``from_mask``: a bool mask, packed little-endian and read as
one integer.

Every search and verifier of witnesses and ladders reads the relation
b·c ∈ A through one ``Relation``, which refuses a set from another
model: the operand bitsets {c : b·c ∈ A} and {b : b·c ∈ A} (a shift of A
on a ZWindow, a memoized ``quotient`` on a Cayley group).  Verifiers test
a certificate's grid of b·c ∈ A against its pattern row by row, one
big-int AND of each row's bitset with the c's the row must hold.  Cayley
``quotient`` and ``translate`` are gathers over the table held as an
integer array.
"""

import operator
from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np

from .errors import (
    BadBounds,
    ElementOutOfRange,
    ModelMismatch,
    NotALatinSquare,
    SumcoreError,
)


def iter_bits(bits):
    """Yield the indices of the set bits of ``bits`` in increasing order."""
    while bits:
        lsb = bits & -bits
        yield lsb.bit_length() - 1
        bits ^= lsb


def iter_bits_desc(bits):
    """Yield the indices of the set bits of ``bits`` in decreasing order."""
    while bits:
        i = bits.bit_length() - 1
        yield i
        bits ^= 1 << i


def from_mask(mask):
    """The big-int bitset of a bool array: bit i is set iff ``mask[i]``."""
    raw = np.packbits(mask, bitorder="little").tobytes()
    return int.from_bytes(raw, "little")


def unpack_bits(bits, n):
    """The bool array of bits 0..n-1 of the big-int bitset ``bits``: the
    inverse of ``from_mask``."""
    raw = bits.to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, np.uint8), count=n, bitorder="little").view(bool)


def ints(values):
    """``values`` as a list of Python ints, or None when it is not iterable
    or holds a non-integer.  ``operator.index`` decides, so numpy integers
    and bools pass and floats and strings do not: the one integer gate for
    every certificate field."""
    try:
        return list(map(operator.index, values))
    except TypeError:
        return None


def bits_of(indices):
    """The big-int bitset with bit i set for each non-negative integer i."""
    idx = indices if isinstance(indices, np.ndarray) else np.asarray(list(indices))
    if idx.size == 0:
        return 0
    if idx.dtype.kind not in "iu":
        raise TypeError(f"bit indices must be integers, got {idx.dtype}")
    if idx.min() < 0:
        raise ValueError("negative bit index")
    mask = np.zeros(int(idx.max()) + 1, dtype=bool)
    mask[idx] = True
    return from_mask(mask)


@dataclass(frozen=True)
class ZWindow:
    """Integer window [0, M) under (partial) addition."""

    ambient_size: int
    operand_bound: int

    @property
    def carrier_size(self):
        return self.ambient_size

    @property
    def operand_mask(self):
        return (1 << self.operand_bound) - 1

    def op(self, a, b):
        """Return a+b, or None when the sum leaves the window."""
        s = a + b
        return s if s < self.ambient_size else None


@dataclass(frozen=True)
class CayleyGroup:
    """Finite carrier with an explicit multiplication table."""

    table: tuple

    @property
    def order(self):
        return len(self.table)

    @property
    def carrier_size(self):
        return len(self.table)

    @property
    def operand_mask(self):
        return (1 << len(self.table)) - 1

    def op(self, a, b):
        return self.table[a][b]

    @cached_property
    def _table_array(self):
        """The table as an integer array, built on first use."""
        return np.array(self.table, dtype=np.intp)

    @cached_property
    def is_group(self):
        """Whether the table is a group: it has an identity e, every row
        holds e (a right inverse), and it is associative.  A Latin square
        is a group exactly when it is associative; the first two checks
        keep the answer right for a table that ``build_model`` would refuse.

        Associativity is Light's test (Clifford and Preston, *The Algebraic
        Theory of Semigroups* I, §1.2): the s with (x·s)·y = x·(s·y) for
        all x, y are closed under products, so the table is associative
        once they generate it.  The generators are taken greedily, each
        the least element outside the products of those before it; a
        failing one ends the test."""
        t = self._table_array
        ids = np.arange(len(t))
        e = np.flatnonzero((t == ids).all(axis=1) & (t.T == ids).all(axis=1))
        if e.size == 0 or not (t == e[0]).any(axis=1).all():
            return False
        reached = np.zeros(len(t), dtype=bool)
        while not reached.all():
            s = int(reached.argmin())
            # np.take gathers columns faster than fancy indexing does
            if not (t[t[:, s]] == np.take(t, t[s], axis=1)).all():
                return False
            reached[s] = True
            while True:  # close under products, which pass as their factors did
                idx = np.flatnonzero(reached)
                reached[np.take(t[idx], idx, axis=1)] = True
                if reached.sum() == idx.size:
                    break
        return True


def cyclic_table(n):
    row = list(range(n))
    return tuple(tuple(row[i:] + row[:i]) for i in range(n))


def build_model(desc):
    """Validate a model description and return the carrier.

    ``desc`` is a mapping with ``kind`` equal to ``"zwindow"`` (integer
    fields ``M``, ``L``) or ``"cayley"`` (field ``table``, a square list of
    integer element indices).
    """
    kind = desc.get("kind")
    if kind == "zwindow":
        bounds = ints((desc["M"], desc["L"]))
        if bounds is None:
            raise BadBounds(f"M and L must be integers, got M={desc['M']!r}, "
                            f"L={desc['L']!r}")
        M, L = bounds
        if not (2 <= L and 2 * L <= M):
            raise BadBounds(f"need 2 <= L <= M/2, got M={M}, L={L}")
        return ZWindow(M, L)
    if kind == "cayley":
        try:
            rows = [ints(row) for row in desc["table"]]
        except TypeError:
            raise BadBounds("Cayley table must be a list of rows") from None
        if None in rows:
            raise ElementOutOfRange("Cayley table entries must be integers")
        table = tuple(map(tuple, rows))
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise BadBounds("Cayley table must be square and nonempty")
        # each line must be a permutation of 0..n-1; only a faulty one is rescanned
        for line_kind, lines in (("row", table), ("column", zip(*table))):
            for i, line in enumerate(lines):
                if min(line) >= 0 and max(line) < n and len(set(line)) == n:
                    continue
                seen = set()
                for x in line:
                    if not 0 <= x < n:  # rows all pass before any column is read
                        raise ElementOutOfRange(f"row {i} entry {x} out of range")
                    if x in seen:
                        raise NotALatinSquare(line_kind, i, x)
                    seen.add(x)
        return CayleyGroup(table)
    raise SumcoreError(f"unknown model kind: {kind!r}")


class DenseSet:
    """Immutable bitset over a carrier.

    ``bits`` holds membership (bit i set iff element i is a member);
    the cardinality is cached.  Instances are never mutated after
    construction and are safe to share across threads.
    """

    __slots__ = ("model", "bits", "cardinality", "_np", "_prefix")

    def __init__(self, model, bits):
        n = model.carrier_size
        if bits < 0 or bits >> n:
            raise ElementOutOfRange("membership bit outside carrier")
        self.model = model
        self.bits = bits
        self.cardinality = bits.bit_count()
        self._np = None
        self._prefix = None

    @classmethod
    def from_members(cls, model, members):
        return cls(model, bits_of(members))

    def contains(self, i):
        return 0 <= i < self.model.carrier_size and (self.bits >> i) & 1 == 1

    def members(self):
        """The members in increasing order, as a list of Python ints."""
        return np.flatnonzero(self.to_numpy()).tolist()

    def to_numpy(self):
        """Membership as a bool array (cached)."""
        if self._np is None:
            self._np = unpack_bits(self.bits, self.model.carrier_size)
        return self._np

    def prefix_counts(self):
        """Array P with P[i] = |A ∩ [0, i)| (cached)."""
        if self._prefix is None:
            p = np.zeros(self.model.carrier_size + 1, dtype=np.int64)
            np.cumsum(self.to_numpy(), out=p[1:])
            self._prefix = p
        return self._prefix

    def __len__(self):
        return self.cardinality

    def __eq__(self, other):
        return (
            isinstance(other, DenseSet)
            and self.model == other.model
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.model, self.bits))

    def __repr__(self):
        n = self.cardinality
        head = ",".join(str(i) for i, _ in zip(iter_bits(self.bits), range(8)))
        tail = ",..." if n > 8 else ""
        return f"DenseSet(|A|={n}, {{{head}{tail}}})"


def quotient(A: DenseSet, g: int, side: str) -> DenseSet:
    """Translate quotient of A by g.

    right: {b : b*g in A};  left: {c : g*c in A}.  In a ZWindow, pairs
    whose sum leaves the window are excluded (their product is
    undefined).
    """
    model = A.model
    n = model.carrier_size
    if not (0 <= g < n):
        raise ElementOutOfRange(f"element {g} outside carrier of size {n}")
    if side not in ("right", "left"):
        raise SumcoreError(f"side must be 'right' or 'left', got {side!r}")
    if isinstance(model, ZWindow):
        # addition is commutative: both sides are A - g clipped to the window
        return DenseSet(model, A.bits >> g)
    g = operator.index(g)  # a non-integer is a TypeError, not numpy's IndexError
    table = model._table_array
    products = table[:, g] if side == "right" else table[g]
    return DenseSet(model, from_mask(A.to_numpy()[products]))


def shift_bits(bits, g, n):
    """The bitset ``bits`` moved up by g (down for g < 0) and cut to [0, n)."""
    if abs(g) >= n:
        # slides every bit out; shifting first would build an integer of |g| bits
        return 0
    return (bits << g) & ((1 << n) - 1) if g >= 0 else bits >> -g


def translate(A: DenseSet, g: int) -> DenseSet:
    """The translate g·A (ZWindow: A + g, clipped at the window bounds)."""
    model = A.model
    n = model.carrier_size
    if isinstance(model, ZWindow):
        return DenseSet(model, shift_bits(A.bits, g, n))
    if not (0 <= g < n):
        raise ElementOutOfRange(f"element {g} outside carrier of size {n}")
    mask = np.zeros(n, dtype=bool)
    mask[model._table_array[operator.index(g)][A.to_numpy()]] = True
    return DenseSet(model, from_mask(mask))


# ``Relation.meeting(pool)`` restricts a search's next b only while the
# pool is this small: on sparse sets (powers of two and the like) that
# turns exhaustive scans of every operand into near-linear ones, while on
# a large pool the union of its quotients costs more than the scan.
_POOL_UNION_LIMIT = 64


class Relation:
    """The product relation b·c ∈ A between the operands of A's carrier.

    ``Relation(A, model)`` raises ``ModelMismatch`` unless A lives over
    ``model`` (by default A's own model).

    ``domain`` is the bitset of the operands and ``bound`` their number
    (L on a ZWindow, n on a Cayley group of order n).  ``left(b)`` is the
    bitset of {c : b·c ∈ A} and ``right(c)`` that of {b : b·c ∈ A}, as
    ``quotient`` gives them: over the whole carrier, so a search
    intersects them with its operand pools.  On a ZWindow both are one
    shift of A, recomputed on each call (a cache would only cost memory);
    on a Cayley group each is computed once per element through
    ``quotient``.

    ``reach(top, side)`` is ``left`` or ``right`` for a caller whose
    products all lie below ``top``: on a ZWindow, shifts of A cut there.

    ``certifies(bs, cs, pattern)`` is the verdict of every grid
    certificate, read row by row as the bitsets ``reach(top)(b)``.

    ``meeting(pool)`` is the bitset of the b's with b·c ∈ A for some c in
    ``pool``: a search that needs such a b draws its candidates from it.

    ``row(g, side)`` is ``left(g)`` or ``right(g)`` over the operands as a
    bool array, and ``overlaps(opposite, side)`` the size of its
    intersection with a bool array ``opposite``, for every g in one pass.
    Taking x out of ``opposite`` lowers every g's overlap by
    ``row(x, other side)``, so a caller whose pool lost a few members
    subtracts their rows instead of asking again.

    ``twins()`` labels the operands by their row and by their column of
    the relation, so that a search can keep one operand per class.
    """

    def __init__(self, A, model=None):
        if model is not None and A.model != model:
            raise ModelMismatch("set and model disagree")
        model = A.model
        self.domain = domain = model.operand_mask
        self.bound = domain.bit_length()
        self._A = A
        if isinstance(model, ZWindow):
            self.left = self.right = partial(operator.rshift, A.bits)
        else:
            self.left = cache(lambda g: quotient(A, g, "left").bits)
            self.right = cache(lambda g: quotient(A, g, "right").bits)

    def operands(self, bs, cs):
        """bs and cs as lists of ints when each is a non-empty sequence of
        distinct operands (integers in the operand range), else None."""
        out = [ints(bs), ints(cs)]
        for xs in out:
            if not xs or len(set(xs)) < len(xs) or min(xs) < 0 or max(xs) >= self.bound:
                return None
        return out

    def certifies(self, bs, cs, pattern):
        """Whether the operand sequences bs, cs give a grid of b·c ∈ A with
        ``pattern``: ``"all"`` true (any shape; definable witnesses),
        ``"square"`` all true and k × k, ``"upper"`` k × k and true on and
        above the diagonal (triangular witnesses), ``"ladder"`` k × k and
        true exactly there.  Malformed operands give False, before any shift.
        Row i, ``left(bs[i])`` ANDed with C = {c's}, must equal C (square,
        all), hold S_i = {c_j : j >= i} (upper) or equal S_i (ladder); it
        is read cut below top = max(bs) + max(cs) + 1, past every product."""
        ops = self.operands(bs, cs)
        if ops is None or (pattern != "all" and len(ops[0]) != len(ops[1])):
            return False
        bs, cs = ops
        need = C = bits_of(cs)
        left = self.reach(max(bs) + C.bit_length())
        for i, b in enumerate(bs):
            if left(b) & (C if pattern == "ladder" else need) != need:
                return False
            if pattern in ("upper", "ladder"):
                need ^= 1 << cs[i]
        return True

    def reach(self, top, side="left"):
        """``left`` (side ``"left"``) or ``right`` for a caller that reads
        row g only at g' with g + g' < top: on a ZWindow a shift of A's bits
        cut below top, so no bit from top up is shifted; on a Cayley group
        the cached rows."""
        if isinstance(self._A.model, ZWindow):
            return partial(operator.rshift, self._A.bits & ((1 << top) - 1))
        return self.left if side == "left" else self.right

    def meeting(self, pool):
        """The union of ``right(c)`` over the c in the bitset ``pool``, or
        ``domain`` (no restriction) when pool holds more than
        ``_POOL_UNION_LIMIT`` elements."""
        if pool.bit_count() > _POOL_UNION_LIMIT:
            return self.domain
        out = 0
        for c in iter_bits(pool):
            out |= self.right(c)
        return out

    @cached_property
    def _table_grid(self):
        """Cayley groups: the n × n bool grid of b·c ∈ A."""
        return self._A.to_numpy()[self._A.model._table_array]

    def row(self, g, side):
        """``left(g)`` (side ``"left"``) or ``right(g)`` (``"right"``) over
        the operands: a bool array of length ``bound``."""
        if isinstance(self._A.model, ZWindow):
            return self._A.to_numpy()[g:g + self.bound]
        return self._table_grid[g] if side == "left" else self._table_grid[:, g]

    def overlaps(self, opposite, side):
        """For every operand g, |opposite ∩ left(g)| (side ``"left"``) or
        |opposite ∩ right(g)| (``"right"``), with ``opposite`` a bool array
        over the operands: an int64 array of length ``bound``.

        On a Cayley group it is the grid, or its transpose, times
        ``opposite`` as a 0/1 integer vector.  On a ZWindow both sides are
        the correlation s[g] = Σ_x opposite[x]·A[g + x] over x, g < L,
        which reads A below 2L − 1.  When ``opposite`` holds every operand,
        s[g] = |A ∩ [g, g + L)|, a difference of prefix counts of A below
        2L − 1, and no transform is taken.  Otherwise, with n = 2^bitlen(2L − 1)
        ≥ 2L − 1 no sum wraps around, so s is the first L entries of
        irfft(rfft(A[:2L − 1], n) · conj(rfft(opposite, n)), n); A's
        transform is computed once per ``Relation``.

        Exactness: the scores are integers ≤ L, and a float64 FFT
        convolution errs in each entry by at most about
        c·u·log2(n)·‖A‖₂·‖opposite‖₂ ≤ c·u·log2(n)·√2·L, with u = 2^−53
        and c a small constant (Higham, *Accuracy and Stability of
        Numerical Algorithms*, §24.1).  That is c·1.5·10^−8 at L = 2^22,
        far below ½, so rounding each entry to the nearest integer gives
        the exact count; on random 0/1 inputs up to L = 2^21 the residual
        before rounding was 0.0.
        """
        if isinstance(self._A.model, ZWindow):
            L = self.bound
            if opposite.all():
                p = np.zeros(2 * L, dtype=np.int64)
                np.cumsum(self._A.to_numpy()[:2 * L - 1], out=p[1:])
                return p[L:] - p[:L]
            spectrum, n = self._spectrum
            # numpy loads numpy.fft on first use: imports stay as they were
            corr = np.fft.irfft(spectrum * np.fft.rfft(opposite, n).conj(), n)
            return np.rint(corr[:L]).astype(np.int64)
        grid = self._table_grid if side == "left" else self._table_grid.T
        return grid @ opposite.astype(np.int64)  # bool @ bool would be an OR

    @cached_property
    def _spectrum(self):
        """ZWindows: the rfft of A below 2L − 1 at n = 2^bitlen(2L − 1), and n."""
        n = 1 << (2 * self.bound - 1).bit_length()
        return np.fft.rfft(self._A.to_numpy()[:2 * self.bound - 1], n), n

    def twins(self):
        """Row and column classes of the operands, as two int arrays of
        length ``bound``: ``rows[b] == rows[b']`` iff ``left(b) & domain ==
        left(b') & domain``, and ``cols[c] == cols[c']`` iff ``right(c) &
        domain == right(c') & domain``.

        On a ZWindow both are the classes of equal windows A[b:b+L] and are
        the same array.  On a Cayley group they are the equal rows and the
        equal columns of the n × n grid, which differ when the table is
        not commutative.
        """
        if isinstance(self._A.model, ZWindow):
            rows = _window_classes(self._A.to_numpy(), self.bound)
            return rows, rows
        return _row_classes(self._table_grid), _row_classes(self._table_grid.T)


def _row_classes(grid):
    """Labels of the rows of a bool matrix, equal iff the rows are: each
    row packed to bytes and read as one opaque item, which ``np.unique``
    compares bytewise (far faster than ``np.unique(grid, axis=0)``)."""
    packed = np.ascontiguousarray(np.packbits(grid, axis=1))
    items = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    return np.unique(items, return_inverse=True)[1].reshape(-1)


# Odd, so every power is invertible mod 2^64; uint64 arithmetic wraps mod 2^64.
_HASH_BASE = 0x9E3779B97F4A7C15


def _window_classes(mem, L):
    """Labels of the windows mem[b:b+L], b < L, equal iff the windows are.

    A polynomial rolling hash mod 2^64 groups candidate twins in O(M);
    each member of a group is then compared byte for byte with the
    group's representatives, and the group splits on a mismatch, so a
    hash collision (mod 2^64 a Thue–Morse block forces one for any base)
    never merges two windows.
    """
    span = mem[:2 * L - 1]
    powers = np.ones(2 * L, dtype=np.uint64)  # X^0 .. X^(2L-1)
    np.cumprod(np.full(2 * L - 1, _HASH_BASE, dtype=np.uint64), out=powers[1:])
    prefix = np.zeros(2 * L, dtype=np.uint64)
    np.cumsum(span * powers[:-1], out=prefix[1:])
    # window b holds the terms X^b .. X^(b+L-1); times X^(2L-1-b), every
    # window starts at the same power, X^(2L-1)
    h = (prefix[L:] - prefix[:L]) * powers[:L - 1:-1]
    _, labels, counts = np.unique(h, return_inverse=True, return_counts=True)
    labels = labels.reshape(-1)
    shared = np.flatnonzero(counts[labels] > 1)
    raw = span.view(np.uint8).tobytes()
    fresh = len(counts)
    group, reps = -1, []  # reps: (window bytes, label) of the current group
    for b in shared[np.argsort(labels[shared], kind="stable")].tolist():
        if labels[b] != group:
            group, reps = labels[b], []
        for rep, label in reps:
            if raw.startswith(rep, b):  # raw[b:b + L] == rep, without a copy
                labels[b] = label
                break
        else:
            if reps:  # the hash collided: a new class
                labels[b], fresh = fresh, fresh + 1
            reps.append((raw[b:b + L], labels[b]))
    return labels


# --- set files -------------------------------------------------------------
#
# Two on-disk formats, and nothing else is read:
#   * plain: ASCII digits separated by ASCII whitespace;
#   * run-length: a single line "RLE1:<M>:<runs>" where M is ASCII digits
#     and <runs> is digit runs joined by single commas, an alternation
#     gap,run,gap,run,... of lengths summing to at most M (a leading gap
#     of 0 is allowed; the trailing gap may be omitted).
#
# ``_read_set`` opens a file once and tokenizes it once, by one decimal
# codec of whole-array passes; any other byte is a SumcoreError naming it
# and its offset.  Tokens of at most 18 digits come out as int64 (Horner
# over the digit columns), longer ones through int() of their bytes
# (dtype object), as do the RLE sums when they could overflow int64.  The
# writer takes the same two dtypes: int64 members in one pass per digit
# column, anything else through str() per value.

_DIGITS_MAX = 18  # a token of at most 18 digits is below 10^18 < 2^63
_POW10 = 10 ** np.arange(1, _DIGITS_MAX + 1, dtype=np.int64)
# separator bytes: those bytes.split() splits on, the comma, and none
_ASCII_SPACE = np.isin(np.arange(256), list(b" \t\n\r\x0b\x0c"))
_COMMA = np.arange(256) == ord(",")
_NO_SEPARATOR = np.zeros(256, dtype=bool)


def _decimal_text(values, sep):
    """Each of the values (int64 in [0, 2^63), or any ints as dtype
    object) in decimal, followed by ``sep``."""
    if values.dtype == object:
        return "".join(f"{x}{sep}" for x in values.tolist())
    if values.size == 0:
        return ""
    ndigits = np.searchsorted(_POW10, values, side="right") + 1
    w = int(ndigits.max())
    text = np.empty((values.size, w + 1), dtype=np.uint8)
    text[:, w] = ord(sep)
    rest = values.astype(np.uint32 if w <= 9 else np.int64)  # narrower divides faster
    for col in range(w - 1, -1, -1):  # one pass per digit column
        high = rest // 10
        text[:, col] = rest - high * 10 + ord("0")
        rest = high
    # row j of keep: the last j digit columns and the separator
    keep = np.arange(w + 1) >= np.arange(w, -1, -1)[:, None]
    return text[keep.take(ndigits, axis=0)].tobytes().decode("ascii")


def _decimal_values(raw, separator, offset, path):
    """The runs of ASCII digits in the bytes ``raw``, as int64 values, or
    as Python ints (dtype object) when a run has more than 18 digits.

    Every other byte must be a separator (``separator`` is a bool table
    over the 256 bytes); the first one that is not raises SumcoreError
    with its offset in the file, where ``raw`` starts at ``offset``.
    """
    chars = np.frombuffer(raw, dtype=np.uint8)
    digit = chars - ord("0")  # wraps to >= 10 for every other byte
    edges = np.zeros(chars.size + 2, dtype=bool)
    edges[1:-1] = digit < 10
    known = edges[1:-1] | separator.take(chars)
    if not known.all():
        k = int(known.argmin())  # the first stray byte
        raise SumcoreError(f"byte {raw[k:k + 1]!r} at offset {offset + k} of {path} "
                           "is outside the set-file format")
    bounds = np.flatnonzero(edges[1:] != edges[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    lengths = ends - starts
    w = int(lengths.max()) if lengths.size else 0
    if w > _DIGITS_MAX:  # exact, one token at a time
        return np.array([_long_int(raw, i, j, offset, path)
                         for i, j in zip(starts.tolist(), ends.tolist())], dtype=object)
    values = np.zeros(lengths.size, dtype=np.int64)
    for k in range(w, 0, -1):  # Horner over the right-aligned digit columns
        values = values * 10 + digit.take(ends - k, mode="clip") * (lengths >= k)
    return values


def _long_int(raw, i, j, offset, path):
    """The digits raw[i:j] as a Python int; a token past the interpreter's
    int-string limit raises SumcoreError with its offset in the file."""
    try:
        return int(raw[i:j])
    except ValueError:
        raise SumcoreError(f"{j - i}-digit token at offset {offset + i} of {path} is "
                           "past the integer string limit") from None


def _sorted_unique(values):
    values = np.sort(values)
    fresh = values[1:] != values[:-1]
    return values if fresh.all() else values[np.concatenate(([True], fresh))]


def _read_set(path, n=None):
    """``read_set_file``'s answer with the members as a sorted array: int64,
    or Python ints (dtype object).  Given ``n``, an RLE file's runs are cut
    at n after every check, so its members below n come out and no run is
    expanded past n; a list file's members are all returned."""
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.strip()
    if not text.startswith(b"RLE1:"):
        return _sorted_unique(_decimal_values(raw, _ASCII_SPACE, 0, path)), None
    head, colon, body = text[5:].partition(b":")
    start = raw.find(b"RLE1:") + 5  # the header's offset in the file
    if not (colon and head):
        raise SumcoreError(f"malformed RLE1 header in {path}")
    (size,) = _decimal_values(head, _NO_SEPARATOR, start, path).tolist()
    start += len(head) + 1
    values = _decimal_values(body, _COMMA, start, path)
    empty = (b"," + body + b",").find(b",,")  # a comma next to a comma or an end
    if body and empty >= 0:
        raise SumcoreError(f"empty run length at offset {start + empty} of {path}")
    if values.size and int(values.max()) * values.size >= 2**63:
        values = values.astype(object)  # the sums could overflow int64
    ends = np.cumsum(values)
    if ends.size and ends[-1] > size:
        raise SumcoreError("RLE1 runs overflow the declared size")
    lengths = values[1::2]  # run k holds [end of gap k, end of run k)
    starts = ends[0::2][:lengths.size]
    if n is not None:
        lengths = np.clip(n - starts, 0, lengths)
    starts = starts - (np.cumsum(lengths) - lengths)
    offsets = np.arange(lengths.sum(), dtype=values.dtype)
    return np.repeat(starts, lengths.astype(np.int64)) + offsets, size


def read_set_file(path):
    """Read a set file; returns (members, declared_size_or_None).

    ``members`` is a sorted list of distinct Python ints.
    """
    members, size = _read_set(path)
    return members.tolist(), size


def _set_file_int(x):
    try:
        return operator.index(x)
    except TypeError:
        raise SumcoreError(f"set files hold integers, not {x!r}") from None


def _sorted_members(members):
    """The distinct members as an increasing array: int64 when ``members``
    is a 1-D integer array (or a list or tuple numpy reads as one) with
    every value in [0, 2^63), else Python ints (dtype object)."""
    if isinstance(members, (list, tuple, np.ndarray)):
        try:
            values = np.asarray(members)
        except ValueError:  # ragged: left to the per-value check
            values = np.zeros(0)
        if values.ndim == 1 and values.size and values.dtype.kind in "iu":
            values = _sorted_unique(values)
            if values[0] >= 0 and values[-1] < 2**63:
                return values.astype(np.int64, copy=False)
    return np.array(sorted(set(map(_set_file_int, members))), dtype=object)


def set_file_text(members, size=None, fmt="list"):
    """The text of a set file holding ``members`` (any order, repeats allowed).

    Members are non-negative integers, all below ``size`` when it is given.
    """
    members = _sorted_members(members)
    if members.size and members[0] < 0:
        raise SumcoreError("set files hold non-negative integers")
    if size is not None:
        size = _set_file_int(size)
        if size < 0 or (members.size and members[-1] >= size):
            raise SumcoreError(f"set file members lie in [0, {size})")
    if fmt == "list":
        return _decimal_text(members, "\n")
    if fmt != "rle":
        raise SumcoreError(f"unknown set file format {fmt!r}")
    if size is None:
        size = int(members[-1]) + 1 if members.size else 0
    if size >= 2**63:  # runs past int64
        members = members.astype(object)
    runs, pos = np.zeros(0, dtype=members.dtype), 0
    if members.size:
        cut = np.flatnonzero(np.diff(members) != 1) + 1  # where a new run starts
        starts = members[np.concatenate(([0], cut))]
        stops = members[np.concatenate((cut - 1, [members.size - 1]))] + 1
        gaps = starts - np.concatenate(([0], stops[:-1]))
        runs = np.column_stack((gaps, stops - starts)).ravel()
        pos = int(stops[-1])
    if pos < size:
        runs = np.append(runs, size - pos)
    return f"RLE1:{size}:" + _decimal_text(runs, ",")[:-1] + "\n"


def write_set_file(path, members, size=None, fmt="list"):
    text = set_file_text(members, size=size, fmt=fmt)
    with open(path, "w") as fh:
        fh.write(text)
