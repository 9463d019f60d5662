"""Carriers, dense bitsets, and translate/quotient algebra.

Two kinds of carrier are supported:

* ``ZWindow(M, L)`` -- the integers ``0..M-1`` under addition.  The
  operation is partial: ``a + b`` is defined only when the sum stays
  below ``M``.  Witness operands are drawn from ``0..L-1`` with
  ``L <= M/2``, so any product of two operands is defined.
* ``CayleyGroup(table)`` -- an explicit finite magma given by an
  ``n x n`` table of element indices.  The table must be a Latin
  square; cyclic tables give the groups Z_n.

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
on a ZWindow, a memoized ``quotient`` on a Cayley group) and, for
verifiers, one test of a certificate's bool grid of b·c ∈ A against its
pattern, the grid being one numpy gather at the sums or at the entries
of the Cayley table held as an integer array.  Cayley ``quotient`` and
``translate`` are gathers over that array too.
"""

import operator
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import accumulate, chain

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


def bits_of(indices):
    """The big-int bitset with bit i set for each non-negative integer i."""
    idx = np.asarray(list(indices))
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


def cyclic_table(n):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def build_model(desc):
    """Validate a model description and return the carrier.

    ``desc`` is a mapping with ``kind`` equal to ``"zwindow"`` (fields
    ``M``, ``L``) or ``"cayley"`` (field ``table``, a square list of
    element indices).
    """
    kind = desc.get("kind")
    if kind == "zwindow":
        M, L = int(desc["M"]), int(desc["L"])
        if not (2 <= L and 2 * L <= M):
            raise BadBounds(f"need 2 <= L <= M/2, got M={M}, L={L}")
        return ZWindow(M, L)
    if kind == "cayley":
        table = tuple(tuple(int(x) for x in row) for row in desc["table"])
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise BadBounds("Cayley table must be square and nonempty")
        full = (1 << n) - 1
        for i, row in enumerate(table):
            seen = 0
            for x in row:
                if not (0 <= x < n):
                    raise ElementOutOfRange(f"row {i} entry {x} out of range")
                if seen >> x & 1:
                    raise NotALatinSquare("row", i, x)
                seen |= 1 << x
        for j in range(n):
            seen = 0
            for i in range(n):
                x = table[i][j]
                if seen >> x & 1:
                    raise NotALatinSquare("column", j, x)
                seen |= 1 << x
            assert seen == full
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
            n = self.model.carrier_size
            nbytes = (n + 7) // 8
            raw = self.bits.to_bytes(nbytes, "little")
            arr = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
            self._np = arr[:n].astype(bool)
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


def translate(A: DenseSet, g: int) -> DenseSet:
    """The translate g·A (ZWindow: A + g, clipped at the window bounds)."""
    model = A.model
    n = model.carrier_size
    if isinstance(model, ZWindow):
        if g >= 0:
            return DenseSet(model, (A.bits << g) & ((1 << n) - 1))
        return DenseSet(model, A.bits >> (-g))
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

    ``grid(bs, cs)`` is the bool array whose ``[i, j]`` is set iff
    bs[i]·cs[j] ∈ A, one gather from ``A.to_numpy()`` at the products
    ``bs[i] + cs[j]`` or ``table[bs[i], cs[j]]``.  Its index arrays must
    come from ``operands``, or be sliced from arrays it returned: numpy
    would wrap a negative index around to the end of A.
    ``certifies(bs, cs, pattern)`` is the verdict of every grid
    certificate: operand sequences checked by ``operands``, one gather,
    one pattern test.

    ``meeting(pool)`` is the bitset of the b's with b·c ∈ A for some c in
    ``pool``: a search that needs such a b draws its candidates from it.

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
            self._products = np.add.outer
        else:
            self.left = cache(lambda g: quotient(A, g, "left").bits)
            self.right = cache(lambda g: quotient(A, g, "right").bits)
            table = model._table_array
            self._products = lambda bs, cs: table[np.ix_(bs, cs)]

    def operands(self, bs, cs):
        """bs and cs as index arrays when each is a non-empty sequence of
        distinct operands (integers in the operand range), else None."""
        out = []
        for xs in (bs, cs):
            try:
                xs = [operator.index(x) for x in xs]
            except TypeError:
                return None
            if not xs or len(set(xs)) < len(xs) \
                    or not all(0 <= x < self.bound for x in xs):
                return None
            out.append(np.array(xs, dtype=np.intp))
        return out

    def grid(self, bs, cs):
        return self._A.to_numpy()[self._products(bs, cs)]

    def certifies(self, bs, cs, pattern):
        """Whether the operand sequences bs, cs give a grid of b·c ∈ A with
        ``pattern``: ``"all"`` true (any shape; definable witnesses),
        ``"square"`` all true and k × k, ``"upper"`` k × k and true on and
        above the diagonal (triangular witnesses), ``"ladder"`` k × k and
        true exactly there.  Malformed operands give False.  The pattern
        is tested in place: a second k × k array is 16 MB at k = 4096."""
        ops = self.operands(bs, cs)
        if ops is None:
            return False
        k = len(ops[0])
        if pattern != "all" and len(ops[1]) != k:
            return False
        grid = self.grid(*ops)
        if pattern == "upper":
            grid |= np.tri(k, k=-1, dtype=bool)
        elif pattern == "ladder":
            grid ^= np.tri(k, k=-1, dtype=bool)  # below-diagonal falses turn true
        return bool(grid.all())

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
        mem = self._A.to_numpy()
        if isinstance(self._A.model, ZWindow):
            rows = _window_classes(mem, self.bound)
            return rows, rows
        grid = mem[self._A.model._table_array]
        return _row_classes(grid), _row_classes(grid.T)


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
# Two on-disk formats:
#   * plain: newline-separated non-negative decimal integers;
#   * run-length: a single line "RLE1:<M>:<runs>" where <runs> is a
#     comma-separated alternation gap,run,gap,run,... of lengths summing
#     to M (a leading gap of 0 is allowed; trailing gap may be omitted).


def read_set_file(path):
    """Read a set file; returns (members, declared_size_or_None).

    ``members`` is a sorted list of distinct Python ints.
    """
    with open(path) as fh:
        text = fh.read()
    stripped = text.strip()
    if stripped.startswith("RLE1:"):
        parts = stripped.split(":", 2)
        if len(parts) != 3:
            raise SumcoreError(f"malformed RLE1 header in {path}")
        size = int(parts[1])
        runs = list(map(int, parts[2].split(","))) if parts[2] else []
        if runs and min(runs) < 0:
            raise SumcoreError("negative run length")
        ends = list(accumulate(runs))
        if ends and ends[-1] > size:
            raise SumcoreError("RLE1 runs overflow the declared size")
        # run k holds [end of gap k, end of run k); a trailing gap has no run
        members = list(chain.from_iterable(map(range, ends[0::2], ends[1::2])))
        return members, size
    members = sorted(set(map(int, stripped.split())))
    if members and members[0] < 0:
        raise SumcoreError("set files hold non-negative integers")
    return members, None


def set_file_text(members, size=None, fmt="list"):
    """The text of a set file holding ``members`` (any order, repeats allowed)."""
    members = sorted(set(members))
    if members and members[0] < 0:
        raise SumcoreError("set files hold non-negative integers")
    if fmt == "list":
        return "\n".join(map(str, members)) + "\n" if members else ""
    if fmt != "rle":
        raise SumcoreError(f"unknown set file format {fmt!r}")
    if size is None:
        size = (members[-1] + 1) if members else 0
    runs, pos = [], 0
    if members:
        m = np.asarray(members)
        cut = np.flatnonzero(np.diff(m) != 1) + 1  # where a new run starts
        starts = m[np.concatenate(([0], cut))]
        stops = m[np.concatenate((cut - 1, [m.size - 1]))] + 1
        gaps = starts - np.concatenate(([0], stops[:-1]))
        runs = np.column_stack((gaps, stops - starts)).ravel().tolist()
        pos = int(stops[-1])
    if pos < size:
        runs.append(size - pos)
    return f"RLE1:{size}:" + ",".join(map(str, runs)) + "\n"


def write_set_file(path, members, size=None, fmt="list"):
    text = set_file_text(members, size=size, fmt=fmt)
    with open(path, "w") as fh:
        fh.write(text)
