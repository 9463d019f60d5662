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
"""

from dataclasses import dataclass
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

    def describe(self):
        return f"zwindow:{self.ambient_size}:{self.operand_bound}"


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

    def describe(self):
        return f"cayley:{self.order}"


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


def check_same_model(a: DenseSet, b: DenseSet):
    if a.model != b.model:
        raise ModelMismatch("sets live over different carriers")


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
    table = model.table
    bits = 0
    if side == "right":
        for b in range(n):
            if A.contains(table[b][g]):
                bits |= 1 << b
    else:
        row = table[g]
        for c in range(n):
            if A.contains(row[c]):
                bits |= 1 << c
    return DenseSet(model, bits)


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
    bits = 0
    row = model.table[g]
    for a in iter_bits(A.bits):
        bits |= 1 << row[a]
    return DenseSet(model, bits)


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
