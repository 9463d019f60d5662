"""Window densities and the certified regular-point finder.

``banach_density`` computes the exact best density of A over all
length-n windows of an integer carrier (the finite analogue of upper
Banach density at a fixed window length; no limit is taken).

``find_regular_point`` runs a greedy walk over an interval [a, b):
starting at a, it repeatedly tests whether the current position x has
some prefix [x, x+n), n <= N, of density below alpha/2.  If so it jumps
past the shortest such block; if not, x is a *good point* --
every prefix up to horizon N is (alpha/2)-dense.  If the walk runs out
of room, the jump blocks form a partition of [a, b) that certifies

    |A ∩ [a,b)| / (b-a)  <  alpha/2 + N/(b-a)

so the two outcomes are mutually exclusive and machine-checkable.  All
densities are exact rationals; no floating point is involved.
"""

from fractions import Fraction

import numpy as np

from .errors import BadAlpha, BadInterval, ModelMismatch, WindowTooLarge
from .model import DenseSet, Record, ZWindow, ints


class DensityReport(Record):
    window_length: int
    best_start: int
    count: int
    density: Fraction


class GoodPoint(Record):
    """Position whose every prefix [x, x+n), n <= horizon, is (alpha/2)-dense."""

    x: int
    alpha: Fraction
    horizon: int
    interval: tuple  # (a, b), with x + horizon <= b


class PartitionCertificate(Record):
    """Failure object: cut points spanning [a, b) with sparse blocks.

    Every block except possibly the last has length <= horizon and
    A-count strictly below (alpha/2) * length.  The last block either is
    such a sparse block itself (the walk landed exactly on b) or is a
    closing block of length < horizon.  Together these force the density
    bound |A ∩ [a,b)| / (b-a) < alpha/2 + horizon/(b-a).
    """

    interval: tuple
    alpha: Fraction
    horizon: int
    cuts: tuple          # x_0 = a < x_1 < ... < x_K = b
    block_counts: tuple  # |A ∩ [x_k, x_{k+1})| for each block
    carrier_size: int


def _require_zwindow(A: DenseSet):
    if not isinstance(A.model, ZWindow):
        raise WindowTooLarge("window densities are defined for ZWindow models")


def _window_density(A: DenseSet, n: int, pick) -> DensityReport:
    """The window of length n whose count ``pick`` (argmax/argmin) selects."""
    _require_zwindow(A)
    M = A.model.carrier_size
    if not (1 <= n <= M):
        raise WindowTooLarge(f"window length {n} outside [1, {M}]")
    p = A.prefix_counts()
    counts = p[n:] - p[:-n]
    best = int(pick(counts))
    c = int(counts[best])
    return DensityReport(n, best, c, Fraction(c, n))


def banach_density(A: DenseSet, n: int) -> DensityReport:
    """Exact max of |A ∩ [m, m+n)| / n over all starts m (first argmax)."""
    return _window_density(A, n, np.argmax)


def min_window_density(A: DenseSet, n: int) -> DensityReport:
    """Min-over-starts companion of banach_density (syndeticity side)."""
    return _window_density(A, n, np.argmin)


def density_schedule(A: DenseSet, lengths) -> list:
    """banach_density at each window length of a user-supplied schedule."""
    return [banach_density(A, n) for n in lengths]


# positions per array pass of the walk: the first pass is short, so a good
# point near a costs little, and no pass reads more than 2^16 positions
_FIRST_PASS, _PASS = 1 << 12, 1 << 16


def find_regular_point(A: DenseSet, interval, alpha, N):
    """Greedy walk over [a, b): GoodPoint or PartitionCertificate.

    At each position x: if b - x < N the partition is closed; otherwise
    the smallest n <= N with |A ∩ [x, x+n)| < (alpha/2) n determines the
    jump, and if no prefix fails, x is returned as a good point.

    With alpha = an/ad, p(j) = |A ∩ [a, a+j)| and f(j) = 2·ad·p(j) - an·j,
    the block [i, j) is sparse iff f(j) < f(i).  So the walk steps from i
    to the first j > i with f(j) < f(i): its positions are the strict
    running minima of f, from f(0).  f falls by an across a non-member and
    rises across a member, so the minima between two members m < m' are
    the positions j in (m, m'] whose f(m') + an·(m' - j) is below the
    minimum up to m: one run that ends at m'.  The walk finds these runs
    in array passes over the members, at most 2^16 positions a pass, and
    its work does not grow with N.
    """
    _require_zwindow(A)
    a, b = interval
    M = A.model.carrier_size
    if not (0 <= a < b <= M):
        raise BadInterval(f"interval [{a},{b}) not inside [0,{M})")
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise BadAlpha(f"alpha must lie in (0,1], got {alpha}")
    if not (1 <= N <= b - a):
        raise BadInterval(f"horizon {N} outside [1, {b - a}]")

    end = b - a
    last = end - N  # the walk jumps only from i <= last, so that i + N <= end
    an, ad = alpha.numerator, alpha.denominator
    dtype = _exact_dtype(alpha, end)
    inA = A.to_numpy()[a:b]
    pc = A.prefix_counts()[a:b + 1]
    starts, stops = [], []  # runs [r, e] of positions the walk visits after 0
    x = prev = 0  # the walk's latest position, the end of the last stretch read
    low = np.zeros(1, dtype=dtype)  # min f so far, from f(0) = 0
    lo, span = 1, _FIRST_PASS
    while True:
        hi = min(end, lo + span)
        # stretches (prev, e]: each ends at a member in [lo, hi) or at hi itself
        e = np.append(lo + np.flatnonzero(inA[lo:hi]), hi)
        fe = (pc[e] - pc[0]).astype(dtype, copy=False) * (2 * ad) \
            - e.astype(dtype, copy=False) * an
        before = np.minimum.accumulate(np.concatenate((low, fe)))
        low = before[-1:]
        # j in (prev, e] is a new minimum iff e - j < (min before - f(e)) / an:
        # the walk jumps from src to r, then visits the run [r, e] in unit steps
        new = np.minimum(np.diff(e, prepend=prev), -((fe - before[:-1]) // an))
        keep = new > 0
        e = e[keep]
        r = e - new[keep].astype(np.int64) + 1
        src = np.concatenate(([x], e[:-1]))
        prev = hi
        close = int(np.searchsorted(e, last, "right"))  # e[close] is past last
        wide = np.flatnonzero(r[:close + 1] - src[:close + 1] > N)
        if wide.size:
            return GoodPoint(a + int(src[wide[0]]), alpha, N, (a, b))
        if close < len(e):  # the first position past last closes the walk
            starts.append(r[:close + 1])
            stops.append(np.append(e[:close], max(r[close], last + 1)))
            break
        x = int(e[-1]) if len(e) else x
        if hi - x >= N:  # no minimum in (x, x + N]
            return GoodPoint(a + x, alpha, N, (a, b))
        starts.append(r)
        stops.append(e)
        lo, span = hi, min(2 * span, _PASS)

    # cuts: 0, every run, and b; one cumulative sum of the steps between them
    r, e = np.concatenate(starts), np.concatenate(stops)
    if e[-1] < end:  # the closing block
        r, e = np.append(r, end), np.append(e, end)
    src = np.concatenate(([0], e[:-1]))
    size = e - r + 1
    head = np.cumsum(size) - size  # each run's first block among the counts
    steps = np.ones(1 + head[-1] + size[-1], dtype=np.int64)
    steps[0] = a
    steps[1 + head] = r - src
    cuts = tuple(np.cumsum(steps, out=steps).tolist())
    del steps
    # a unit block inside a run is one non-member: only jumps count members
    counts = [0] * (len(cuts) - 1)
    for i, c in zip(head.tolist(), (pc[r] - pc[src]).tolist()):
        counts[i] = c
    return PartitionCertificate((a, b), alpha, N, cuts, tuple(counts), M)


def _exact_dtype(alpha, top):
    """int64 when ``2 * cnt * ad`` and ``an * length`` stay below 2^62 for
    every 0 <= cnt, length <= top, otherwise object (Python ints)."""
    an, ad = alpha.numerator, alpha.denominator
    return object if 2 * top * max(abs(an), ad) >= 1 << 62 else np.int64


def _sparse(cnt, length, alpha, top):
    """Elementwise ``2 * cnt * ad < an * length``: density below alpha/2,
    exact in the dtype of ``_exact_dtype`` (0 <= cnt, length <= top)."""
    dtype = _exact_dtype(alpha, top)
    cnt, length = cnt.astype(dtype, copy=False), length.astype(dtype, copy=False)
    return 2 * cnt * alpha.denominator < alpha.numerator * length


def verify_good_point(gp: GoodPoint, A: DenseSet) -> bool:
    """Recheck the prefix-density invariant of a good point from the bitset;
    False on a malformed one, or on an alpha outside (0, 1]."""
    fields = ints([gp.x, gp.horizon] + (ints(gp.interval) or []))
    if fields is None or len(fields) != 4 or not (isinstance(gp.alpha, Fraction) and 0 < gp.alpha <= 1):
        return False
    x, N, a, b = fields
    M = A.model.carrier_size
    if x + N > M:
        raise ModelMismatch("good point horizon leaves the carrier")
    if N < 1 or not (0 <= a <= x and x + N <= b <= M):
        return False
    p = A.prefix_counts()
    cnt = p[x + 1:x + N + 1] - p[x]
    return not _sparse(cnt, np.arange(1, N + 1), gp.alpha, N).any()


def verify_density_certificate(cert: PartitionCertificate, A: DenseSet) -> bool:
    """Recheck every PartitionCertificate invariant against A's bitset;
    False on a malformed certificate, or on an alpha outside (0, 1]."""
    fields = ints([cert.carrier_size, cert.horizon] + (ints(cert.interval) or []))
    if fields is None or len(fields) != 4 or not (isinstance(cert.alpha, Fraction) and 0 < cert.alpha <= 1):
        return False
    size, N, a, b = fields
    M = A.model.carrier_size
    if size != M:
        raise ModelMismatch("certificate built over a different carrier")
    try:
        at = np.asarray(cert.cuts)  # int64 unless some cut is not an int64
    except ValueError:  # ragged: some cut is a sequence
        return False
    if not (0 <= a < b <= M) or at.dtype.kind != "i" or at.ndim != 1 or len(at) < 2:
        return False
    if at[0] != a or at[-1] != b or not (np.diff(at) > 0).all():
        return False
    pc = A.prefix_counts()[at]
    cnt = np.diff(pc)
    if ints(cert.block_counts) != cnt.tolist():
        return False
    length = np.diff(at)
    sparse = (length <= N) & _sparse(cnt, length, cert.alpha, b - a)
    # every block is sparse, except that the last may close with length < N
    if not (sparse[:-1].all() and (length[-1] < N or sparse[-1])):
        return False
    total = int(pc[-1] - pc[0])
    # implied bound, exact: total/(b-a) < alpha/2 + N/(b-a)
    return Fraction(total, b - a) < cert.alpha / 2 + Fraction(N, b - a)
