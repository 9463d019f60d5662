"""Window densities and the certified regular-point finder.

``banach_density`` computes the exact best density of A over all
length-n windows of an integer carrier (the finite analogue of upper
Banach density at a fixed window length; no limit is taken).

``find_regular_point`` runs a greedy walk over an interval [a, b):
starting at a, it repeatedly tests whether the current position x has
some prefix [x, x+n), n <= N, of density below alpha/2.  If so it jumps
past the sparsest-earliest such block; if not, x is a *good point* --
every prefix up to horizon N is (alpha/2)-dense.  If the walk runs out
of room, the jump blocks form a partition of [a, b) that certifies

    |A ∩ [a,b)| / (b-a)  <  alpha/2 + N/(b-a)

so the two outcomes are mutually exclusive and machine-checkable.  All
densities are exact rationals; no floating point is involved.
"""

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadAlpha, BadInterval, ModelMismatch, WindowTooLarge
from .model import DenseSet, ZWindow, ints


@dataclass(frozen=True)
class DensityReport:
    window_length: int
    best_start: int
    count: int
    density: Fraction


@dataclass(frozen=True)
class GoodPoint:
    """Position whose every prefix [x, x+n), n <= horizon, is (alpha/2)-dense."""

    x: int
    alpha: Fraction
    horizon: int
    interval: tuple  # (a, b), with x + horizon <= b


@dataclass(frozen=True)
class PartitionCertificate:
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


def find_regular_point(A: DenseSet, interval, alpha, N):
    """Greedy walk over [a, b): GoodPoint or PartitionCertificate.

    At each position x: if b - x < N the partition is closed; otherwise
    the smallest n <= N with |A ∩ [x, x+n)| < (alpha/2) n determines the
    jump, and if no prefix fails, x is returned as a good point.  Total
    work O(b - a + N) on top of one prefix-count pass.
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

    # p[i] = |A ∩ [a, a+i)|; the walk reads Python ints, not numpy scalars
    pc = A.prefix_counts()
    p = (pc[a:b + 1] - pc[a]).tolist()
    an, ad = alpha.numerator, alpha.denominator
    cuts = [a]
    counts = []
    i, end = 0, b - a
    while True:
        if end - i < N:
            if i < end:
                cuts.append(b)
                counts.append(p[end] - p[i])
            return PartitionCertificate(
                (a, b), alpha, N, tuple(cuts), tuple(counts), M
            )
        base = p[i]
        if p[i + 1] == base:
            # i is not in A: [i, i+1) is sparse (alpha > 0), and so is
            # every position up to the next member; take them in one step
            stop = min(bisect_right(p, base, i) - 1, end - N + 1)
            cuts.extend(range(a + i + 1, a + stop + 1))
            counts.extend([0] * (stop - i))
            i = stop
            continue
        jump = 0
        for n in range(1, N + 1):
            # density < alpha/2  <=>  2 * cnt * ad < an * n
            if 2 * (p[i + n] - base) * ad < an * n:
                jump = n
                break
        if jump == 0:
            return GoodPoint(a + i, alpha, N, (a, b))
        i += jump
        cuts.append(a + i)
        counts.append(p[i] - base)


def _sparse(cnt, length, alpha, top):
    """Elementwise ``2 * cnt * ad < an * length``: density below alpha/2.

    Exact: int64 when every product stays below 2^62 (0 <= cnt, length
    <= top), otherwise the same expression on Python ints (dtype object).
    """
    an, ad = alpha.numerator, alpha.denominator
    if 2 * top * max(abs(an), ad) >= 1 << 62:
        cnt, length = cnt.astype(object), length.astype(object)
    return 2 * cnt * ad < an * length


def verify_good_point(gp: GoodPoint, A: DenseSet) -> bool:
    """Recheck the prefix-density invariant of a good point from the bitset;
    False on a malformed one."""
    fields = ints([gp.x, gp.horizon] + (ints(gp.interval) or []))
    if fields is None or len(fields) != 4 or not isinstance(gp.alpha, Fraction):
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
    False on a malformed certificate."""
    fields = ints([cert.carrier_size, cert.horizon] + (ints(cert.interval) or []))
    if fields is None or len(fields) != 4 or not isinstance(cert.alpha, Fraction):
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
