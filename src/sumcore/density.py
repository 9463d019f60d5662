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

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadAlpha, BadInterval, ModelMismatch, WindowTooLarge
from .model import DenseSet, ZWindow


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


def banach_density(A: DenseSet, n: int) -> DensityReport:
    """Exact max of |A ∩ [m, m+n)| / n over all starts m (first argmax)."""
    _require_zwindow(A)
    M = A.model.carrier_size
    if not (1 <= n <= M):
        raise WindowTooLarge(f"window length {n} outside [1, {M}]")
    p = A.prefix_counts()
    counts = p[n:] - p[:-n]
    best = int(counts.argmax())
    c = int(counts[best])
    return DensityReport(n, best, c, Fraction(c, n))


def min_window_density(A: DenseSet, n: int) -> DensityReport:
    """Min-over-starts companion of banach_density (syndeticity side)."""
    _require_zwindow(A)
    M = A.model.carrier_size
    if not (1 <= n <= M):
        raise WindowTooLarge(f"window length {n} outside [1, {M}]")
    p = A.prefix_counts()
    counts = p[n:] - p[:-n]
    best = int(counts.argmin())
    c = int(counts[best])
    return DensityReport(n, best, c, Fraction(c, n))


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

    p = A.prefix_counts()
    an, ad = alpha.numerator, alpha.denominator
    cuts = [a]
    counts = []
    x = a
    while True:
        if b - x < N:
            if x < b:
                cuts.append(b)
                counts.append(int(p[b] - p[x]))
            return PartitionCertificate(
                (a, b), alpha, N, tuple(cuts), tuple(counts), M
            )
        base = int(p[x])
        jump = 0
        for n in range(1, N + 1):
            cnt = int(p[x + n]) - base
            # density < alpha/2  <=>  2 * cnt * ad < an * n
            if 2 * cnt * ad < an * n:
                jump = n
                break
        if jump == 0:
            return GoodPoint(x, alpha, N, (a, b))
        x += jump
        cuts.append(x)
        counts.append(int(p[x]) - base)


def verify_good_point(gp: GoodPoint, A: DenseSet) -> bool:
    """Recheck the prefix-density invariant of a good point from the bitset."""
    M = A.model.carrier_size
    if gp.x + gp.horizon > M:
        raise ModelMismatch("good point horizon leaves the carrier")
    a, b = gp.interval
    if gp.horizon < 1 or not (0 <= a <= gp.x and gp.x + gp.horizon <= b <= M):
        return False
    p = A.prefix_counts()
    an, ad = gp.alpha.numerator, gp.alpha.denominator
    base = int(p[gp.x])
    for n in range(1, gp.horizon + 1):
        cnt = int(p[gp.x + n]) - base
        if 2 * cnt * ad < an * n:
            return False
    return True


def verify_density_certificate(cert: PartitionCertificate, A: DenseSet) -> bool:
    """Recheck every PartitionCertificate invariant against A's bitset."""
    if cert.carrier_size != A.model.carrier_size:
        raise ModelMismatch("certificate built over a different carrier")
    a, b = cert.interval
    M = A.model.carrier_size
    if not (0 <= a < b <= M):
        return False
    cuts = cert.cuts
    if len(cuts) < 2 or cuts[0] != a or cuts[-1] != b:
        return False
    if any(cuts[i] >= cuts[i + 1] for i in range(len(cuts) - 1)):
        return False
    if len(cert.block_counts) != len(cuts) - 1:
        return False
    p = A.prefix_counts()
    an, ad = cert.alpha.numerator, cert.alpha.denominator
    N = cert.horizon
    K = len(cuts) - 1
    for k in range(K):
        length = cuts[k + 1] - cuts[k]
        cnt = int(p[cuts[k + 1]]) - int(p[cuts[k]])
        if cnt != cert.block_counts[k]:
            return False
        sparse = length <= N and 2 * cnt * ad < an * length
        if k < K - 1:
            if not sparse:
                return False
        else:
            # last block: closing block of length < N, or itself sparse
            if not (length < N or sparse):
                return False
    total = int(p[b]) - int(p[a])
    # implied bound, exact: total/(b-a) < alpha/2 + N/(b-a)
    if Fraction(total, b - a) >= cert.alpha / 2 + Fraction(N, b - a):
        return False
    return True
