"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive: plain enumeration with no bitset
tricks, no pruning beyond feasibility, so that agreement with the
library is meaningful.  Oracles are only run at small scale.
"""

import dataclasses
import itertools
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, chain

import numpy as np

from sumcore import (
    CoverCertificate,
    DefinableWitness,
    DenseSet,
    FamilyDescriptor,
    GoodPoint,
    Infeasible,
    InvalidInput,
    LadderCertificate,
    NotFound,
    PartitionCertificate,
    SquareWitness,
    Stuck,
    TriangularWitness,
    UpgradeResult,
    ZWindow,
)
from sumcore.density import _require_zwindow
from sumcore.errors import (
    BadAlpha,
    BadBounds,
    BadCore,
    BadInterval,
    ElementOutOfRange,
    ModelMismatch,
    NotALatinSquare,
    SumcoreError,
)
from sumcore.ladder import LadderResult, _first_of_each
from sumcore.model import (
    CayleyGroup,
    Relation,
    bits_of,
    from_mask,
    ints,
    iter_bits,
    iter_bits_desc,
    translate,
)
from sumcore.search import Budget, preorder
from sumcore.setspec import GOLDEN, MASK64, splitmix_stream


def operand_elements(model):
    domain = model.operand_mask
    return [i for i in range(model.carrier_size) if (domain >> i) & 1]


def in_set(A, model, b, c):
    prod = model.op(b, c)
    return prod is not None and A.contains(prod)


def is_operand(model, x):
    """x is an integer witness operand of model: 0..L-1, or any group element."""
    return isinstance(x, int) and 0 <= x < model.operand_mask.bit_length()


def brute_pattern(A, model, bs, cs, pattern):
    """Verdict on a k x k certificate, read from model.op alone.

    bs and cs must be equally long, non-empty, duplicate-free operand
    sequences, and in_set(b_i, c_j) must equal pattern(i, j) wherever that
    is not None: True everywhere for a square witness, True on and above
    the diagonal for a triangular one, i <= j for a ladder.
    """
    k = len(bs)
    if k == 0 or len(cs) != k:
        return False
    if not all(is_operand(model, x) for x in bs + cs):
        return False
    if len(set(bs)) != k or len(set(cs)) != k:
        return False
    return all(pattern(i, j) in (None, in_set(A, model, bs[i], cs[j]))
               for i in range(k) for j in range(k))


def brute_definable(w, A, model):
    """Verdict on a DefinableWitness: two valid progressions, all products in A."""
    if w.family not in ("intervals", "aps"):
        return False
    for t in (w.theta1, w.theta2):
        if t.length < 1 or t.step < 1 or (w.family == "intervals" and t.step != 1):
            return False
    xs, ys = w.set1, w.set2
    if not all(is_operand(model, x) for x in xs + ys):
        return False
    return all(in_set(A, model, x, y) for x in xs for y in ys)


def scan_definable_search(A: DenseSet, model, family, n: int,
                          budget=None, step_max=None):
    """The definable search as it was before whole-array passes: a scan of
    every (step1, start1) pair, one bitset of survivors each, then of every
    (step2, start2) inside it.  Unbudgeted, the library must return its
    answer.

    ``family`` is ``"intervals"`` (contiguous runs) or ``"aps"``
    (arithmetic progressions with step up to ``step_max``).  Both sides
    use length exactly n; parameters are scanned in canonical order
    (step1, start1, step2, start2 ascending) so the first hit is
    deterministic.  Only ZWindow models are supported: the families are
    arithmetic.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not isinstance(model, ZWindow):
        raise ModelMismatch("definable families require a ZWindow model")
    if family == "intervals":
        steps = [1]
    elif family == "aps":
        if step_max is None:
            step_max = 64
        if step_max < 1:
            raise ValueError(f"step_max must be >= 1, got {step_max}")
        steps = list(range(1, step_max + 1))
    else:
        raise ValueError(f"unknown family {family!r}")

    bud = Budget(budget)
    rel = Relation(A, model)
    L, domain = rel.bound, rel.domain

    # Parameters scan in canonical order (step1, start1, step2, start2).
    # For each left progression, the survivors V = ∩_i (A - (s1 + i*d1))
    # are computed once as a bitset (rel.left(x) is the shift A >> x,
    # inlined in this inner loop); the right progression must start
    # inside V, which keeps the inner scan near-linear.
    for d1 in steps:
        span1 = (n - 1) * d1
        if span1 >= L:
            break
        for s1 in range(L - span1):
            if not bud.spend():
                return NotFound(exhaustive=False)
            V = domain
            for i in range(n):
                V &= A.bits >> (s1 + i * d1)
                if V.bit_count() < n:
                    break
            if V.bit_count() < n:
                continue
            for d2 in steps:
                span2 = (n - 1) * d2
                if span2 >= L:
                    break
                for s2 in iter_bits(V):
                    if s2 + span2 >= L:
                        break
                    if not bud.spend():
                        return NotFound(exhaustive=False)
                    if all((V >> (s2 + j * d2)) & 1 for j in range(1, n)):
                        return DefinableWitness(
                            family,
                            FamilyDescriptor(s1, d1, n),
                            FamilyDescriptor(s2, d2, n),
                        )
    return NotFound(exhaustive=True)


def brute_cover(cert, A, model):
    """Verdict on a CoverCertificate: the translates are strictly increasing,
    and every core element e lies in g*A for the translate g its witness
    index names, i.e. e = g*a for a member a."""
    lo, hi = cert.core
    if not all(isinstance(x, int) for x in (lo, hi, *cert.translates, *cert.witness_index)):
        return False
    if not (0 <= lo < hi <= model.carrier_size):
        return False
    if len(cert.witness_index) != hi - lo:
        return False
    if list(cert.translates) != sorted(set(cert.translates)):
        return False
    # on a Cayley group the core is the whole group and every translate
    # is a group element
    if hasattr(model, "table") and ((lo, hi) != (0, model.carrier_size) or
                                    not all(is_operand(model, g) for g in cert.translates)):
        return False
    members = A.members()
    for e, idx in zip(range(lo, hi), cert.witness_index):
        if not 0 <= idx < len(cert.translates):
            return False
        g = cert.translates[idx]
        if not any(model.op(g, a) == e for a in members):
            return False
    return True


# The cover problem as the library built it before rows came from one
# pass: one translate DenseSet per shift, kept whole in a {g: gA ∩ core}
# dict, and the certificate read element by element from it.


def _cover_problem(A, model, core, shifts):
    """Validated core, core bitmask, sorted shifts and {g: gA ∩ core}."""
    if A.model != model:
        raise ModelMismatch("set and model disagree")
    if isinstance(model, CayleyGroup):
        core = (0, model.order)
        shifts = range(model.order)
    elif isinstance(model, ZWindow):
        if core is None:
            raise BadCore("ZWindow cover needs an explicit core region")
        lo, hi = core
        if not (0 <= lo < hi <= model.carrier_size):
            raise BadCore(f"core [{lo},{hi}) not inside the carrier")
        if shifts is None:
            shifts = range(-(hi - 1), hi)
    else:
        raise ModelMismatch(f"unsupported model {model!r}")
    lo, hi = core
    core_bits = ((1 << hi) - 1) ^ ((1 << lo) - 1)
    order = sorted(set(int(g) for g in shifts))
    sets = {g: translate(A, g).bits & core_bits for g in order}
    return core, core_bits, order, sets


def _bound(sets, uncovered):
    """ceil(|uncovered| / best single-translate gain); None if no gain."""
    gain = max(((s & uncovered).bit_count() for s in sets.values()), default=0)
    return -(-uncovered.bit_count() // gain) if gain else None


def _certificate(chosen, sets, core, optimal, method):
    lo, hi = core
    witness = []
    for e in range(lo, hi):
        for idx, g in enumerate(chosen):
            if (sets[g] >> e) & 1:
                witness.append(idx)
                break
    return CoverCertificate(tuple(chosen), core, tuple(witness),
                            optimal=optimal, method=method)


def scan_min_cover(A, model, core=None, shifts=None, t_max=16):
    """The exact translate cover as it was before index masks: the same
    decision question for t = counting bound, counting bound + 1, ...
    below the greedy size, each search over every shift with plain MRV
    branching, and the lex-least cover fixed one translate at a time with
    each question asked over all shifts.  ``min_translate_cover`` in
    exact mode must return its answer, ``Infeasible`` included.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    core, core_bits, order, sets = _cover_problem(A, model, core, shifts)
    counting_lb = _bound(sets, core_bits)
    union = 0
    for s in sets.values():
        union |= s
    if union != core_bits:
        missing = core_bits & ~union
        elem = (missing & -missing).bit_length() - 1
        return Infeasible(lower_bound=counting_lb, uncovered_element=elem)

    greedy_cover = []
    covered = 0
    while covered != core_bits:
        best_g, best_gain = None, 0
        for g in order:
            gain = (sets[g] & ~covered).bit_count()
            if gain > best_gain:
                best_g, best_gain = g, gain
        greedy_cover.append(best_g)
        covered |= sets[best_g]

    covers = {}
    for g in order:
        for e in iter_bits(sets[g]):
            covers.setdefault(e, []).append(g)
    t_star = len(greedy_cover)
    for t in range(counting_lb, min(t_star, t_max + 1)):
        if _scan_exists_cover(sets, covers, core_bits, 0, t):
            t_star = t
            break
    if t_star > t_max:
        return Infeasible(lower_bound=max(counting_lb, t_max + 1),
                          uncovered_element=None)
    final = _scan_lex_min_cover(order, sets, covers, core_bits, t_star)
    return _certificate(final, sets, core, optimal=True, method="exact")


def _scan_exists_cover(sets, covers, core_bits, covered, size_limit):
    """Do at most size_limit more translates cover what is still uncovered?

    Every core element lies in some translate.  Branches on the uncovered
    element with the fewest covering translates; ``covers`` maps each
    core element to those translates.
    """
    def children(node):
        covered, size_limit = node
        if size_limit == 0:
            return
        uncovered = core_bits & ~covered
        if _bound(sets, uncovered) > size_limit:
            return
        options = None
        for e in iter_bits(uncovered):
            opts = covers[e]
            if options is None or len(opts) < len(options):
                options = opts
                if len(opts) <= 1:
                    break
        for g in options:
            yield covered | sets[g], size_limit - 1

    root = (covered, size_limit)
    return any(node[0] == core_bits for node in preorder(root, children))


def _scan_lex_min_cover(order, sets, covers, core_bits, t_star):
    """Lexicographically least cover of the optimal size t_star.

    Each step fixes the least shift that still extends to a cover of
    size t_star.  The picks come out increasing (a smaller shift that
    extends later would have extended at the earlier step), so the scan
    resumes after the last pick.
    """
    chosen = []
    covered = 0
    start = 0
    while covered != core_bits:
        for i in range(start, len(order)):
            g = order[i]
            if _scan_exists_cover(sets, covers, core_bits, covered | sets[g],
                                  t_star - len(chosen) - 1):
                break
        chosen.append(g)
        covered |= sets[g]
        start = i + 1
    return chosen


def brute_square(A, model, k):
    """Lexicographically least square witness, or None.

    B ranges over increasing k-tuples in lex order; C is then the k
    smallest elements of the common pool, matching the library's
    canonical form.
    """
    elems = operand_elements(model)
    for bs in itertools.combinations(elems, k):
        pool = [c for c in elems if all(in_set(A, model, b, c) for b in bs)]
        if len(pool) >= k:
            return tuple(bs), tuple(sorted(pool)[:k])
    return None


def brute_square_exists(A, model, k):
    return brute_square(A, model, k) is not None


def brute_triangular_exists(A, model, m):
    """Whether distinct b_1..b_m and distinct c_1..c_m with b_i*c_j in A for
    every i <= j exist: every b sequence in turn, then every choice of
    distinct c's from the pools it leaves, c_m first."""
    elems = operand_elements(model)
    left = {b: {c for c in elems if in_set(A, model, b, c)} for b in elems}

    def distinct(pools, used):
        return not pools or any(c not in used and distinct(pools[1:], used | {c})
                                for c in pools[0])

    for bs in itertools.permutations(elems, m):
        # pools[j] = {c : b_i*c in A for every i <= j}
        pools = list(itertools.accumulate((left[b] for b in bs), set.intersection))
        if distinct(pools[::-1], frozenset()):
            return True
    return False


def greedy_square(A, model, k, scorer, rng=None):
    """The alternating greedy construction, one product at a time:
    (b's, c's, complete), complete False when a pool emptied first.

    The b-pool holds the unused b's with b*c in A for every chosen c, the
    c-pool the unused c's with b*c in A for every chosen b.  A pick takes
    the pool element that keeps the most of the opposite pool
    (``pool_size``) or the most of its members of A (``density_weighted``),
    the first in increasing order on a tie; ``random`` takes the element
    at ``next(rng) % len(pool)``.
    """
    elems = operand_elements(model)
    bs, cs = [], []

    def b_pool():
        return [b for b in elems if b not in bs
                and all(in_set(A, model, b, c) for c in cs)]

    def c_pool():
        return [c for c in elems if c not in cs
                and all(in_set(A, model, b, c) for b in bs)]

    def pick(pool, opposite, pair_in):
        if scorer == "random":
            return pool[next(rng) % len(pool)]
        best, best_score = None, -1
        for g in pool:
            score = sum(1 for x in opposite if pair_in(g, x)
                        and (scorer == "pool_size" or A.contains(x)))
            if score > best_score:
                best, best_score = g, score
        return best

    for _ in range(k):
        pool = b_pool()
        if not pool:
            return tuple(bs), tuple(cs), False
        bs.append(pick(pool, c_pool(), lambda b, c: in_set(A, model, b, c)))
        pool = c_pool()
        if not pool:
            return tuple(bs), tuple(cs), False
        cs.append(pick(pool, b_pool(), lambda c, b: in_set(A, model, b, c)))
    return tuple(bs), tuple(cs), True


def bitset_greedy(A, model, k, scorer="pool_size", seed=0):
    """``greedy_back_and_forth`` as it was before scores came from one
    correlation pass: pools are big-int bitsets, and a scored pick takes
    one AND and popcount per pool element (the first best on a tie)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if scorer not in ("pool_size", "density_weighted", "random"):
        raise ValueError(f"unknown scorer {scorer!r}")
    rel = Relation(A, model)
    rng = splitmix_stream(seed) if scorer == "random" else None
    counted = A.bits if scorer == "density_weighted" else -1  # -1: every bit

    def pick(pool, opposite, quot):
        if rng is not None:
            return next(itertools.islice(iter_bits(pool), next(rng) % pool.bit_count(), None))
        opposite &= counted
        # max keeps the first best: ties go to the smallest element
        return max(iter_bits(pool), key=lambda g: (opposite & quot(g)).bit_count())

    bs, cs = [], []
    pool_b = pool_c = rel.domain
    for _ in range(k):
        if not pool_b:
            return Stuck(tuple(bs), tuple(cs))
        b = pick(pool_b, pool_c, rel.left)
        bs.append(b)
        pool_b ^= 1 << b
        pool_c &= rel.left(b)

        if not pool_c:
            return Stuck(tuple(bs), tuple(cs))
        c = pick(pool_c, pool_b, rel.right)
        cs.append(c)
        pool_c ^= 1 << c
        pool_b &= rel.right(c)
    return SquareWitness(tuple(bs), tuple(cs))


def brute_ladder_exists(A, model, k):
    """Any ladder of length exactly k (full iff-pattern), by enumeration."""
    elems = operand_elements(model)
    for bs in itertools.permutations(elems, k):
        for cs in itertools.permutations(elems, k):
            ok = True
            for i in range(k):
                for j in range(k):
                    if in_set(A, model, bs[i], cs[j]) != (i <= j):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def brute_max_ladder(A, model, k_max):
    best = 0
    for k in range(1, k_max + 1):
        if brute_ladder_exists(A, model, k):
            best = k
    return best


def dfs_max_ladder(A, model, k_max):
    """(k, b's, c's) of the first longest ladder of length <= k_max that
    the depth-first search over every operand meets: b's descending, c's
    ascending, each next b outside right(c) of the last c, each next c in
    left(b) of every b so far; it stops at the first ladder of k_max."""
    best = [(), ()]

    def walk(bs, cs, pool_b, pool_c):
        if len(bs) > len(best[0]):
            best[:] = bs, cs
        if len(bs) == k_max:
            return True
        if cs:
            pool_b = [b for b in pool_b if not in_set(A, model, b, cs[-1])]
        for b in sorted(pool_b, reverse=True):
            pool_next = [c for c in pool_c if in_set(A, model, b, c)]
            for c in pool_next:
                if walk(bs + (b,), cs + (c,), pool_b, pool_next):
                    return True
        return False

    elems = operand_elements(model)
    walk((), (), elems, elems)
    return len(best[0]), *best


def brute_min_cover(A, model):
    """Lexicographically least minimum cover of a CayleyGroup by left
    translates of A, as the tuple of translating elements, or None.

    Sizes are tried in increasing order and combinations come out in lex
    order, so the first covering combination is the lex-least optimum.
    """
    n = model.carrier_size
    full = (1 << n) - 1
    tsets = []
    for g in range(n):
        bits = 0
        row = model.table[g]
        for a in range(n):
            if A.contains(a):
                bits |= 1 << row[a]
        tsets.append(bits)
    for t in range(1, n + 1):
        for combo in itertools.combinations(range(n), t):
            u = 0
            for g in combo:
                u |= tsets[g]
            if u == full:
                return combo
    return None


def scan_good_points(A, interval, alpha, N):
    """All x in [a, b-N] whose every prefix [x, x+n), n <= N, is dense."""
    a, b = interval
    members = set(A.members())
    out = []
    for x in range(a, b - N + 1):
        ok = True
        for n in range(1, N + 1):
            cnt = sum(1 for y in range(x, x + n) if y in members)
            if 2 * cnt * alpha.denominator < alpha.numerator * n:
                ok = False
                break
        if ok:
            out.append(x)
    return out


def walk_regular_point(A, interval, alpha, N):
    """The greedy walk of find_regular_point, one position at a time.

    Returns ("good", x) or ("partition", cuts, block_counts).
    """
    a, b = interval
    cuts, counts = [a], []
    x = a
    while b - x >= N:
        jump = next((n for n in range(1, N + 1)
                     if 2 * sum(A.contains(y) for y in range(x, x + n))
                     * alpha.denominator < alpha.numerator * n), None)
        if jump is None:
            return ("good", x)
        counts.append(sum(A.contains(y) for y in range(x, x + jump)))
        x += jump
        cuts.append(x)
    if x < b:
        counts.append(sum(A.contains(y) for y in range(x, b)))
        cuts.append(b)
    return ("partition", tuple(cuts), tuple(counts))


def list_walk_regular_point(A: DenseSet, interval, alpha, N):
    """``find_regular_point`` as a walk over a Python list of prefix counts
    (the old finder): GoodPoint or PartitionCertificate.

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


def loop_cayley_model(table):
    """``build_model``'s Cayley branch as two bitset double loops (the old
    check): every row entry tested for range and repeats, then every column."""
    try:
        rows = [ints(row) for row in table]
    except TypeError:
        raise BadBounds("Cayley table must be a list of rows") from None
    if None in rows:
        raise ElementOutOfRange("Cayley table entries must be integers")
    table = tuple(map(tuple, rows))
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


def text_read_set_file(path):
    """``read_set_file`` as per-token ``int()`` over the text (the old reader)."""
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


# The set-file reader as it stood with two paths: a whole-array decimal codec
# (``_decode_set_bytes``) and, for what the codec refuses, per-token int()
# over a second open of the file (``codec_read_set_file``'s exact path).

_DIGITS_MAX = 18  # a token of at most 18 digits is below 10^18 < 2^63
# separator bytes: those bytes.split() splits on, and the comma
_ASCII_SPACE = np.isin(np.arange(256), list(b" \t\n\r\x0b\x0c"))
_COMMA = np.arange(256) == ord(",")


def _decimal_values(chars, separator):
    """The runs of ASCII digits in a uint8 array, as int64 values.

    None when a run has more than 18 digits or a byte is neither a digit nor
    a separator (``separator`` is a bool table over the 256 bytes).
    """
    digit = chars - ord("0")  # wraps to >= 10 for every other byte
    edges = np.zeros(chars.size + 2, dtype=bool)
    edges[1:-1] = digit < 10
    if not (edges[1:-1] | separator.take(chars)).all():
        return None
    bounds = np.flatnonzero(edges[1:] != edges[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    lengths = ends - starts
    w = int(lengths.max()) if lengths.size else 0
    if w > _DIGITS_MAX:
        return None
    values = np.zeros(lengths.size, dtype=np.int64)
    for k in range(w, 0, -1):  # Horner over the right-aligned digit columns
        values = values * 10 + digit.take(ends - k, mode="clip") * (lengths >= k)
    return values


def _sorted_unique(values):
    values = np.sort(values)
    fresh = values[1:] != values[:-1]
    return values if fresh.all() else values[np.concatenate(([True], fresh))]


def _decode_set_bytes(raw):
    """``read_set_file``'s answer from the file's bytes with the members as
    a sorted int64 array, or None when the text needs the exact path (which
    also raises every error)."""
    text = raw.strip()
    if not text.startswith(b"RLE1:"):
        values = _decimal_values(np.frombuffer(raw, dtype=np.uint8), _ASCII_SPACE)
        return None if values is None else (_sorted_unique(values), None)
    head, colon, body = text[5:].partition(b":")
    if not (colon and head.isdigit() and len(head) <= _DIGITS_MAX):
        return None
    runs = _decimal_values(np.frombuffer(body, dtype=np.uint8), _COMMA)
    # no empty token: one token more than commas
    if runs is None or (body and runs.size != body.count(b",") + 1):
        return None
    if runs.size and int(runs.max()) * runs.size >= 2**63:
        return None
    size, ends = int(head), np.cumsum(runs)
    if ends.size and ends[-1] > size:
        return None
    lengths = runs[1::2]  # run k holds [end of gap k, end of run k)
    starts = ends[0::2][:lengths.size] - (np.cumsum(lengths) - lengths)
    return np.repeat(starts, lengths) + np.arange(lengths.sum()), size


def _read_set_bytes(raw):
    """``_decode_set_bytes`` with the members as a list."""
    fast = _decode_set_bytes(raw)
    return None if fast is None else (fast[0].tolist(), fast[1])


def _read_set_array(path):
    """``read_set_file``'s answer with the members as a sorted int64 array,
    or None when the file needs ``read_set_file``'s exact path."""
    with open(path, "rb") as fh:
        return _decode_set_bytes(fh.read())


def codec_read_set_file(path):
    """Read a set file; returns (members, declared_size_or_None).

    ``members`` is a sorted list of distinct Python ints.
    """
    with open(path, "rb") as fh:
        fast = _read_set_bytes(fh.read())
    if fast is not None:
        return fast
    with open(path) as fh:
        text = fh.read()
    stripped = text.strip()
    if stripped.startswith("RLE1:"):
        parts = stripped.split(":", 2)
        if len(parts) != 3:
            raise SumcoreError(f"malformed RLE1 header in {path}")
        size = int(parts[1])
        if size < 0:
            raise SumcoreError("negative RLE1 size")
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


def codec_file_bits(path, n):
    """The file(...) leaf's bitset over a carrier of size n, through the
    two-path reader: an int64 array, else the exact path's list."""
    fast = _read_set_array(path)
    members = codec_read_set_file(path)[0] if fast is None else fast[0]
    return bits_of(members[:bisect_left(members, n)])


def text_set_file_text(members, size=None, fmt="list"):
    """``set_file_text`` as per-value ``str()`` (the old writer)."""
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


class GatherRelation:
    """``Relation``'s grid verdicts read the old way: the k × k bool grid of
    b·c ∈ A in one numpy gather through an index array of the products,
    then the pattern tested in place on it (the verifier that big-int rows
    replaced)."""

    def __init__(self, A, model=None):
        if model is not None and A.model != model:
            raise ModelMismatch("set and model disagree")
        model = A.model
        self.bound = model.operand_mask.bit_length()
        self._A = A
        if isinstance(model, ZWindow):
            self._products = np.add.outer
        else:
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


def gather_certifies(A, model, bs, cs, pattern):
    """``Relation(A, model).certifies`` through one m × m gather."""
    return GatherRelation(A, model).certifies(bs, cs, pattern)


def gather_ramsey_upgrade(tri, A, model):
    """``ramsey_upgrade`` with one grid column gathered per pivot (the old
    walk over index arrays)."""
    if not gather_certifies(A, model, tri.b, tri.c, "upper"):
        raise InvalidInput("input does not verify as a triangular witness")
    rel = GatherRelation(A, model)
    bs_arr, cs_arr = rel.operands(tri.b, tri.c)

    pivots, labels = [], []
    rest = np.arange(tri.m)
    while rest.size > 1:
        pivot, others = rest[0], rest[1:]
        flags = rel.grid(bs_arr[others], cs_arr[pivot:pivot + 1])[:, 0]
        hot, cold = others[flags], others[~flags]
        pivots.append(int(pivot))
        labels.append(hot.size >= cold.size)
        rest = hot if labels[-1] else cold

    # the majority label's pivots plus the final, unlabelled one
    take_hot = 2 * sum(labels) >= len(labels)
    indices = [i for i, lab in zip(pivots, labels) if lab == take_hot]
    indices = tuple(sorted(indices + [int(rest[0])]))

    bs = tuple(tri.b[i] for i in indices)
    cs = tuple(tri.c[i] for i in indices)
    if take_hot:
        return UpgradeResult("square", indices, SquareWitness(bs, cs), None)
    return UpgradeResult("ladder", indices, None, LadderCertificate(bs, cs))


def power_quadruple_solutions(max_exp):
    """Solutions of 2^a + 2^d = 2^b + 2^c with {a,d} != {b,c}.

    A 2x2 square witness for the powers of two forces four sums
    S11, S12, S21, S22 that are powers of two with S11 + S22 = S12 + S21
    and S11 < S12, S11 < S21 (rows/columns strictly increase).  Any such
    configuration yields a quadruple counted here, so an empty return
    refutes all pairs-of-pairs at once.
    """
    sols = []
    for a, b, c, d in itertools.product(range(max_exp), repeat=4):
        if (1 << a) + (1 << d) == (1 << b) + (1 << c):
            if {a, d} != {b, c}:
                sols.append((a, b, c, d))
    return sols


def full_root_square_witness(A, model, k, budget=None):
    """Exact ``find_square_witness`` with every operand tried as b_1 on a
    Cayley group too (the search before the root was cut to element 0)."""
    from sumcore.witness import _anchor_side, _anchor_square_exists

    bud = Budget(budget)
    rel = Relation(A, model)
    domain = rel.domain
    if domain.bit_count() < k:
        return NotFound(exhaustive=True)
    if _anchor_side(A, rel) and _anchor_square_exists(A, k, Budget(budget)) is False:
        return NotFound(exhaustive=True)

    def children(node):
        """Increasing b's after the last chosen; pool = surviving C candidates."""
        bs, pool = node
        cand = domain
        if bs:
            cand = (cand >> (bs[-1] + 1)) << (bs[-1] + 1)
            cand &= rel.meeting(pool)
        for b in iter_bits(cand):
            if not bud.spend():
                return
            np_ = pool & rel.left(b)
            if np_.bit_count() >= k:
                yield bs + (b,), np_

    for bs, pool in preorder(((), domain), children):
        if len(bs) == k:
            return SquareWitness(bs, tuple(itertools.islice(iter_bits(pool), k)))
    return NotFound(exhaustive=not bud.exhausted)


def full_root_triangular_witness(A, model, m, budget=None):
    """Exact ``find_triangular_witness`` with every operand tried as b_1 on a
    Cayley group too (the search before the root was cut to element 0)."""
    from sumcore.witness import _anchor_side, _anchor_triangular_exists

    bud = Budget(budget)
    rel = Relation(A, model)
    domain = rel.domain
    if _anchor_side(A, rel) and _anchor_triangular_exists(A, m, Budget(budget)) is False:
        return NotFound(exhaustive=True)

    def children(node):
        """Distinct b's; pools[-1] = P of the b's so far, used = their mask."""
        bs, pools, used = node
        i = len(bs)
        prev = pools[-1] if pools else domain
        cand = domain & ~used
        if i > 0:
            cand &= rel.meeting(prev)
        for b in iter_bits(cand):
            if not bud.spend():
                return
            np_ = prev & rel.left(b)
            if np_.bit_count() >= m - i:
                yield bs + (b,), pools + (np_,), used | (1 << b)

    for bs, pools, _ in preorder(((), (), 0), children):
        if len(bs) == m:
            break
    else:
        return NotFound(exhaustive=not bud.exhausted)
    # Hall over the nested pools left: slack[t] = |P_t minus used| - (m - t)
    # stays >= 0, and taking c costs one slack on each P_t after j that holds
    # c, a prefix of them; so c_j is the least free c outside the first pool
    # with no slack (slack[m] = 0 stands for none).
    slack = [p.bit_count() - m + t for t, p in enumerate(pools)] + [0]
    cs, used = [], 0
    for j, pool in enumerate(pools):
        free = pool & ~used
        tight = slack.index(0, j + 1)
        ok = free & ~pools[tight] if tight < m else free
        c = (ok & -ok).bit_length() - 1
        # one node per free c up to the one taken, as a scan of them would
        if not bud.spend((free & ((2 << c) - 1)).bit_count()):
            return NotFound(exhaustive=False)
        held = bisect_left(pools, True, j + 1, m, key=lambda p: not p >> c & 1)
        slack[j + 1:held] = [s - 1 for s in slack[j + 1:held]]
        cs.append(c)
        used |= 1 << c
    return TriangularWitness(bs, tuple(cs))


def brute_is_associative(model):
    """(x·y)·z == x·(y·z) for every triple: n³ table reads."""
    t, n = model.table, model.order
    return all(t[t[x][y]][z] == t[x][t[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def random_latin_square(n, rng, loop=False):
    """A Latin square of order n filled cell by cell in row-major order,
    each cell trying the symbols its row and column leave in a random
    order and backtracking on a dead end.  With ``loop``, row 0 and
    column 0 are 0..n-1, so 0 is an identity: a loop, which passes Light's
    test at 0 whether or not it is associative."""
    table = [[None] * n for _ in range(n)]

    def fill(cell):
        if cell == n * n:
            return True
        i, j = divmod(cell, n)
        taken = set(table[i][:j]) | {table[r][j] for r in range(i)}
        options = [x for x in range(n) if x not in taken]
        rng.shuffle(options)
        if loop and 0 in (i, j):
            options = [i + j]
        for x in options:
            table[i][j] = x
            if fill(cell + 1):
                return True
        table[i][j] = None
        return False

    fill(0)
    return CayleyGroup(tuple(map(tuple, table)))


# --- the walks as they spent their own budget -----------------------------------
#
# Before ``search.preorder`` took the charges, each ``children`` generator
# spent the node budget itself and returned when a spend failed.  These are
# those bodies, kept verbatim under new names, so that tests can pin the
# walks' answers, spent counts and exhaustion at every budget.  The anchor
# square walk's closing bulk spend is unchecked here: after a refused
# charge it carried on with smaller ones.


def self_spending_max_ladder(A: DenseSet, model, k_max: int, budget=None) -> LadderResult:
    """Longest ladder of length <= k_max, with certificate.

    The walk tries one operand per twin class (``Relation.twins``): the
    largest b of each row class and the smallest c of each column class.
    Twins never share a ladder (rows i < j differ at column c_i, columns
    i < j at row b_j), and a twin's subtree mirrors its representative's,
    which the walk visits first, so without a budget k, the certificate
    and ``lower_bound_only`` are those of the walk over every operand;
    ``nodes`` counts only the representatives' nodes.

    With enough budget the returned k is exact (the whole search tree is
    exhausted); when the node budget runs out the best ladder found so
    far is returned with ``lower_bound_only`` set.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    bud = Budget(budget)
    rel = Relation(A, model)
    left_q, right_q = rel.left, rel.right
    rows, cols = rel.twins()
    # b's are tried descending and c's ascending: the representative of a
    # class is the member the walk tries first
    reps_b = from_mask(_first_of_each(rows[::-1])[::-1])
    reps_c = from_mask(_first_of_each(cols))

    def children(node):
        # pool_b: candidates for the next b (avoid A on all chosen c's);
        # pool_c: candidates for the next c (in A on all chosen b's).
        # No chosen element can recur: b_i lies in right(c_i), which
        # pool_b drops, and c_j lies outside left(b) for every later b.
        # b's are tried descending and c's ascending: ladders pair large
        # b's with small c's first, so greedy descent reaches deep
        # ladders on threshold-style sets without backtracking.
        bs, cs, pool_b, pool_c = node
        if cs:
            pool_b &= ~right_q(cs[-1])
        # a b whose row misses pool_c has no c to pair with; when pool_c is
        # much smaller than pool_b, skip such b's without trying them
        if 4 * pool_c.bit_count() < pool_b.bit_count():
            pool_b &= rel.meeting(pool_c)
        for b in iter_bits_desc(pool_b):
            if not bud.spend():
                return
            pool_next = pool_c & left_q(b)
            if not pool_next:
                continue
            for c in iter_bits(pool_next):
                if not bud.spend():
                    return
                yield bs + (b,), cs + (c,), pool_b, pool_next

    best = ((), ())
    for bs, cs, _, _ in preorder(((), (), reps_b, reps_c), children):
        if len(bs) > len(best[0]):
            best = bs, cs
            if len(bs) == k_max:
                break
    k = len(best[0])
    cert = LadderCertificate(*best) if k else None
    return LadderResult(k, cert, bud.exhausted and k < k_max, bud.spent)


def self_spending_anchor_square_exists(A: DenseSet, k: int, bud: Budget):
    """Whether a ZWindow set A holds a k x k square witness, decided from
    the members of A below 2L - 1: True or False, or None when ``bud``
    runs out first.

    Write C = c1 + D with D = {0 = d1 < d2 < ... < dk < L} and call
    a = b + c1 an *anchor*: every anchor lies in
    S(D) = {a in A : a + D inside A}.  Conversely k anchors
    a1 < ... < ak of S(D) give the witness b_i = a_i - c1 for any c1 in
    [max(0, ak - L + 1), min(a1, L - 1 - dk)], and that range is non-empty
    iff ak - a1 < L (ak + dk <= 2L - 2 holds because ak + dk is in A below
    2L - 1).  So a witness exists iff some D has k anchors within L - 1 of
    each other.  The walk grows D in increasing order; the next d is drawn
    from the differences x - a of members x and anchors a, one node per
    distinct d, and its anchors are the a's of those pairs.  A branch is
    cut when no k of its anchors fit one window: S only shrinks as D grows.
    """
    L = A.model.operand_bound
    members = np.flatnonzero(A.to_numpy()[:2 * L - 1])

    def fits(anchors):
        """Some k of the sorted anchors lie within L - 1 of each other."""
        n = len(anchors)
        return n >= k and bool((anchors[k - 1:] - anchors[:n - k + 1] < L).any())

    def children(node):
        """Every d in (last, L) with a + d in A for some anchor a costs one
        node; only the d's with k anchors are looked at, the rest are
        charged in bulk."""
        size, last, anchors = node
        diffs = members - anchors[:, None]
        ds, counts = np.unique(diffs[(diffs > last) & (diffs < L)], return_counts=True)
        tried = 0
        for i in np.flatnonzero(counts >= k).tolist():
            if not bud.spend(i + 1 - tried):
                return
            tried = i + 1
            d = int(ds[i])
            child = anchors[np.isin(anchors + d, members, assume_unique=True)]
            if fits(child):
                yield size + 1, d, child
        bud.spend(len(ds) - tried)

    if not fits(members):
        return False
    for size, _, _ in preorder((1, 0, members), children):
        if size == k:
            return True
    return None if bud.exhausted else False


def self_spending_anchor_triangular_exists(A: DenseSet, m: int, bud: Budget):
    """Whether a ZWindow set A holds a triangular witness of size m, decided
    from the members of A below 2L - 1: True or False, or None when ``bud``
    runs out first.

    Normalize by t = b1: u_i = b_i - t and v_j = c_j + t, so u_i + v_j =
    b_i + c_j, u1 = 0 and every v_j lies in A (row 1).  The walk chooses
    v_m, v_(m-1), ..., v1 as distinct members, one node per tried v, and
    keeps the nested pools Q_i = {u : u + v_j in A for all j >= i}, so
    Q1 ⊆ ... ⊆ Qm and 0 is in Q1.  Every c_j in [0, L) bounds t to
    [max v - L + 1, min v], and every b_i in [0, L) puts u_i in
    W_t = [-t, L - 1 - t].  By Hall's theorem over nested pools, distinct
    u_i in Q_i ∩ W_t with u1 = 0 exist iff |Q_j ∩ W_t| >= j for every j.
    Sliding W_t right until its left end meets a member of Qm loses no
    member of any pool, so the t's worth testing are the least one and
    -q for the q in Qm.  A branch is cut when no t passes for the levels
    chosen so far: pools only shrink and the t-range only narrows.
    """
    L = A.model.operand_bound
    members = np.flatnonzero(A.to_numpy()[:2 * L - 1]).tolist()
    in_A = set(members)

    def hall(pools, lo, hi):
        """Some t in [lo, hi] leaves |Q ∩ W_t| >= level on every pool."""
        top = pools[0]
        ts = [lo] + [-q for q in top[bisect_left(top, -hi):bisect_left(top, -lo)]]
        return any(all(bisect_right(p, L - 1 - t) - bisect_left(p, -t) >= m - j
                       for j, p in enumerate(pools)) for t in ts)

    def children(node):
        """Members v not chosen yet that keep the t-range non-empty."""
        vs, pools, lo, hi = node
        level = m - len(vs)
        for v in members[bisect_left(members, lo):bisect_right(members, hi + L - 1)]:
            if v in vs:
                continue
            if not bud.spend():
                return
            nlo, nhi = max(lo, v - L + 1), min(hi, v)
            # u in W_t for a t of the range: [-nhi, L - 1 - nlo] bounds each pool
            if pools:
                pool = [q for q in pools[-1] if q + v in in_A and -nhi <= q <= L - 1 - nlo]
            else:
                pool = [a - v for a in members if -nhi <= a - v <= L - 1 - nlo]
            if len(pool) >= level and hall(pools + (pool,), nlo, nhi):
                yield vs + (v,), pools + (pool,), nlo, nhi

    for vs, _, _, _ in preorder(((), (), 0, L - 1), children):
        if len(vs) == m:
            return True
    return None if bud.exhausted else False


def elementwise_bernoulli_mask(n, delta, seed):
    """Per-element reference for ``setspec._bernoulli_mask``: every
    splitmix64 step over one uint64 array of all n elements."""
    threshold = (delta.numerator << 64) // delta.denominator
    if threshold >= 1 << 64:
        return np.ones(n, dtype=bool)
    idx = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = np.uint64(seed & MASK64) + idx * np.uint64(GOLDEN)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
    return x < np.uint64(threshold)


def elementwise_bohr_mask(n, p, q, eps):
    """Per-element reference for ``setspec._bohr_mask``, one ``%`` per
    element: {x : min(r, q - r) * ed < en * q} with r = x*p mod q, exactly.

    int64 holds every intermediate when max(n, ed, en) * q < 2^62;
    otherwise the same expression runs on Python ints (dtype object).
    """
    en, ed = eps.numerator, eps.denominator
    dtype = np.int64 if max(n, ed, en) * q < 1 << 62 else object
    r = np.arange(n, dtype=dtype) * p % q
    return np.minimum(r, q - r) * ed < en * q


# --- the records as frozen dataclasses -------------------------------------------

# Every value class of sumcore (carriers, set-DSL nodes, witnesses and
# certificates) was a ``@dataclass(frozen=True)`` before ``model.Record``.


def dataclass_twin(cls):
    """The frozen dataclass that the record class ``cls`` was: its own
    annotations as fields, in order, with a class attribute of the same name
    as the default."""
    spec = [(name, kind, dataclasses.field(default=cls.__dict__[name]))
            if name in cls.__dict__ else (name, kind)
            for name, kind in cls.__dict__.get("__annotations__", {}).items()]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)
