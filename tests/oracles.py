"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive: plain enumeration with no bitset
tricks, no pruning beyond feasibility, so that agreement with the
library is meaningful.  Oracles are only run at small scale.
"""

import itertools


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


def brute_cover(cert, A, model):
    """Verdict on a CoverCertificate: every core element e lies in g*A for
    the translate g its witness index names, i.e. e = g*a for a member a."""
    lo, hi = cert.core
    if not all(isinstance(x, int) for x in (lo, hi, *cert.translates, *cert.witness_index)):
        return False
    if not (0 <= lo < hi <= model.carrier_size):
        return False
    if len(cert.witness_index) != hi - lo:
        return False
    # on a Cayley group every translate is a group element
    if hasattr(model, "table") and not all(is_operand(model, g) for g in cert.translates):
        return False
    members = A.members()
    for e, idx in zip(range(lo, hi), cert.witness_index):
        if not 0 <= idx < len(cert.translates):
            return False
        g = cert.translates[idx]
        if not any(model.op(g, a) == e for a in members):
            return False
    return True


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
