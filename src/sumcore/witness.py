"""Productset witnesses: square, triangular, greedy, Ramsey, definable.

The central objects are

* ``SquareWitness``      B, C with every product b*c in A (|B| = |C| = k);
* ``TriangularWitness``  sequences with b_i*c_j in A for i <= j only;
* ``ramsey_upgrade``     a greedy pivot-walk that turns a triangular
  witness into either a square witness or an order-property ladder by
  extracting a color-homogeneous index set from the below-diagonal
  pairs, with the usual (1/2) log2 size guarantee;
* ``definable_witness_search``  witnesses drawn from parameterized
  arithmetic families (intervals / progressions) instead of arbitrary
  element sets.

Exact searches are canonical: the witness returned is lexicographically
least (B extended before C), so outcomes are reproducible.  The square
and triangular searches each give the children of a node (a tuple of
chosen operands with its candidate pools) to ``search.preorder``, the one
depth-first walk, and take its first complete node; the walk charges the
one node budget, ``search.Budget``.  On sparse ZWindow sets an anchor-side
walk over the members of A decides first whether any witness exists: over
the differences of A for squares (``_anchor_square_exists``), over the
shifts of A that hold the sums of row 1 for triangular witnesses
(``_anchor_triangular_exists``).  On a Cayley table that is a group,
both searches fix b_1 = 0 (``_roots``): a witness moved by g on the
left of C and g⁻¹ on the right of B keeps every product.
Searches and verifiers read b*c in A through one ``Relation``, built from
(A, model), so a set from another model raises ``ModelMismatch``; each
verifier ends in its one pattern check, ``Relation.certifies``, which
reads the grid row by row as bitsets; the Ramsey walk colours each pivot
with one AND of bitsets.  The greedy back-and-forth keeps the score of
every candidate: a pick subtracts the rows of the few operands that left
the opposite pool, or takes all scores afresh in one pass,
``Relation.overlaps``, when many left.  The definable search ANDs slices
of A's bool view, one pass per step pair.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import InvalidInput, ModelMismatch
from .ladder import LadderCertificate
from .model import CayleyGroup, DenseSet, Relation, ZWindow, bits_of, ints, iter_bits
# bench/tracing.py wraps ``sumcore.witness.quotient`` by name
from .model import quotient  # noqa: F401
from .search import Budget, preorder
from .setspec import splitmix_stream


@dataclass(frozen=True)
class SquareWitness:
    b: tuple
    c: tuple

    @property
    def k(self):
        return len(self.b)


@dataclass(frozen=True)
class TriangularWitness:
    b: tuple
    c: tuple

    @property
    def m(self):
        return len(self.b)


@dataclass(frozen=True)
class NotFound:
    exhaustive: bool


@dataclass(frozen=True)
class Stuck:
    """Greedy non-answer: the partial witness when a candidate pool emptied."""

    b: tuple
    c: tuple


@dataclass(frozen=True)
class FamilyDescriptor:
    start: int
    step: int
    length: int

    def elements(self):
        return tuple(self.start + i * self.step for i in range(self.length))


@dataclass(frozen=True)
class DefinableWitness:
    family: str  # "intervals" or "aps"
    theta1: FamilyDescriptor
    theta2: FamilyDescriptor

    @property
    def set1(self):
        return self.theta1.elements()

    @property
    def set2(self):
        return self.theta2.elements()


@dataclass(frozen=True)
class UpgradeResult:
    tag: str        # "square" or "ladder"
    indices: tuple  # homogeneous index set I (0-based positions into tri)
    square: object  # SquareWitness when tag == "square"
    ladder: object  # LadderCertificate when tag == "ladder"


# --- square witnesses ---------------------------------------------------------

# the square and triangular searches ask the anchor side first on a ZWindow
# with at most this many members below 2L - 1 (measured; see the README's
# performance notes)
_ANCHOR_LIMIT = 256


def _anchor_side(A: DenseSet, rel: Relation):
    """A lives on a ZWindow and has at most ``_ANCHOR_LIMIT`` members below
    2L - 1, where every product of two operands lies.  Cayley tables take
    the search alone, with its root cut by ``_roots`` on a group."""
    return isinstance(A.model, ZWindow) \
        and (A.bits & ((1 << (2 * rel.bound - 1)) - 1)).bit_count() <= _ANCHOR_LIMIT


def _roots(A: DenseSet):
    """The bitset of the b_1's the exact searches try: element 0 alone on a
    Cayley table that is a group, else every operand.

    On a group, (x, y) -> (x·g⁻¹, g·y) keeps every product x·y, so
    g = 0⁻¹·b_1 moves any witness to one with b_1 = 0.  The depth-first
    walk tries b_1 = 0 first, so the witness it finds there is the one
    the full root finds, and an empty 0 branch means no witness at all.
    A Latin square that is not associative keeps every root."""
    model = A.model
    return 1 if isinstance(model, CayleyGroup) and model.is_group else model.operand_mask


def _anchor_square_exists(A: DenseSet, k: int, bud: Budget):
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
            yield i + 1 - tried
            tried = i + 1
            d = int(ds[i])
            child = anchors[np.isin(anchors + d, members, assume_unique=True)]
            if fits(child):
                yield size + 1, d, child
        yield len(ds) - tried

    if not fits(members):
        return False
    for size, _, _ in preorder((1, 0, members), children, bud):
        if size == k:
            return True
    return None if bud.exhausted else False


def _anchor_triangular_exists(A: DenseSet, m: int, bud: Budget):
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
            yield None
            nlo, nhi = max(lo, v - L + 1), min(hi, v)
            # u in W_t for a t of the range: [-nhi, L - 1 - nlo] bounds each pool
            if pools:
                pool = [q for q in pools[-1] if q + v in in_A and -nhi <= q <= L - 1 - nlo]
            else:
                pool = [a - v for a in members if -nhi <= a - v <= L - 1 - nlo]
            if len(pool) >= level and hall(pools + (pool,), nlo, nhi):
                yield vs + (v,), pools + (pool,), nlo, nhi

    for vs, _, _, _ in preorder(((), (), 0, L - 1), children, bud):
        if len(vs) == m:
            return True
    return None if bud.exhausted else False


def find_square_witness(A: DenseSet, model, k: int, mode="exact", budget=None):
    """Search for B, C of size k with B*C inside A.

    Exact mode extends B one element at a time in increasing order,
    maintaining the surviving candidate pool for C as the intersection
    of left quotients; it prunes as soon as the pool drops below k.  The
    first complete B is lexicographically least, and C is then the k
    smallest pool elements.  With sufficient budget the outcome is a
    witness or ``NotFound(exhaustive=True)``.

    On a ZWindow with at most ``_ANCHOR_LIMIT`` members below 2L - 1,
    exact mode first asks the anchor side (``_anchor_square_exists``),
    whose cost grows with those members instead of with L.  Its "none" is
    the answer, ``NotFound(exhaustive=True)``; on "exists", or when it
    runs out of budget, the search above runs under a budget of its own,
    so every other answer, the lex-least witness included, is the one
    the search alone gives.  Cayley tables take the search alone; on a
    group (``CayleyGroup.is_group``) its root tries b_1 = 0 only
    (``_roots``), which gives the same witness and turns a refutation
    that ran out of budget in the other roots into an exhaustive one.

    Heuristic mode delegates to the greedy back-and-forth construction
    and never claims exhaustiveness.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    bud = Budget(budget)  # checked in every mode, spent by the exact one
    if mode == "heuristic":
        res = greedy_back_and_forth(A, model, k)
        if isinstance(res, SquareWitness):
            return res
        return NotFound(exhaustive=False)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")

    rel = Relation(A, model)
    domain = rel.domain
    if domain.bit_count() < k:
        return NotFound(exhaustive=True)
    if _anchor_side(A, rel) and _anchor_square_exists(A, k, Budget(budget)) is False:
        return NotFound(exhaustive=True)

    root = _roots(A)

    def children(node):
        """Increasing b's after the last chosen; pool = surviving C candidates."""
        bs, pool = node
        cand = root
        if bs:
            cand = (domain >> (bs[-1] + 1)) << (bs[-1] + 1)
            cand &= rel.meeting(pool)
        for b in iter_bits(cand):
            yield None
            np_ = pool & rel.left(b)
            if np_.bit_count() >= k:
                yield bs + (b,), np_

    for bs, pool in preorder(((), domain), children, bud):
        if len(bs) == k:
            return SquareWitness(bs, tuple(islice(iter_bits(pool), k)))
    return NotFound(exhaustive=not bud.exhausted)


def verify_square_witness(w: SquareWitness, A: DenseSet, model) -> bool:
    """Every product b*c in A: the whole k x k grid is true."""
    return Relation(A, model).certifies(w.b, w.c, "square")


# --- triangular witnesses -----------------------------------------------------


def find_triangular_witness(A: DenseSet, model, m: int, scorer=None, budget=None,
                            seed=0):
    """Witness with b_i * c_j in A for all i <= j (nothing below diagonal).

    With ``scorer`` set, delegates to the scorer-guided greedy (a square
    witness is a fortiori triangular; Stuck maps to a non-exhaustive
    NotFound; ``seed`` drives the ``random`` scorer).  Otherwise runs an
    exact backtracking search: the b's are chosen first, tracking the
    nested pools P_j = ∩_{i<=j} {c : b_i*c in A}; by a Hall argument over
    nested pools, distinct c's exist iff |P_j| >= m - j for every j.  The
    b-phase keeps that condition, so the c's are then assigned directly,
    each the least one that keeps it: only the budget stops that.

    On a ZWindow with at most ``_ANCHOR_LIMIT`` members below 2L - 1, the
    exact search first asks the anchor side (``_anchor_triangular_exists``),
    whose cost grows with those members instead of with L.  Its "none" is
    the answer, ``NotFound(exhaustive=True)``; on "exists", or when it runs
    out of budget, the search above runs under a budget of its own, so
    every other answer, the witness included, is the one the search alone
    gives.  Cayley tables take the search alone; on a group its root tries
    b_1 = 0 only (``_roots``), as the square search's does.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    bud = Budget(budget)  # checked with a scorer too, spent by the exact search
    if scorer is not None:
        res = greedy_back_and_forth(A, model, m, scorer=scorer, seed=seed)
        if isinstance(res, SquareWitness):
            return TriangularWitness(res.b, res.c)
        return NotFound(exhaustive=False)

    rel = Relation(A, model)
    domain = rel.domain
    if _anchor_side(A, rel) and _anchor_triangular_exists(A, m, Budget(budget)) is False:
        return NotFound(exhaustive=True)

    root = _roots(A)

    def children(node):
        """Distinct b's; pools[-1] = P of the b's so far, used = their mask."""
        bs, pools, used = node
        i = len(bs)
        prev = pools[-1] if pools else domain
        cand = root
        if i > 0:
            cand = domain & ~used & rel.meeting(prev)
        for b in iter_bits(cand):
            yield None
            np_ = prev & rel.left(b)
            if np_.bit_count() >= m - i:
                yield bs + (b,), pools + (np_,), used | (1 << b)

    for bs, pools, _ in preorder(((), (), 0), children, bud):
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


def verify_triangular_witness(w: TriangularWitness, A: DenseSet, model) -> bool:
    """b_i*c_j in A for i <= j: the grid is true on and above the diagonal."""
    return Relation(A, model).certifies(w.b, w.c, "upper")


# --- greedy back-and-forth ----------------------------------------------------


def greedy_back_and_forth(A: DenseSet, model, k: int, scorer="pool_size", seed=0):
    """Alternating greedy construction of a square witness.

    The b-pool is the intersection of right quotients of the chosen c's,
    the c-pool the intersection of left quotients of the chosen b's
    (each minus already-chosen elements).  The scorer replaces the
    selection rule of the underlying existence proof, which offers no
    effective choice:

    * ``pool_size``        pick the element keeping the opposite pool largest;
    * ``density_weighted`` like pool_size but count only pool members in A;
    * ``random``           uniform pick from the current pool (seeded).

    Ties break toward the smallest element.  Returns ``Stuck`` with the
    partial witness when a pool empties; Stuck does NOT imply that no
    witness exists.  The picks do not depend on k, so a run for k starts
    with the picks of every shorter run.

    Pools are bool arrays over the operands, and a scored pick takes the
    first best member of the pool.  Each side keeps the scores of every
    operand and the opposite pool they count.  Pools only shrink, so when
    at most ``_delta_rows(L)`` members have left that pool since, the
    pick subtracts their rows (``Relation.row`` of the other side) from
    the scores; otherwise it takes them afresh from ``Relation.overlaps``
    (one correlation on a ZWindow, or window counts while the pool holds
    every operand; one matrix-vector product on a Cayley group).  Both
    are exact integer counts, so the picks are those of a fresh count.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if scorer not in ("pool_size", "density_weighted", "random"):
        raise ValueError(f"unknown scorer {scorer!r}")
    rel = Relation(A, model)
    rng = splitmix_stream(seed) if scorer == "random" else None
    counted = A.to_numpy()[:rel.bound] if scorer == "density_weighted" else True
    cut = _delta_rows(rel.bound)
    # per side: the scores (None until first asked) and the pool they count
    held = dict.fromkeys(("left", "right"), (None, np.ones(rel.bound, dtype=bool) & counted))

    def pick(pool, opposite, side):
        idx = np.flatnonzero(pool)
        if rng is not None:
            return int(idx[next(rng) % idx.size])
        scores, then = held[side]
        now = opposite & counted
        gone = np.flatnonzero(then ^ now)  # pools only shrink: now ⊆ then
        if gone.size > cut:
            scores = rel.overlaps(now, side)
        else:
            if scores is None:
                scores = rel.overlaps(then, side)
            # at most 255 rows: their uint8 sum cannot wrap
            drop = np.zeros(rel.bound, dtype=np.uint8)
            other = "right" if side == "left" else "left"
            for x in gone.tolist():
                drop += rel.row(x, other).view(np.uint8)
            scores -= drop
        held[side] = scores, now
        # argmax keeps the first best: ties go to the smallest element
        return int(idx[scores[idx].argmax()])

    bs, cs = [], []
    pool_b = np.ones(rel.bound, dtype=bool)
    pool_c = pool_b.copy()
    for _ in range(k):
        if not pool_b.any():
            return Stuck(tuple(bs), tuple(cs))
        b = pick(pool_b, pool_c, "left")
        bs.append(b)
        pool_b[b] = False
        pool_c &= rel.row(b, "left")

        if not pool_c.any():
            return Stuck(tuple(bs), tuple(cs))
        c = pick(pool_c, pool_b, "right")
        cs.append(c)
        pool_c[c] = False
        pool_b &= rel.row(c, "right")
    return SquareWitness(tuple(bs), tuple(cs))


def _delta_rows(L):
    """The most leavers whose rows a greedy pick subtracts instead of taking
    ``Relation.overlaps`` afresh, over L operands: 16 + L/32, near the
    measured break-evens (README, performance notes), and at most 255, so
    that the uint8 sum of the rows cannot wrap."""
    return min(255, 16 + L // 32)


# --- Ramsey upgrade -----------------------------------------------------------


def ramsey_upgrade(tri: TriangularWitness, A: DenseSet, model) -> UpgradeResult:
    """Extract a homogeneous index set from the below-diagonal coloring.

    Pairs i > j are 2-colored by whether b_i * c_j lands in A.  A pivot
    walk builds a chain: the smallest remaining index becomes a pivot
    labelled with the majority color of the pairs it forms with the rest,
    and the walk recurses into that majority class.  Chain elements of
    the majority label (plus the final unlabelled pivot) form the
    homogeneous set I, of size at least floor(log2(m)/2).  The remaining
    b's (distinct in a verified input) are one bitset: pivot p's "in A"
    class is that set without b_p, ANDed with ``right(c_p)``.

    Homogeneous color "in A" gives a full square witness on I (pairs on
    or above the diagonal are already in A); color "not in A" gives an
    order-property ladder restricted to I.
    """
    if not verify_triangular_witness(tri, A, model):
        raise InvalidInput("input does not verify as a triangular witness")
    bs, cs = ints(tri.b), ints(tri.c)  # gated by the check above

    chain = ([], [])  # the pivots labelled "not in A" and "in A"
    rest, size = bits_of(bs), len(bs)  # the remaining b's and their number
    # every product b + c the walk reads lies below max(bs) + max(cs) + 1
    right = Relation(A, model).reach(rest.bit_length() + max(cs), "right")
    for p, (b, c) in enumerate(zip(bs, cs)):
        if size > 1 and rest >> b & 1:  # the least remaining index: a pivot
            others = rest ^ (1 << b)
            hot = others & right(c)
            hot_size = hot.bit_count()
            label = 2 * hot_size >= size - 1
            chain[label].append(p)
            rest, size = (hot, hot_size) if label else (others ^ hot, size - 1 - hot_size)

    # the majority label's pivots plus the final, unlabelled one
    take_hot = len(chain[True]) >= len(chain[False])
    indices = tuple(sorted(chain[take_hot] + [bs.index(rest.bit_length() - 1)]))

    bs = tuple(tri.b[i] for i in indices)
    cs = tuple(tri.c[i] for i in indices)
    if take_hot:
        return UpgradeResult("square", indices, SquareWitness(bs, cs), None)
    return UpgradeResult("ladder", indices, None, LadderCertificate(bs, cs))


def verify_upgrade(res: UpgradeResult, A: DenseSet, model) -> bool:
    """The certificate the tag names verifies and ``indices`` is a strictly
    increasing tuple of non-negative integers, one per operand pair; False
    when the tag's field holds no certificate of its kind."""
    # looked up per call: bench/tracing.py wraps ``ladder.verify_ladder``
    # on its module, which a name bound at import time would bypass
    from .ladder import verify_ladder

    if res.tag == "square" and isinstance(res.square, SquareWitness):
        cert, verify = res.square, verify_square_witness
    elif res.tag == "ladder" and isinstance(res.ladder, LadderCertificate):
        cert, verify = res.ladder, verify_ladder
    else:
        return False
    indices = ints(res.indices) if isinstance(res.indices, tuple) else None
    if indices is None or len(indices) != len(ints(cert.b) or ()):
        return False
    increasing = all(i < j for i, j in zip([-1] + indices, indices))  # and non-negative
    return increasing and verify(cert, A, model)


# --- definable witnesses --------------------------------------------------------


def definable_witness_search(A: DenseSet, model, family, n: int,
                             budget=None, step_max=None):
    """Witness search restricted to arithmetic families.

    ``family`` is ``"intervals"`` (contiguous runs) or ``"aps"``
    (arithmetic progressions with step up to ``step_max``).  Both sides
    use length exactly n; the witness is the first in canonical order
    (step1, start1, step2, start2).  Only ZWindow models are supported.

    With a = A's bools below 2L − 1, G[t] = AND over i < n of a[t + i·d1]
    and T[t] = AND over j < n of G[t + j·d2]; (s1, s2) is a witness iff
    T[s1 + s2] and both progressions lie in [0, L).  The budget charges
    one node per G (per d1) and one per T (per (d1, d2)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not isinstance(model, ZWindow):
        raise ModelMismatch("definable families require a ZWindow model")
    if family == "intervals":
        if step_max is not None:
            raise ValueError("step_max applies to family 'aps' only")
        step_max = 1
    elif family == "aps":
        if step_max is None:
            step_max = 64
        if step_max < 1:
            raise ValueError(f"step_max must be >= 1, got {step_max}")
    else:
        raise ValueError(f"unknown family {family!r}")

    bud = Budget(budget)
    L = Relation(A, model).bound
    # the steps whose progressions fit in [0, L); with n = 1 all give the same sets
    steps = range(1, min(step_max, (L - 1) // (n - 1) if n > 1 else 1) + 1)
    a = A.to_numpy()[:2 * L - 1]  # every sum of two operands; M >= 2L
    for d1 in steps:
        if not bud.spend():
            return NotFound(exhaustive=False)
        G = _and_of_shifts(a, d1, n)
        if not G.any():
            continue
        hits = []  # (s1, d2, s2): canonical is the least s1, then d2
        for d2 in steps:
            if not bud.spend():
                return NotFound(exhaustive=False)
            T = _and_of_shifts(G, d2, n)
            t = int(T.argmax())  # the least s1 + s2; t < len(T) keeps s1 in range
            if T[t]:
                s1 = max(0, t - (L - 1 - (n - 1) * d2))  # s2 <= L - 1 - (n - 1)·d2
                hits.append((s1, d2, t - s1))
                if s1 == 0:
                    break
        if hits:
            s1, d2, s2 = min(hits)
            return DefinableWitness(family, FamilyDescriptor(s1, d1, n),
                                    FamilyDescriptor(s2, d2, n))
    return NotFound(exhaustive=True)


def _and_of_shifts(x, d, n):
    """out[t] = x[t] & x[t + d] & … & x[t + (n − 1)·d] wherever all exist."""
    out = x[:len(x) - (n - 1) * d].copy()
    for i in range(1, n):
        out &= x[i * d:i * d + len(out)]
    return out


def verify_definable_witness(w: DefinableWitness, A: DenseSet, model) -> bool:
    if not isinstance(model, ZWindow):
        raise ModelMismatch("definable witnesses live over ZWindow models")
    rel = Relation(A, model)
    if w.family not in ("intervals", "aps"):
        return False
    for t in (w.theta1, w.theta2):
        fields = ints((t.start, t.step, t.length)) if isinstance(t, FamilyDescriptor) else None
        if fields is None:
            return False
        start, step, length = fields
        # operands lie in [0, L); intervals are progressions of step 1
        if length < 1 or step < 1 or (w.family == "intervals" and step != 1):
            return False
        if start < 0 or start + (length - 1) * step >= rel.bound:
            return False
    return rel.certifies(w.set1, w.set2, "all")


# --- growth curve ---------------------------------------------------------------


@dataclass(frozen=True)
class GrowthPoint:
    k: int
    found: bool
    witness: object  # SquareWitness or None
    exhaustive: bool


def growth_curve(A: DenseSet, model, k_max: int, mode="exact", budget=None):
    """find_square_witness at each k = 1..k_max.

    The found-column is monotone: any witness at k restricts to one at
    every smaller k, so after the first exhaustive NotFound the
    remaining entries are filled without searching.  In heuristic mode
    the greedy runs once, for k_max: its picks do not depend on k, so its
    witness at k is its first k pairs, and every k past a ``Stuck`` is a
    non-exhaustive miss.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if mode == "heuristic":
        Budget(budget)  # checked as find_square_witness checks it
        res = greedy_back_and_forth(A, model, k_max)
        return [GrowthPoint(k, True, SquareWitness(res.b[:k], res.c[:k]), True)
                if k <= len(res.c) else GrowthPoint(k, False, None, False)
                for k in range(1, k_max + 1)]
    out = []
    dead = False
    for k in range(1, k_max + 1):
        if dead:
            out.append(GrowthPoint(k, False, None, True))
            continue
        res = find_square_witness(A, model, k, mode=mode, budget=budget)
        if isinstance(res, SquareWitness):
            out.append(GrowthPoint(k, True, res, True))
        else:
            out.append(GrowthPoint(k, False, None, res.exhaustive))
            if res.exhaustive:
                dead = True
    return out
