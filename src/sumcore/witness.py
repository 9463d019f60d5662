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
depth-first walk, and take its first complete node; both spend the one
node budget, ``search.Budget``.  On sparse ZWindow sets an anchor-side
walk over the differences of A decides first whether any square witness
exists (``_anchor_square_exists``).
Searches and verifiers read b*c in A through one ``Relation``; only the
definable search, which runs on ZWindows alone, inlines its shifts.
"""

import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import InvalidInput, ModelMismatch
from .ladder import LadderCertificate
from .model import DenseSet, Relation, ZWindow, iter_bits
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

# find_square_witness asks the anchor side first on a ZWindow with at most
# this many members below 2L - 1 (measured; see the README's performance notes)
_ANCHOR_LIMIT = 256


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
    the search alone gives.  Cayley groups always take the search alone.

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

    rel = Relation(A)
    domain = rel.domain
    if domain.bit_count() < k:
        return NotFound(exhaustive=True)
    if isinstance(model, ZWindow) \
            and (A.bits & ((1 << (2 * rel.bound - 1)) - 1)).bit_count() <= _ANCHOR_LIMIT \
            and _anchor_square_exists(A, k, Budget(budget)) is False:
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
            return SquareWitness(bs, tuple(islice(iter_bits(pool), k)))
    return NotFound(exhaustive=not bud.exhausted)


def verify_square_witness(w: SquareWitness, A: DenseSet, model) -> bool:
    """Every product b*c in A: the whole grid is true."""
    if A.model != model:
        raise ModelMismatch("set and model disagree")
    rel = Relation(A)
    ops = rel.operands(w.b, w.c)
    return ops is not None and len(w.b) == len(w.c) and bool(rel.grid(*ops).all())


# --- triangular witnesses -----------------------------------------------------


def find_triangular_witness(A: DenseSet, model, m: int, scorer=None, budget=None,
                            seed=0):
    """Witness with b_i * c_j in A for all i <= j (nothing below diagonal).

    With ``scorer`` set, delegates to the scorer-guided greedy (a square
    witness is a fortiori triangular; Stuck maps to a non-exhaustive
    NotFound; ``seed`` drives the ``random`` scorer).  Otherwise runs an
    exact backtracking search: the b's are chosen first, tracking the
    nested pools P_j = ∩_{i<=j} {c : b_i*c in A}; by a Hall argument over
    nested pools, distinct c's exist iff |P_j| >= m - j for every j, so
    the c-phase rarely backtracks.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    bud = Budget(budget)  # checked with a scorer too, spent by the exact search
    if scorer is not None:
        res = greedy_back_and_forth(A, model, m, scorer=scorer, seed=seed)
        if isinstance(res, SquareWitness):
            return TriangularWitness(res.b, res.c)
        return NotFound(exhaustive=False)

    rel = Relation(A)
    domain = rel.domain

    def children(node):
        """All m b's first, then the c's; used_b, used_c = chosen masks;
        in the c-phase, slack[t] = |P_t minus used_c| - (m - t)."""
        bs, pools, used_b, cs, used_c, slack = node
        i, j = len(bs), len(cs)
        if i < m:
            prev = pools[-1] if pools else domain
            cand = domain & ~used_b
            if i > 0:
                cand &= rel.meeting(prev)
            for b in iter_bits(cand):
                if not bud.spend():
                    return
                np_ = prev & rel.left(b)
                if np_.bit_count() >= m - i:
                    yield bs + (b,), pools + (np_,), used_b | (1 << b), cs, used_c, None
            return
        if j == 0:  # the b-phase kept every |P_t| >= m - t; slack[m] = 0 ends scans
            slack = tuple(p.bit_count() - m + t for t, p in enumerate(pools)) + (0,)
        # Hall feasibility over the remaining nested pools: every slack of
        # this node is >= 0, and taking c costs one slack on each P_t that
        # holds c, a prefix of the pools after j.  A child with a negative
        # slack is never yielded: it would have no children.
        tight = slack.index(0, j + 1)
        first_tight = pools[tight] if tight < m else 0
        for c in iter_bits(pools[j] & ~used_c):
            if not bud.spend():
                return
            if first_tight >> c & 1:
                continue
            held = bisect_left(pools, True, j + 1, m, key=lambda p: not p >> c & 1)
            child = slack[:j + 1] + tuple(s - 1 for s in slack[j + 1:held]) + slack[held:]
            yield bs, pools, used_b, cs + (c,), used_c | (1 << c), child

    for bs, _, _, cs, _, _ in preorder(((), (), 0, (), 0, None), children):
        if len(cs) == m:
            return TriangularWitness(bs, cs)
    return NotFound(exhaustive=not bud.exhausted)


def verify_triangular_witness(w: TriangularWitness, A: DenseSet, model) -> bool:
    """b_i*c_j in A for i <= j: the grid is true on and above the diagonal."""
    if A.model != model:
        raise ModelMismatch("set and model disagree")
    rel = Relation(A)
    ops = rel.operands(w.b, w.c)
    if ops is None or len(w.b) != len(w.c):
        return False
    grid = rel.grid(*ops)
    grid |= np.tri(len(w.b), k=-1, dtype=bool)
    return bool(grid.all())


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
    witness exists.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rel = Relation(A)
    domain = rel.domain
    rng = splitmix_stream(seed) if scorer == "random" else None

    def pick(pool, opposite, quot):
        if scorer == "random":
            size = pool.bit_count()
            r = next(rng) % size
            for i, g in enumerate(iter_bits(pool)):
                if i == r:
                    return g
        best_g, best_score = -1, -1
        for g in iter_bits(pool):
            surviving = opposite & quot(g)
            if scorer == "pool_size":
                score = surviving.bit_count()
            elif scorer == "density_weighted":
                score = (surviving & A.bits).bit_count()
            else:
                raise ValueError(f"unknown scorer {scorer!r}")
            if score > best_score:
                best_g, best_score = g, score
        return best_g

    bs, cs = [], []
    pool_b, pool_c = domain, domain
    used_b, used_c = 0, 0
    for _ in range(k):
        avail_b = pool_b & ~used_b
        if not avail_b:
            return Stuck(tuple(bs), tuple(cs))
        b = pick(avail_b, pool_c & ~used_c, rel.left)
        bs.append(b)
        used_b |= 1 << b
        pool_c &= rel.left(b)

        avail_c = pool_c & ~used_c
        if not avail_c:
            return Stuck(tuple(bs), tuple(cs))
        c = pick(avail_c, pool_b & ~used_b, rel.right)
        cs.append(c)
        used_c |= 1 << c
        pool_b &= rel.right(c)
    return SquareWitness(tuple(bs), tuple(cs))


# --- Ramsey upgrade -----------------------------------------------------------


def ramsey_upgrade(tri: TriangularWitness, A: DenseSet, model) -> UpgradeResult:
    """Extract a homogeneous index set from the below-diagonal coloring.

    Pairs i > j are 2-colored by whether b_i * c_j lands in A.  A pivot
    walk builds a chain: the smallest remaining index becomes a pivot
    labelled with the majority color of the pairs it forms with the rest,
    and the walk recurses into that majority class.  Chain elements of
    the majority label (plus the final unlabelled pivot) form the
    homogeneous set I, of size at least floor(log2(m)/2).

    Homogeneous color "in A" gives a full square witness on I (pairs on
    or above the diagonal are already in A); color "not in A" gives an
    order-property ladder restricted to I.
    """
    if not verify_triangular_witness(tri, A, model):
        raise InvalidInput("input does not verify as a triangular witness")
    rel = Relation(A)
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


def verify_upgrade(res: UpgradeResult, A: DenseSet, model) -> bool:
    from .ladder import verify_ladder

    if res.tag == "square":
        return verify_square_witness(res.square, A, model)
    if res.tag == "ladder":
        return verify_ladder(res.ladder, A, model)
    return False


# --- definable witnesses --------------------------------------------------------


def definable_witness_search(A: DenseSet, model, family, n: int,
                             budget=None, step_max=None):
    """Witness search restricted to arithmetic families.

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
        steps = list(range(1, step_max + 1))
    else:
        raise ValueError(f"unknown family {family!r}")

    bud = Budget(budget)
    rel = Relation(A)
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


def verify_definable_witness(w: DefinableWitness, A: DenseSet, model) -> bool:
    if not isinstance(model, ZWindow) or A.model != model:
        raise ModelMismatch("definable witnesses live over ZWindow models")
    t1, t2 = w.theta1, w.theta2
    if w.family not in ("intervals", "aps"):
        return False
    rel = Relation(A)
    for t in (t1, t2):
        try:
            start, step, length = map(operator.index, (t.start, t.step, t.length))
        except TypeError:
            return False
        # operands lie in [0, L); intervals are progressions of step 1
        if length < 1 or step < 1 or (w.family == "intervals" and step != 1):
            return False
        if start < 0 or start + (length - 1) * step >= rel.bound:
            return False
    ops = rel.operands(t1.elements(), t2.elements())
    return ops is not None and bool(rel.grid(*ops).all())


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
    remaining entries are filled without searching.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
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
