"""Finite order-property ladders for the relation b*c in A.

A *ladder* of length k is a pair of sequences (b_1..b_k), (c_1..c_k) of
operand elements, distinct within each sequence, such that

    b_i * c_j in A   iff   i <= j        (full iff-pattern)

The longest ladder length measures how far A is from being stable for
this relation; k <= 1 for highly structured sets (unions of cosets),
while threshold-style sets carry ladders as long as the window allows.

Search is one depth-first walk (``search.preorder``) over alternating
b/c choices, one operand per twin class of the relation, with bitset
candidate propagation, spending the shared node budget
(``search.Budget``) per candidate; it keeps the longest ladder seen.
Depth is bounded by memory, not by the recursion limit.  Finding
maximum ladders embeds half-graphs, which is hard in general, so
exactness is promised only when the search exhausts its tree within
budget.
"""

from dataclasses import dataclass

import numpy as np

from .model import DenseSet, Relation, from_mask, iter_bits, iter_bits_desc
from .search import Budget, preorder
# bench/tracing.py wraps ``sumcore.ladder.quotient`` by name
from .model import quotient  # noqa: F401


@dataclass(frozen=True)
class LadderCertificate:
    b: tuple
    c: tuple

    @property
    def k(self):
        return len(self.b)


@dataclass(frozen=True)
class LadderResult:
    k: int
    certificate: object  # LadderCertificate or None (k = 0)
    lower_bound_only: bool
    nodes: int


def _first_of_each(labels):
    """Bool mask of the first index of each distinct label."""
    mask = np.zeros(len(labels), dtype=bool)
    mask[np.unique(labels, return_index=True)[1]] = True
    return mask


def max_ladder(A: DenseSet, model, k_max: int, budget=None) -> LadderResult:
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


def verify_ladder(cert: LadderCertificate, A: DenseSet, model) -> bool:
    """Recheck the full k x k iff-pattern: the grid is true exactly on and
    above the diagonal."""
    return Relation(A, model).certifies(cert.b, cert.c, "ladder")
