"""Finite order-property ladders for the relation b*c in A.

A *ladder* of length k is a pair of sequences (b_1..b_k), (c_1..c_k) of
operand elements, distinct within each sequence, such that

    b_i * c_j in A   iff   i <= j        (full iff-pattern)

The longest ladder length measures how far A is from being stable for
this relation; k <= 1 for highly structured sets (unions of cosets),
while threshold-style sets carry ladders as long as the window allows.

Search is depth-first over alternating b/c choices with bitset candidate
propagation and a node budget.  Finding maximum ladders embeds
half-graphs, which is hard in general, so exactness is promised only
when the search exhausts its tree within budget.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ModelMismatch
from .model import DenseSet, Relation, iter_bits, iter_bits_desc
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


class _Budget:
    """Node budget of an exact search; ``spent`` counts the nodes granted."""

    __slots__ = ("left", "exhausted", "spent")

    def __init__(self, limit):
        self.left = limit  # None = unlimited
        self.exhausted = False
        self.spent = 0

    def spend(self):
        if self.left is not None:
            if self.left <= 0:
                self.exhausted = True
                return False
            self.left -= 1
        self.spent += 1
        return True


def max_ladder(A: DenseSet, model, k_max: int, budget=None) -> LadderResult:
    """Longest ladder of length <= k_max, with certificate.

    With enough budget the returned k is exact (the whole search tree is
    exhausted); when the node budget runs out the best ladder found so
    far is returned with ``lower_bound_only`` set.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    bud = _Budget(budget)
    rel = Relation(A)
    domain, left_q, right_q = rel.domain, rel.left, rel.right

    best = {"k": 0, "cert": None}

    def record(bs, cs):
        if len(bs) > best["k"]:
            best["k"] = len(bs)
            best["cert"] = LadderCertificate(tuple(bs), tuple(cs))

    def extend(bs, cs, pool_b, pool_c, used_b, used_c):
        # pool_b: candidates for the next b (avoid A on all chosen c's)
        # pool_c after adding the next b: must contain a fresh c.
        # b's are tried descending and c's ascending: ladders pair large
        # b's with small c's first, so greedy descent reaches deep
        # ladders on threshold-style sets without backtracking.
        if len(bs) == k_max:
            return
        for b in iter_bits_desc(pool_b & ~used_b):
            if not bud.spend():
                return
            pool_next = pool_c & left_q(b)
            pc = pool_next & ~used_c
            if not pc:
                continue
            for c in iter_bits(pc):
                if not bud.spend():
                    return
                bs.append(b)
                cs.append(c)
                record(bs, cs)
                if best["k"] == k_max:
                    return
                extend(
                    bs, cs,
                    pool_b & ~right_q(c),
                    pool_next,
                    used_b | (1 << b),
                    used_c | (1 << c),
                )
                bs.pop()
                cs.pop()
                if best["k"] == k_max or bud.exhausted:
                    return

    extend([], [], domain, domain, 0, 0)
    exact_incomplete = bud.exhausted and best["k"] < k_max
    return LadderResult(best["k"], best["cert"], exact_incomplete, bud.spent)


def verify_ladder(cert: LadderCertificate, A: DenseSet, model) -> bool:
    """Recheck the full k x k iff-pattern: the grid is true exactly on and
    above the diagonal."""
    if A.model != model:
        raise ModelMismatch("set and model disagree")
    n = model.carrier_size
    if any(not (0 <= x < n) for x in cert.b + cert.c):
        raise ModelMismatch("certificate element outside the carrier")
    rel = Relation(A)
    ops = rel.operands(cert.b, cert.c)
    k = len(cert.b)
    if ops is None or len(cert.c) != k:
        return False
    return bool((rel.grid(*ops) == ~np.tri(k, k=-1, dtype=bool)).all())
