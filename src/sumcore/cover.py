"""Minimal translate covers (finite syndeticity).

A set A is syndetic at scale t when t translates of A cover the core
region.  On a finite group the core is the whole carrier and all group
elements are candidate shifts.  On an integer window, translates slide
sets off the edges, so covering is demanded only on a declared core
subwindow with shifts drawn from a declared range.

``min_translate_cover`` solves minimum set cover exactly or
approximately by the standard greedy rule.  The exact mode asks one
decision question, "do at most t of the allowed translates cover what
is left?", for t = counting bound, counting bound + 1, ... below the
greedy size with every shift allowed; the first yes is the optimum.
The same question then fixes the lexicographically least optimal cover
one translate at a time; for the candidate at position i of the sorted
shifts it allows only the shifts above i, which gives the same answers
(``_lex_min_cover`` says why).  The decision search indexes shifts by
that position and keeps, for each core element, the bitmask of the
shifts that cover it: it branches on the element with the fewest
allowed shifts, bans each option from its later siblings' subtrees, and
decides the last translate as one AND of masks.  Either way the
certificate records, for every core element, which translate covers
it, so covers re-verify element by element.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import BadCore, ModelMismatch
from .model import CayleyGroup, DenseSet, ZWindow, iter_bits, translate
from .search import preorder


@dataclass(frozen=True)
class CoverCertificate:
    translates: tuple      # chosen shifts g_1 < ... < g_t
    core: tuple            # (lo, hi) covered region
    witness_index: tuple   # for core element lo+i: index into translates
    optimal: bool          # exact search vs greedy
    method: str

    @property
    def t(self):
        return len(self.translates)


@dataclass(frozen=True)
class Infeasible:
    lower_bound: object        # counting bound, or exact optimum if known
    uncovered_element: object  # core element no translate reaches, or None


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


def min_translate_cover(A: DenseSet, model, core=None, shifts=None,
                        t_max=16, mode="exact"):
    """Cover the core with at most t_max translates of A.

    ZWindow models require an explicit ``core = (lo, hi)``; ``shifts``
    defaults to the symmetric range (-(hi-1), hi) but may be any
    iterable of integer shifts.  CayleyGroup models cover the whole
    group with left translates g*A over all g.

    Returns a CoverCertificate, or Infeasible carrying the counting
    lower bound ceil(|core| / max_g |gA ∩ core|) and, if some core
    element lies in no translate, that element as a failure witness.
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

    if mode == "greedy":
        if len(greedy_cover) > t_max:
            return Infeasible(lower_bound=counting_lb, uncovered_element=None)
        return _certificate(sorted(greedy_cover), sets, core,
                            optimal=False, method="greedy")
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")

    # the optimum is the least t with a cover of size t; the greedy cover
    # answers for its own size, and covers longer than t_max are
    # reported Infeasible, so no t beyond either is asked about
    if counting_lb > t_max:
        return Infeasible(lower_bound=counting_lb, uncovered_element=None)
    lo, hi = core
    rows = [sets[g] >> lo for g in order]
    masks = _shift_masks(rows, hi - lo)
    uncovered = core_bits >> lo
    every = (1 << len(order)) - 1
    t_star = len(greedy_cover)
    for t in range(counting_lb, min(t_star, t_max + 1)):
        if _exists_cover(rows, masks, uncovered, every, t):
            t_star = t
            break
    if t_star > t_max:
        return Infeasible(lower_bound=max(counting_lb, t_max + 1),
                          uncovered_element=None)
    final = _lex_min_cover(rows, masks, uncovered, t_star)
    return _certificate([order[i] for i in final], sets, core,
                        optimal=True, method="exact")


def _shift_masks(rows, width):
    """Transpose of ``rows``: for each core offset e < width, the bitset of
    the shift indices i whose row holds e.  One numpy transpose of the
    bit matrix instead of a Python loop over every (shift, element) pair.
    """
    nbytes = (width + 7) // 8
    raw = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    grid = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(rows), nbytes),
                         axis=1, count=width, bitorder="little")
    packed = np.packbits(grid.T, axis=1, bitorder="little")
    return [int.from_bytes(col.tobytes(), "little") for col in packed]


def _exists_cover(rows, masks, uncovered, allowed, size_limit):
    """Do at most size_limit of the allowed shifts cover ``uncovered``?

    Shifts are indices into ``rows`` (each a bitset of core offsets) and
    ``allowed`` is a bitset of them; ``masks[e]`` is the bitset of shifts
    whose row holds e.  A node branches on the uncovered element with the
    fewest allowed shifts, and its j-th option bans options 0..j-1 from
    its subtree: a cover using one of them was searched by an earlier
    sibling.  A node is pruned when the counting bound over its allowed
    shifts exceeds its size limit; with one translate left, the answer is
    whether one allowed shift lies in every uncovered element's mask.
    """
    def one_covers(uncovered, allowed):
        """Does one allowed shift hold every uncovered element?"""
        while uncovered:
            low = uncovered & -uncovered
            allowed &= masks[low.bit_length() - 1]
            if not allowed:
                return False
            uncovered ^= low
        return True

    def children(node):
        uncovered, allowed, size_limit = node
        if size_limit <= 1:
            if size_limit and one_covers(uncovered, allowed):
                yield 0, allowed, 0
            return
        meeting = 0
        options, fewest = 0, None
        rest = uncovered
        while rest:
            low = rest & -rest
            opts = masks[low.bit_length() - 1] & allowed
            meeting |= opts
            n = opts.bit_count()
            if fewest is None or n < fewest:
                if not n:
                    return
                options, fewest = opts, n
            rest ^= low
        if size_limit > 2:
            gain = max((rows[i] & uncovered).bit_count() for i in iter_bits(meeting))
            if -(-uncovered.bit_count() // gain) > size_limit:
                return
        for i in iter_bits(options):
            allowed ^= 1 << i
            rest = uncovered & ~rows[i]
            if size_limit > 2:
                yield rest, allowed, size_limit - 1
            elif one_covers(rest, allowed):
                yield 0, allowed, 0

    root = (uncovered, allowed, size_limit)
    return any(not node[0] for node in preorder(root, children))


def _lex_min_cover(rows, masks, uncovered, t_star):
    """Indices of the lexicographically least cover of the optimal size
    t_star.

    Each step fixes the least shift that still extends to a cover of
    size t_star.  The picks come out increasing (a smaller shift that
    extends later would have extended at the earlier step), so the scan
    resumes after the last pick, and the question for candidate i allows
    only the shifts above i.  That gives the same answers: if a
    completion used an unchosen shift h below i, then h lies between two
    earlier picks, or before the first one, or between the last pick and
    i, and at that step h would have extended the chosen set too, so the
    scan would have picked h.
    """
    chosen = []
    every = (1 << len(rows)) - 1
    start = 0
    while uncovered:
        for i in range(start, len(rows)):
            if _exists_cover(rows, masks, uncovered & ~rows[i], every >> (i + 1) << (i + 1),
                             t_star - len(chosen) - 1):
                break
        chosen.append(i)
        uncovered &= ~rows[i]
        start = i + 1
    return chosen


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


def verify_cover(cert: CoverCertificate, A: DenseSet, model) -> bool:
    """Element-by-element recheck of a cover certificate.

    False, never an exception, on a malformed certificate: a non-integer
    core bound, translate or index, or a translate outside a Cayley group.
    """
    if A.model != model:
        raise ModelMismatch("set and model disagree")
    try:
        lo, hi = map(operator.index, cert.core)
        shifts = [operator.index(g) for g in cert.translates]
        witness = [operator.index(i) for i in cert.witness_index]
    except (TypeError, ValueError):
        return False
    if not (0 <= lo < hi <= model.carrier_size) or len(witness) != hi - lo:
        return False
    if isinstance(model, CayleyGroup) and not all(0 <= g < model.order for g in shifts):
        return False
    if not all(0 <= i < len(shifts) for i in witness):
        return False
    tsets = [translate(A, g).bits for g in shifts]
    return all((tsets[i] >> e) & 1 for e, i in zip(range(lo, hi), witness))


def counting_lower_bound(A: DenseSet, model, core, shifts=None) -> int:
    """ceil(|core| / max_g |gA ∩ core|), a lower bound on any cover size."""
    _, core_bits, _, sets = _cover_problem(A, model, core, shifts)
    lb = _bound(sets, core_bits)
    if lb is None:
        raise BadCore("no translate meets the core")
    return lb
