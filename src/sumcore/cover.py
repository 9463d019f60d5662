"""Minimal translate covers (finite syndeticity).

A set A is syndetic at scale t when t translates of A cover the core
region.  On a finite group the core is the whole carrier and all group
elements are candidate shifts.  On an integer window, translates slide
sets off the edges, so covering is demanded only on a declared core
subwindow with shifts drawn from a declared range.

Each shift's row, its translate's bits on the core, comes from one pass
with no DenseSet per shift: a numpy scatter through the Cayley table, or
big-int shifts of A's bits.  ``min_translate_cover`` solves minimum set
cover exactly or by the standard greedy rule.  The exact mode asks "do at
most t of the allowed shifts cover what is left?" for t = counting bound,
counting bound + 1, ... below the greedy size; the first yes is the
optimum.  The same question fixes the lex-least optimal cover one
translate at a time, allowing the candidate at position i only the shifts
above i (``_lex_min_cover`` says why).  The search keeps each core
element's bitmask of covering shifts, branches on the element with the
fewest allowed, bans each option from its later siblings' subtrees,
decides the last two translates of every child after the first at once
(one batched test over the pairs of shifts), and decides the last
translate as one AND of masks.  The certificate names, for every core
element, the translate covering it.
"""

import operator
from bisect import bisect_left
from functools import reduce

import numpy as np

from .errors import BadCore, ModelMismatch
from .model import CayleyGroup, DenseSet, Record, ZWindow, ints, iter_bits, translate, unpack_bits
from .search import preorder


class CoverCertificate(Record):
    translates: tuple      # chosen shifts g_1 < ... < g_t
    core: tuple            # (lo, hi) covered region
    witness_index: tuple   # for core element lo+i: index into translates
    optimal: bool          # exact search vs greedy
    method: str

    @property
    def t(self):
        return len(self.translates)


class Infeasible(Record):
    lower_bound: object        # counting bound, or exact optimum if known
    uncovered_element: object  # core element no translate reaches, or None


def _cover_problem(A, model, core, shifts):
    """Validated core, the sorted shifts whose translate meets it (no greedy
    step or minimal cover uses another) and their rows: bit e of rows[i] is
    core element lo + e of the translate by order[i]."""
    if A.model != model:
        raise ModelMismatch("set and model disagree")
    if isinstance(model, CayleyGroup):
        n = model.order
        if shifts is not None or core is not None and ints(core) != [0, n]:
            raise BadCore(f"a cover of a Cayley group takes no shifts and no core "
                          f"but the whole group (0, {n})")
        core, order = (0, n), range(n)
        grid = np.zeros((n, n), dtype=bool)  # one scatter: row g is g·A
        grid[np.arange(n)[:, None], model._table_array] = A.to_numpy()
        rows = [int.from_bytes(r.tobytes(), "little")
                for r in np.packbits(grid, axis=1, bitorder="little")]
    elif isinstance(model, ZWindow):
        core = ints(core)
        if core is None or len(core) != 2:
            raise BadCore("ZWindow cover needs an explicit core region of two integers")
        lo, hi = core = tuple(core)
        if not (0 <= lo < hi <= model.carrier_size):
            raise BadCore(f"core [{lo},{hi}) not inside the carrier")
        order = range(1 - hi, hi) if shifts is None else shifts
        if not (isinstance(order, range) and order.step > 0):
            order = ints(order)
            if order is None:
                raise BadCore("shifts must be integers")
            order = sorted(set(order))  # as a range of step > 0 is
        # only lo - max A <= g < hi - min A moves a member into the core, and
        # the row of g is a shift of A's bits cut once to [lo - g_max, hi - g_min)
        order = order[bisect_left(order, lo + 1 - A.bits.bit_length()):
                      bisect_left(order, hi + 1 - (A.bits & -A.bits).bit_length())]
        g_min, g_max = (order[0], order[-1]) if order else (0, 0)
        cut = A.bits & ((1 << (hi - g_min)) - 1)
        cut = cut >> (lo - g_max) if lo >= g_max else cut << (g_max - lo)
        width = (1 << (hi - lo)) - 1
        rows = [(cut >> (g_max - g)) & width for g in order]
    else:
        raise ModelMismatch(f"unsupported model {model!r}")
    kept = [i for i, r in enumerate(rows) if r]
    return core, [order[i] for i in kept], [rows[i] for i in kept]


def _bound(rows, uncovered):
    """ceil(|uncovered| / best single-translate gain); None if no gain."""
    gain = max(((r & uncovered).bit_count() for r in rows), default=0)
    return -(-uncovered.bit_count() // gain) if gain else None


def min_translate_cover(A: DenseSet, model, core=None, shifts=None,
                        t_max=16, mode="exact"):
    """Cover the core with at most t_max translates of A.

    ZWindow models require an explicit ``core = (lo, hi)``; ``shifts``
    defaults to the symmetric range (-(hi-1), hi) but may be any
    iterable of integer shifts (a ``range`` of positive step is bisected,
    not listed).  CayleyGroup models cover the whole group with left
    translates g*A over all g; any ``shifts``, or a ``core`` other than
    (0, n), raises ``BadCore``.  An unknown ``mode`` raises ``ValueError``
    before any work.

    Returns a CoverCertificate, or Infeasible carrying the counting
    lower bound ceil(|core| / max_g |gA ∩ core|) and, if some core
    element lies in no translate, that element as a failure witness.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    core, order, rows = _cover_problem(A, model, core, shifts)
    lo, hi = core
    full = (1 << (hi - lo)) - 1
    counting_lb = _bound(rows, full)
    missing = full & ~reduce(operator.or_, rows, 0)
    if missing:
        return Infeasible(lower_bound=counting_lb,
                          uncovered_element=lo + (missing & -missing).bit_length() - 1)

    greedy_cover = []
    covered = 0
    while covered != full:
        best, best_gain = None, 0
        for i, r in enumerate(rows):
            gain = (r & ~covered).bit_count()
            if gain > best_gain:
                best, best_gain = i, gain
        greedy_cover.append(best)
        covered |= rows[best]

    if mode == "greedy":
        if len(greedy_cover) > t_max:
            return Infeasible(lower_bound=counting_lb, uncovered_element=None)
        return _certificate(order, rows, sorted(greedy_cover), core,
                            optimal=False, method="greedy")

    # the optimum is the least t with a cover of size t; the greedy cover
    # answers for its own size, and covers longer than t_max are
    # reported Infeasible, so no t beyond either is asked about
    if counting_lb > t_max:
        return Infeasible(lower_bound=counting_lb, uncovered_element=None)
    nbytes = (hi - lo + 7) // 8
    raw = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    grid = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(rows), nbytes),
                         axis=1, count=hi - lo, bitorder="little")
    # masks[e]: the bitset of the shift indices whose row holds core offset e
    masks = [int.from_bytes(col.tobytes(), "little")
             for col in np.packbits(grid.T, axis=1, bitorder="little")]
    every = (1 << len(order)) - 1
    t_star = len(greedy_cover)
    for t in range(counting_lb, min(t_star, t_max + 1)):
        if _exists_cover(rows, masks, grid, full, every, t):
            t_star = t
            break
    if t_star > t_max:
        return Infeasible(lower_bound=max(counting_lb, t_max + 1),
                          uncovered_element=None)
    return _certificate(order, rows, _lex_min_cover(rows, masks, grid, full, t_star), core,
                        optimal=True, method="exact")


def _pair_covers(R, uncovered, options, allowed):
    """For each option k, in increasing order: do one or two of the shifts
    in ``allowed`` minus options 0..k cover ``uncovered`` minus row k?

    R is the shifts × core 0/1 matrix.  One ``einsum`` over R's
    uncovered columns gives every option's gains |row ∩ rest| at once.  A
    row with gain g can be in a covering pair only if g plus the option's
    top gain reaches its need |rest|, and a pair only if its two gains
    do; each pair a <= b of such rows (a = b is one shift alone) is then
    checked column by column.  An option with nothing left is True.  Only
    the pairs that pass the gains are listed, never all shifts × shifts ×
    options.
    """
    opts, shifts = _indices(options), _indices(allowed)
    cols = R[:, _indices(uncovered)]
    held = cols.astype(np.float32)           # exact: sums of 0/1 below 2^24
    left = 1 - held[opts]                    # option k's uncovered columns
    gains = np.einsum("je,ke->jk", held[shifts], left)
    rank = np.full(len(R), len(opts))
    rank[opts] = np.arange(len(opts))
    gains[np.arange(len(opts)) >= rank[shifts, None]] = 0  # k bans options 0..k
    need = left.sum(1)
    verdicts = need == 0
    ks, js = np.nonzero(((gains > 0) & (gains + gains.max(0) >= need)).T)
    if not ks.size:
        return verdicts
    # the pairs p <= q of positions in (ks, js) that hold one option:
    # position p pairs with itself and every later candidate of its option
    p = np.arange(len(ks))
    reps = np.cumsum(np.bincount(ks, minlength=len(opts)))[ks] - p
    firsts = np.repeat(p, reps)
    seconds = np.arange(len(firsts)) - np.repeat(np.cumsum(reps) - reps - p, reps)
    a, b, k = js[firsts], js[seconds], ks[firsts]
    keep = gains[a, k] + gains[b, k] >= need[k]
    a, b, k = shifts[a[keep]], shifts[b[keep]], k[keep]
    verdicts[k[(cols[a] | cols[b] | cols[opts[k]]).all(1)]] = True
    return verdicts


def _indices(bits):
    """The indices of the set bits of ``bits`` as an increasing array."""
    return np.flatnonzero(unpack_bits(bits, bits.bit_length()))


def _exists_cover(rows, masks, grid, uncovered, allowed, size_limit):
    """Do at most size_limit of the allowed shifts cover ``uncovered``?

    Shifts are indices into ``rows`` (each a bitset of core offsets) and
    ``allowed`` is a bitset of them; ``masks[e]`` is the bitset of shifts
    whose row holds e, and ``grid`` holds the rows as a 0/1 matrix.  A
    node branches on the uncovered element with the fewest allowed shifts,
    and its j-th option bans options 0..j-1 from its subtree: a cover using
    one of them was searched by an earlier sibling.  A node is pruned when
    the counting bound over its allowed shifts exceeds its size limit.
    Once the first child of a three-translate node has failed,
    ``_pair_covers`` answers for all its later children at once, so no
    two-translate node below them is expanded.  With one translate left,
    the answer is whether one allowed shift lies in every uncovered
    element's mask.
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
        if size_limit > 2 and \
                _bound([rows[i] for i in iter_bits(meeting)], uncovered) > size_limit:
            return
        for k, i in enumerate(iter_bits(options)):
            allowed ^= 1 << i
            rest = uncovered & ~rows[i]
            if size_limit > 2:
                if k == 1 and size_limit == 3:  # the first child has failed
                    if _pair_covers(grid, uncovered, options, meeting)[1:].any():
                        yield 0, allowed, 0
                    return
                yield rest, allowed, size_limit - 1
            elif one_covers(rest, allowed):
                yield 0, allowed, 0

    root = (uncovered, allowed, size_limit)
    return any(not node[0] for node in preorder(root, children))


def _lex_min_cover(rows, masks, grid, uncovered, t_star):
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
    scan would have picked h.  With two translates left after a pick,
    candidate i is a three-translate node's child that allows the shifts
    above i, so once the first candidate has failed, the answer is the
    first later one that ``_pair_covers`` finishes, with no search.
    """
    chosen = []
    every = (1 << len(rows)) - 1
    start = 0
    while uncovered:
        left = t_star - len(chosen) - 1
        for i in range(start, len(rows)):
            if i == start + 1 and left == 2:  # the first candidate has failed
                above = every >> start << start
                i += int(_pair_covers(grid, uncovered, above, above)[1:].argmax())
                break
            if _exists_cover(rows, masks, grid, uncovered & ~rows[i],
                             every >> (i + 1) << (i + 1), left):
                break
        chosen.append(i)
        uncovered &= ~rows[i]
        start = i + 1
    return chosen


def _certificate(order, rows, chosen, core, optimal, method):
    """The cover by the increasing shift indices ``chosen``: each core
    element's witness index names the first chosen row that holds it."""
    lo, hi = core
    witness = [None] * (hi - lo)
    left = (1 << (hi - lo)) - 1
    for idx, i in enumerate(chosen):
        for e in iter_bits(rows[i] & left):
            witness[e] = idx
        left &= ~rows[i]
    return CoverCertificate(tuple(order[i] for i in chosen), core, tuple(witness),
                            optimal=optimal, method=method)


def verify_cover(cert: CoverCertificate, A: DenseSet, model) -> bool:
    """Element-by-element recheck of a cover certificate.

    False, never an exception, on a malformed certificate: a non-integer
    core bound, translate or index, translates not strictly increasing, or
    on a Cayley group a core short of the group or a translate outside it.
    """
    if A.model != model:
        raise ModelMismatch("set and model disagree")
    core, shifts, witness = map(ints, (cert.core, cert.translates, cert.witness_index))
    if None in (core, shifts, witness) or len(core) != 2:
        return False
    lo, hi = core
    if not (0 <= lo < hi <= model.carrier_size) or len(witness) != hi - lo:
        return False
    if any(g >= h for g, h in zip(shifts, shifts[1:])) or isinstance(model, CayleyGroup) and (
            (lo, hi) != (0, model.order) or not all(0 <= g < hi for g in shifts)):
        return False
    if not all(0 <= i < len(shifts) for i in witness):
        return False
    tsets = [translate(A, g).bits for g in shifts]
    return all((tsets[i] >> e) & 1 for e, i in zip(range(lo, hi), witness))


def counting_lower_bound(A: DenseSet, model, core, shifts=None) -> int:
    """ceil(|core| / max_g |gA ∩ core|), a lower bound on any cover size."""
    (lo, hi), _, rows = _cover_problem(A, model, core, shifts)
    lb = _bound(rows, (1 << (hi - lo)) - 1)
    if lb is None:
        raise BadCore("no translate meets the core")
    return lb
