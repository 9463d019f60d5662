"""Minimal translate covers (finite syndeticity).

A set A is syndetic at scale t when t translates of A cover the core
region.  On a finite group the core is the whole carrier and all group
elements are candidate shifts.  On an integer window, translates slide
sets off the edges, so covering is demanded only on a declared core
subwindow with shifts drawn from a declared range.

``min_translate_cover`` solves minimum set cover exactly or
approximately by the standard greedy rule.  The exact mode asks one
decision question, "is there a cover of at most t translates?", for
t = counting bound, counting bound + 1, ... below the greedy size; the
first yes is the optimum, and the same question then fixes the
lexicographically least optimal cover one translate at a time.  Either
way the certificate records, for every core element, which translate
covers it, so covers re-verify element by element.
"""

import operator
from dataclasses import dataclass

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
    covers = {}
    for g in order:
        for e in iter_bits(sets[g]):
            covers.setdefault(e, []).append(g)
    t_star = len(greedy_cover)
    for t in range(counting_lb, min(t_star, t_max + 1)):
        if _exists_cover(sets, covers, core_bits, 0, t):
            t_star = t
            break
    if t_star > t_max:
        return Infeasible(lower_bound=max(counting_lb, t_max + 1),
                          uncovered_element=None)
    final = _lex_min_cover(order, sets, covers, core_bits, t_star)
    return _certificate(final, sets, core, optimal=True, method="exact")


def _exists_cover(sets, covers, core_bits, covered, size_limit):
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


def _lex_min_cover(order, sets, covers, core_bits, t_star):
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
            if _exists_cover(sets, covers, core_bits, covered | sets[g],
                             t_star - len(chosen) - 1):
                break
        chosen.append(g)
        covered |= sets[g]
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
