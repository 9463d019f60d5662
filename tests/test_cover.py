import random
import sys
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumcore import (
    BadCore,
    CoverCertificate,
    DenseSet,
    Infeasible,
    ModelMismatch,
    Multiples,
    build_model,
    counting_lower_bound,
    cyclic_table,
    generate_set,
    min_translate_cover,
    parse_set_spec,
    verify_cover,
)

from sumcore import cover as cover_mod
from sumcore.cover import _cover_problem, _exists_cover, _pair_covers
from sumcore.model import from_mask, iter_bits

from . import oracles
from .oracles import scan_min_cover
from .test_witness import symmetric_group


def zw(M, L):
    return build_model({"kind": "zwindow", "M": M, "L": L})


def zn(n):
    return build_model({"kind": "cayley", "table": [list(r) for r in cyclic_table(n)]})


# S_3 and S_4, where the left translate g·A and the right translate A·g differ
NON_ABELIAN = [symmetric_group(3), symmetric_group(4)]


class TestMinTranslateCover:
    def test_evens_parity_classes(self):
        m = zw(200, 100)
        A = generate_set(m, Multiples(2))
        cert = min_translate_cover(A, m, core=(0, 100), shifts=[0, 1], t_max=4)
        assert cert.translates == (0, 1)
        assert cert.t == 2
        assert cert.optimal
        assert verify_cover(cert, A, m)

    def test_z6_subgroup_index(self):
        m = zn(6)
        A = DenseSet.from_members(m, [0, 2, 4])
        cert = min_translate_cover(A, m, t_max=6)
        assert cert.translates == (0, 1)
        assert cert.t == 2
        assert verify_cover(cert, A, m)

    def test_subgroup_exactness_all_zn(self):
        # exact cover number equals the subgroup index, every subgroup
        # of every Z_n up to 12
        for n in range(2, 13):
            m = zn(n)
            for d in range(1, n + 1):
                if n % d:
                    continue
                A = DenseSet.from_members(m, range(0, n, d))
                cert = min_translate_cover(A, m, t_max=12)
                assert isinstance(cert, CoverCertificate)
                assert cert.t == d
                assert verify_cover(cert, A, m)

    def test_bernoulli_instance_frozen(self):
        # oracle-recorded outcomes for the Bernoulli fixture; the wide
        # core with t_max=8 is exhaustively refuted (an external solver
        # puts the true optimum at 11 for this shift range)
        m = zw(1000, 500)
        A = generate_set(m, parse_set_spec("bernoulli(0.3,11)"))
        res = min_translate_cover(A, m, core=(0, 500), shifts=range(-20, 21),
                                  t_max=8, mode="exact")
        assert res == Infeasible(lower_bound=9, uncovered_element=None)

        greedy = min_translate_cover(A, m, core=(0, 500), shifts=range(-20, 21),
                                     t_max=24, mode="greedy")
        assert greedy.t == 14
        assert not greedy.optimal
        assert verify_cover(greedy, A, m)
        # greedy stays within the harmonic factor of any optimum >= lb
        import math
        assert greedy.t <= 9 * math.log(500)

        # a narrower core is solved to optimality outright
        exact = min_translate_cover(A, m, core=(0, 100), shifts=range(-10, 11),
                                    t_max=16, mode="exact")
        assert exact.translates == (-10, -8, -7, -4, -3, -2, -1, 0, 1, 7, 9, 10)
        assert exact.t == 12
        assert verify_cover(exact, A, m)
        g2 = min_translate_cover(A, m, core=(0, 100), shifts=range(-10, 11),
                                 t_max=24, mode="greedy")
        assert g2.t >= exact.t
        assert counting_lower_bound(A, m, (0, 100), range(-10, 11)) <= exact.t

    @pytest.mark.parametrize("core,expected", [
        ((400, 430), (-59, 39, 47, 48)),
        ((400, 460), (-60, -59, -48, 14, 50, 59)),
    ])
    def test_bernoulli_quarter_lex_least_frozen(self, core, expected):
        m = zw(1000, 500)
        A = generate_set(m, parse_set_spec("bernoulli(1/4,11)"))
        cert = min_translate_cover(A, m, core=core, shifts=range(-60, 60), t_max=16)
        assert cert.translates == expected
        assert cert.optimal
        assert verify_cover(cert, A, m)

    def test_uncoverable_element_reported(self):
        m = zw(100, 50)
        A = DenseSet.from_members(m, range(10, 20))
        res = min_translate_cover(A, m, core=(0, 50), shifts=[0], t_max=4)
        assert isinstance(res, Infeasible)
        assert res.uncovered_element == 0

    def test_greedy_over_budget_infeasible(self):
        m = zn(12)
        A = DenseSet.from_members(m, [0])
        res = min_translate_cover(A, m, t_max=4, mode="greedy")
        assert isinstance(res, Infeasible)
        assert res.lower_bound == 12

    def test_negative_t_max_is_malformed(self):
        m = zn(12)
        A = generate_set(m, Multiples(2))
        assert isinstance(min_translate_cover(A, m, t_max=0), Infeasible)
        for mode in ("exact", "greedy"):
            with pytest.raises(ValueError, match="t_max"):
                min_translate_cover(A, m, t_max=-1, mode=mode)

    def test_core_required_for_zwindow(self):
        m = zw(100, 50)
        A = generate_set(m, Multiples(2))
        with pytest.raises(BadCore):
            min_translate_cover(A, m)
        with pytest.raises(BadCore):
            min_translate_cover(A, m, core=(50, 40))

    @pytest.mark.parametrize("shifts", [[0.7, "1"], [0, 1.0], ["0"], [None], 5])
    def test_non_integer_shifts_rejected(self, shifts):
        # int() truncated 0.7 to 0 and parsed "1", and a cover by 0 came back
        m = zw(100, 50)
        A = DenseSet.from_members(m, [0, 1, 5])
        with pytest.raises(BadCore):
            min_translate_cover(A, m, core=(0, 2), shifts=shifts)
        with pytest.raises(BadCore):
            counting_lower_bound(A, m, (0, 2), shifts)
        cert = min_translate_cover(A, m, core=(0, 2), shifts=[np.int64(1), 0])
        assert cert.translates == (0,)

    @pytest.mark.parametrize("core", [(0.5, 2), (0, 2.0), ("0", 2), (0, 2, 3)])
    def test_non_integer_or_misshapen_core_rejected(self, core):
        # a bare TypeError or ValueError before, from the shift or the unpacking
        m = zw(100, 50)
        A = generate_set(m, Multiples(3))
        with pytest.raises(BadCore):
            min_translate_cover(A, m, core=core, shifts=[0, 1])
        with pytest.raises(BadCore):
            counting_lower_bound(A, m, core, [0, 1])
        cert = min_translate_cover(A, m, core=[np.int64(0), 2], shifts=[0, 1])
        assert cert.core == (0, 2) and cert.translates == (0, 1)

    @given(st.integers(2, 10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_exact_beats_greedy_and_bounds(self, n, data):
        m = zn(n)
        bits = data.draw(st.integers(1, (1 << n) - 1))
        A = DenseSet(m, bits)
        exact = min_translate_cover(A, m, t_max=n)
        greedy = min_translate_cover(A, m, t_max=n, mode="greedy")
        assert isinstance(exact, CoverCertificate)
        assert isinstance(greedy, CoverCertificate)
        assert exact.t <= greedy.t
        assert verify_cover(exact, A, m)
        assert verify_cover(greedy, A, m)
        assert exact.t >= counting_lower_bound(A, m, (0, n))

    def test_exact_matches_brute_force_small_groups(self):
        from .oracles import brute_min_cover

        for n in (3, 4, 5, 6):
            m = zn(n)
            for bits in range(1, 1 << n):
                A = DenseSet(m, bits)
                exact = min_translate_cover(A, m, t_max=n)
                assert exact.translates == brute_min_cover(A, m)

    def test_cayley_cover_takes_no_core_or_shifts(self):
        # both were ignored before: the group was covered whatever they said
        m = zn(6)
        A = DenseSet.from_members(m, [0, 2, 4])
        whole = min_translate_cover(A, m)
        for kw in ({"core": (1, 3), "shifts": [5]}, {"core": (1, 3)}, {"shifts": [5]},
                   {"shifts": range(6)}, {"core": (0, 5)}):
            with pytest.raises(BadCore):
                min_translate_cover(A, m, **kw)
            with pytest.raises(BadCore):
                counting_lower_bound(A, m, kw.get("core"), kw.get("shifts"))
        assert min_translate_cover(A, m, core=(0, 6)) == whole
        assert counting_lower_bound(A, m, (0, 6)) == counting_lower_bound(A, m, None) == 2

    @pytest.mark.parametrize("core", [5, (0.0, 6), (0, 6, 6), "06"])
    def test_cayley_core_must_be_the_integer_pair(self, core):
        # 5 raised a bare TypeError from tuple(core), and (0.0, 6) passed
        m = zn(6)
        A = DenseSet.from_members(m, [0, 2, 4])
        with pytest.raises(BadCore):
            min_translate_cover(A, m, core=core)
        with pytest.raises(BadCore):
            counting_lower_bound(A, m, core)
        assert min_translate_cover(A, m, core=[np.int64(0), 6]).core == (0, 6)

    @pytest.mark.parametrize("mode", ["bogus", "Exact", None])
    def test_unknown_mode_is_rejected_first(self, mode):
        # "bogus" answered Infeasible here before, and raised only after the greedy
        m = zw(64, 32)
        with pytest.raises(ValueError, match="mode"):
            min_translate_cover(DenseSet.from_members(m, [0]), m, core=(0, 64),
                                shifts=[0], mode=mode)

    def test_counting_bound_validates_like_cover(self):
        m = zw(1000, 500)
        A = generate_set(m, parse_set_spec("bernoulli(0.3,11)"))
        with pytest.raises(BadCore):
            counting_lower_bound(A, m, (0, 2000))
        with pytest.raises(BadCore):
            counting_lower_bound(A, m, None)
        other = generate_set(zw(200, 100), Multiples(2))
        with pytest.raises(ModelMismatch):
            counting_lower_bound(other, m, (0, 100))

    def test_verify_rejects_wrong_index(self):
        m = zw(200, 100)
        A = generate_set(m, Multiples(2))
        cert = min_translate_cover(A, m, core=(0, 100), shifts=[0, 1], t_max=4)
        broken = CoverCertificate(cert.translates, cert.core,
                                  tuple(0 for _ in cert.witness_index),
                                  cert.optimal, cert.method)
        assert not verify_cover(broken, A, m)


class TestExactEqualsScan:
    """The exact search against ``oracles.scan_min_cover``, the search as
    it was before index masks, exclusion branching and the restricted
    lex pass: full results, ``Infeasible`` included."""

    @staticmethod
    def random_instance(rng):
        if rng.random() < 0.3:
            n = rng.randint(2, 12)
            m = zn(n)
            A = DenseSet(m, rng.randint(1, (1 << n) - 1))
            return A, m, {"t_max": rng.randint(0, n)}
        M = rng.randint(8, 120)
        m = zw(M, M // 2)
        p = rng.uniform(0.1, 0.7)
        A = DenseSet.from_members(m, [x for x in range(M) if rng.random() < p])
        lo = rng.randrange(M - 1)
        hi = rng.randint(lo + 1, min(M, lo + 25))
        g0 = rng.randint(-30, 30)
        shifts = range(g0, g0 + rng.randint(1, 30))
        return A, m, {"core": (lo, hi), "shifts": shifts, "t_max": rng.randint(0, 12)}

    def test_equals_scan_on_random_instances(self, monkeypatch):
        verdicts = spy_pair_covers(monkeypatch)
        rng = random.Random(20261019)
        kinds = set()
        for _ in range(600):
            A, m, kw = self.random_instance(rng)
            res = min_translate_cover(A, m, **kw)
            assert res == scan_min_cover(A, m, **kw), (A, m, kw)
            if isinstance(res, CoverCertificate):
                kinds.add("cover")
            elif res.uncovered_element is None:
                kinds.add("t_max below the optimum")
            else:
                kinds.add("uncoverable element")
        assert len(kinds) == 3
        # both callers ran the pair test, and it rejected children in both
        for caller in ("children", "_lex_min_cover"):
            assert verdicts[caller, "calls"] > 0 and verdicts[caller, "skipped"] > 0, verdicts

    def test_equals_scan_on_non_abelian_groups(self):
        rng = random.Random(20261020)
        sizes = set()
        for _ in range(80):
            m = rng.choice(NON_ABELIAN)
            A = DenseSet(m, rng.randint(1, (1 << m.order) - 1))
            kw = {"t_max": rng.randint(0, m.order)}
            res = min_translate_cover(A, m, **kw)
            assert res == scan_min_cover(A, m, **kw), (A, m, kw)
            if isinstance(res, CoverCertificate):
                sizes.add((m.order, res.t))
        assert {n for n, _ in sizes} == {6, 24} and len(sizes) > 4

    def test_wide_shift_range_equals_scan(self):
        # all but 127 of the 200,000 shifts slide A off the core
        m = zw(64, 32)
        A = generate_set(m, Multiples(3))
        for t_max in (2, 3):
            kw = {"core": (0, 64), "shifts": range(-100000, 100000), "t_max": t_max}
            res = min_translate_cover(A, m, **kw)
            assert res == min_translate_cover(A, m, core=(0, 64), shifts=range(-63, 64),
                                              t_max=t_max)
            if t_max == 2:
                assert res == scan_min_cover(A, m, **kw)
            else:
                assert res.translates == (-2, -1, 0)


    @pytest.mark.parametrize("shifts, same", [
        (range(-10**12, 10**12), range(-200, 200)),
        (range(-200, 200), list(range(-200, 200))),
        (range(-201, 200, 3), list(range(-201, 200, 3))),
        (range(200, -200, -1), list(range(-199, 201))),
        (range(7, 7), []),
    ])
    def test_shift_range_equals_its_list(self, shifts, same):
        # a range of positive step is bisected as is, never listed
        m = zw(64, 32)
        A = generate_set(m, Multiples(3))
        for mode in ("exact", "greedy"):
            kw = {"core": (0, 64), "t_max": 3, "mode": mode}
            assert min_translate_cover(A, m, shifts=shifts, **kw) == \
                min_translate_cover(A, m, shifts=same, **kw)
        if shifts:
            assert counting_lower_bound(A, m, (0, 64), shifts) == \
                counting_lower_bound(A, m, (0, 64), same)


def spy_pair_covers(monkeypatch):
    """Count ``_pair_covers``'s calls and False verdicts by calling function:
    ``children`` (a node of ``_exists_cover``) or ``_lex_min_cover``."""
    seen = Counter()

    def spy(*args):
        verdicts = real(*args)
        caller = sys._getframe(1).f_code.co_name
        seen[caller, "calls"] += 1
        seen[caller, "skipped"] += int((~verdicts).sum())
        return verdicts

    real = cover_mod._pair_covers
    monkeypatch.setattr(cover_mod, "_pair_covers", spy)
    return seen


class TestPairBound:
    """``_pair_covers`` on seeded random 0/1 matrices, some with duplicate
    rows: each verdict equals brute force over the pairs (a <= b) of the
    child's allowed shifts, and a child with nothing left is True."""

    def test_rejected_children_have_no_two_cover(self):
        rng = random.Random(20261020)
        outcomes = Counter()
        for _ in range(400):
            n_shifts, width = rng.randint(2, 14), rng.randint(1, 12)
            p = rng.uniform(0.1, 0.6)
            grid = np.array([[rng.random() < p for _ in range(width)]
                             for _ in range(n_shifts)], dtype=rng.choice([bool, np.uint8]))
            if rng.random() < 0.3:  # repeat rows, as a Cayley group's cosets do
                grid = grid[[rng.randrange(n_shifts) for _ in range(n_shifts)]]
            rows = [from_mask(r) for r in grid]
            uncovered = rng.randint(1, (1 << width) - 1)
            allowed = rng.randint(1, (1 << n_shifts) - 1)
            options = allowed & rng.randint(1, (1 << n_shifts) - 1) or allowed
            verdicts = _pair_covers(grid, uncovered, options, allowed)
            opts = list(iter_bits(options))
            assert verdicts.shape == (len(opts),) and verdicts.dtype == bool
            for k, o in enumerate(opts):
                rest = uncovered & ~rows[o]
                allowed &= ~(1 << o)  # child k bans options 0..k
                two_cover = rest == 0 or any(
                    rest & ~(rows[a] | rows[b]) == 0
                    for a, b in combinations_with_replacement(iter_bits(allowed), 2))
                assert verdicts[k] == two_cover, (grid, uncovered, options, k)
                gains = sorted((rows[j] & rest).bit_count() for j in iter_bits(allowed))
                top_two = sum(gains[-2:]) >= rest.bit_count()
                outcomes[two_cover, top_two, rest == 0] += 1
        # covered and not, with need 0 among the covered, and children that
        # the top-two gain test let through but no pair covers
        assert outcomes[True, True, True] and outcomes[True, True, False]
        assert outcomes[False, False, False] and outcomes[False, True, False]


class TestSearchPaths:
    """Two paths of the exact search, pinned where they run: the pair test
    answering in place of a search, and a node whose uncovered element
    has no allowed shift left."""

    def test_lex_pass_searches_no_pair_after_the_first_candidate(self, monkeypatch):
        # with two translates left after a pick, only the first candidate
        # is searched; the pair test answers for the rest of the step
        m = zw(1000, 500)
        A = generate_set(m, parse_set_spec("bernoulli(1/4,11)"))
        events = []

        def spy(name):
            real = getattr(cover_mod, name)

            def call(*args):
                if sys._getframe(1).f_code.co_name == "_lex_min_cover":
                    events.append((name, args[-1] if name == "_exists_cover" else None))
                return real(*args)
            monkeypatch.setattr(cover_mod, name, call)

        spy("_exists_cover")
        spy("_pair_covers")
        cert = min_translate_cover(A, m, core=(400, 430), shifts=range(-60, 60))
        assert cert.translates == (-59, 39, 47, 48) and cert.optimal
        # one step has two translates left: its first candidate is searched
        # at size limit 2 and fails, then one pair test picks the next
        # translate; the later steps have one translate left or none
        pairs = events.index(("_pair_covers", None))
        assert events.count(("_pair_covers", None)) == 1
        assert events.count(("_exists_cover", 2)) == 1
        assert events[pairs - 1] == ("_exists_cover", 2)
        assert {size for _, size in events[pairs + 1:]} == {1, 0}

    def test_no_allowed_shift_ends_the_node(self, monkeypatch):
        # element 1 lies only in row 1, which is not allowed: the node ends
        # before its counting bound, at every size limit
        bounds = []
        real = cover_mod._bound
        monkeypatch.setattr(cover_mod, "_bound", lambda *a: bounds.append(a) or real(*a))
        rows = [0b01, 0b10, 0b01]
        masks = [0b101, 0b010]
        grid = np.array([[1, 0], [0, 1], [1, 0]], dtype=bool)
        for size_limit in (2, 3, 5):
            assert not _exists_cover(rows, masks, grid, 0b11, 0b101, size_limit)
        assert bounds == []
        assert _exists_cover(rows, masks, grid, 0b11, 0b111, 3)
        assert bounds


class TestRows:
    """``_cover_problem``'s rows against the translate-per-shift build kept
    in ``tests/oracles.py``: bit e of the row of g is core element lo + e of
    g·A, and shifts whose translate misses the core are dropped."""

    @staticmethod
    def expected(A, model, core, shifts):
        """Core, shifts and rows read from ``translate(A, g).bits & core_bits``."""
        core, _, order, sets = oracles._cover_problem(A, model, core, shifts)
        kept = [g for g in order if sets[g]]
        return core, kept, [sets[g] >> core[0] for g in kept]

    @pytest.mark.parametrize("members", [[], range(64), [0], [63], [0, 63],
                                         range(5, 40, 3), "random"])
    def test_zwindow_rows(self, members):
        m = zw(64, 32)
        if members == "random":
            rng = random.Random(7)
            members = [x for x in range(64) if rng.random() < 0.4]
        A = DenseSet.from_members(m, members)
        far = [-(1 << 62), -65, -64, -63, 63, 64, 65, 1 << 62]
        for core in [(0, 64), (0, 1), (0, 10), (54, 64), (63, 64), (20, 30)]:
            for shifts in [range(-200, 200), range(-70, -1), range(3, 9), far,
                           [5, -5, 5, 0], []]:
                got = _cover_problem(A, m, core, shifts)
                assert got == self.expected(A, m, core, shifts), (members, core, shifts)
            assert _cover_problem(A, m, core, None) == self.expected(A, m, core, None)

    @pytest.mark.parametrize("model", [zn(1), zn(12), zn(96), *NON_ABELIAN],
                             ids=["z1", "z12", "z96", "s3", "s4"])
    def test_cayley_rows(self, model):
        n = model.order
        rng = random.Random(n)
        sets = [0, (1 << n) - 1, 1, 1 << (n - 1)] + [rng.getrandbits(n) for _ in range(5)]
        for bits in sets:
            A = DenseSet(model, bits)
            assert _cover_problem(A, model, None, None) == self.expected(A, model, None, None)

    def test_non_abelian_rows_are_left_translates(self):
        m = symmetric_group(4)
        A = DenseSet.from_members(m, [0, 1, 5, 9])
        _, order, rows = _cover_problem(A, m, None, None)
        right = [DenseSet.from_members(m, [m.op(a, g) for a in A.members()]).bits
                 for g in order]
        assert rows != right
