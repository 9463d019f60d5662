import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumcore import (
    DefinableWitness,
    DenseSet,
    FamilyDescriptor,
    GrowthPoint,
    InvalidInput,
    LadderCertificate,
    ModelMismatch,
    Multiples,
    NotFound,
    PowersOf2,
    SquareWitness,
    Stuck,
    Threshold,
    TriangularWitness,
    UpgradeResult,
    build_model,
    cyclic_table,
    definable_witness_search,
    find_square_witness,
    find_triangular_witness,
    generate_set,
    greedy_back_and_forth,
    growth_curve,
    max_ladder,
    parse_set_spec,
    ramsey_upgrade,
    verify_definable_witness,
    verify_ladder,
    verify_square_witness,
    verify_triangular_witness,
    verify_upgrade,
)

from sumcore import witness
from sumcore.model import CayleyGroup, Relation, bits_of
from sumcore.search import Budget
from sumcore.setspec import splitmix_stream
from sumcore.witness import _ANCHOR_LIMIT, _anchor_square_exists, _anchor_triangular_exists

from .oracles import (
    bitset_greedy,
    brute_is_associative,
    brute_square,
    brute_triangular_exists,
    full_root_square_witness,
    full_root_triangular_witness,
    gather_ramsey_upgrade,
    greedy_square,
    power_quadruple_solutions,
    random_latin_square,
    scan_definable_search,
)
from .test_ladder import s3


def zw(M, L):
    return build_model({"kind": "zwindow", "M": M, "L": L})


def zn(n):
    return build_model({"kind": "cayley", "table": [list(r) for r in cyclic_table(n)]})


class TestSquareWitness:
    def test_multiples3_k4_canonical(self):
        m = zw(1024, 512)
        A = generate_set(m, Multiples(3))
        w = find_square_witness(A, m, 4)
        assert w == SquareWitness((0, 3, 6, 9), (0, 3, 6, 9))
        assert verify_square_witness(w, A, m)

    def test_full_carrier(self):
        m = zw(64, 32)
        A = DenseSet.from_members(m, range(64))
        w = find_square_witness(A, m, 5)
        assert w == SquareWitness((0, 1, 2, 3, 4), (0, 1, 2, 3, 4))

    def test_pow2_k2_refuted(self):
        m = zw(1 << 16, 1 << 15)
        A = generate_set(m, PowersOf2())
        res = find_square_witness(A, m, 2)
        assert res == NotFound(exhaustive=True)
        # independent oracle: no power quadruple 2^a+2^d = 2^b+2^c exists
        # beyond the trivial {a,d} = {b,c}, so no 2x2 sum square fits
        assert power_quadruple_solutions(17) == []

    def test_deep_witness_answers(self):
        # one tree level per chosen b: k = 1500 is deeper than the
        # interpreter's recursion limit
        m = zw(4096, 2048)
        A = generate_set(m, Threshold(0))
        w = find_square_witness(A, m, 1500)
        assert w == SquareWitness(tuple(range(1500)), tuple(range(1500)))
        assert verify_square_witness(w, A, m)

    def test_budget_gives_nonexhaustive(self):
        m = zw(1 << 12, 1 << 11)
        A = generate_set(m, PowersOf2())
        res = find_square_witness(A, m, 2, budget=5)
        assert res == NotFound(exhaustive=False)

    def test_negative_budget_is_malformed(self):
        # a budget of 0 is exhausted at once; a negative one is an error in
        # every mode and search, never a non-exhaustive NotFound
        m = zw(1 << 12, 1 << 11)
        A = generate_set(m, PowersOf2())
        assert find_square_witness(A, m, 2, budget=0) == NotFound(exhaustive=False)
        searches = [
            lambda: find_square_witness(A, m, 2, budget=-1),
            lambda: find_square_witness(A, m, 2, mode="heuristic", budget=-1),
            lambda: find_square_witness(A, m, 1 << 12, budget=-1),
            lambda: find_triangular_witness(A, m, 3, budget=-1),
            lambda: find_triangular_witness(A, m, 3, scorer="pool_size", budget=-1),
            lambda: definable_witness_search(A, m, "aps", 3, budget=-1),
            lambda: growth_curve(A, m, 2, budget=-1),
        ]
        for search in searches:
            with pytest.raises(ValueError, match="budget"):
                search()

    def test_heuristic_mode(self):
        m = zw(100, 50)
        A = generate_set(m, Multiples(2))
        w = find_square_witness(A, m, 3, mode="heuristic")
        assert isinstance(w, SquareWitness)
        assert verify_square_witness(w, A, m)
        res = find_square_witness(generate_set(zw(1 << 12, 1 << 11), PowersOf2()),
                                  zw(1 << 12, 1 << 11), 2, mode="heuristic")
        assert res == NotFound(exhaustive=False)

    def test_oracle_equivalence_z8(self):
        m = zn(8)
        for bits in range(1 << 8):
            A = DenseSet(m, bits)
            for k in (1, 2):
                got = find_square_witness(A, m, k)
                want = brute_square(A, m, k)
                if want is None:
                    assert got == NotFound(exhaustive=True)
                else:
                    assert (got.b, got.c) == want

    @given(st.integers(12, 24), st.data())
    @settings(max_examples=80, deadline=None)
    def test_oracle_equivalence_zwindow(self, M, data):
        L = M // 2
        bits = data.draw(st.integers(0, (1 << M) - 1))
        m = zw(M, L)
        A = DenseSet(m, bits)
        for k in (1, 2, 3):
            got = find_square_witness(A, m, k)
            want = brute_square(A, m, k)
            if want is None:
                assert got == NotFound(exhaustive=True)
            else:
                assert (got.b, got.c) == want
                assert verify_square_witness(got, A, m)

    def test_verify_rejects_junk(self):
        m = zw(100, 50)
        A = generate_set(m, Multiples(2))
        assert not verify_square_witness(SquareWitness((0, 1), (0, 2)), A, m)
        assert not verify_square_witness(SquareWitness((0, 0), (0, 2)), A, m)
        assert not verify_square_witness(SquareWitness((0,), (0, 2)), A, m)
        with pytest.raises(ModelMismatch):
            verify_square_witness(SquareWitness((0,), (0,)),
                                  DenseSet.from_members(zw(10, 5), [0]), m)


@st.composite
def zwindow_of_density(draw):
    """A ZWindow with M in [8, 80] whose elements are members with a drawn
    probability between 0.1 and 0.8."""
    M = draw(st.integers(8, 80))
    m = zw(M, draw(st.integers(2, M // 2)))
    density = draw(st.sampled_from([0.1, 0.2, 0.35, 0.5, 0.65, 0.8]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return m, DenseSet.from_members(m, [x for x in range(M) if rng.random() < density])


class TestAnchorSide:
    """The anchor-side existence search, called directly, so that the
    crossover in find_square_witness cannot hide it."""

    @given(zwindow_of_density(), st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    # D = {0, 1} has the anchors 0 and 4, exactly L apart, and D = {0, L}
    # is not an operand difference: no witness
    @example((zw(8, 4), DenseSet.from_members(zw(8, 4), [0, 1, 4, 5])), 2)
    def test_verdict_matches_oracle(self, inst, k):
        m, A = inst
        want = brute_square(A, m, k)
        assert _anchor_square_exists(A, k, Budget(None)) == (want is not None)
        # every set this small takes the route, and the witness is still
        # the lex-least one
        anchors = A.bits & ((1 << (2 * m.operand_bound - 1)) - 1)
        assert anchors.bit_count() <= _ANCHOR_LIMIT
        got = find_square_witness(A, m, k)
        if want is None:
            assert got == NotFound(exhaustive=True)
        else:
            assert (got.b, got.c) == want

    def test_budget_counts_candidate_differences(self):
        # pow2 below 2L - 1 is 1, 2, ..., 2048: its 66 differences 2^j - 2^i
        # are all below L and distinct (a Sidon set), so no d has 2 anchors
        m = zw(1 << 12, 1 << 11)
        A = generate_set(m, PowersOf2())
        bud = Budget(None)
        assert _anchor_square_exists(A, 2, bud) is False
        assert bud.spent == 66
        assert _anchor_square_exists(A, 2, Budget(66)) is False
        assert _anchor_square_exists(A, 2, Budget(65)) is None
        assert _anchor_square_exists(A, 2, Budget(0)) is None

    def test_budget_runs_out_between_candidate_differences(self):
        # a refutation of 106 nodes; under 3 or 50 nodes the walk stops
        # inside a node's candidate loop, where the next d's charge does
        # not fit, so fewer nodes are spent than granted
        m = zw(128, 64)
        A = DenseSet.from_members(m, [0, 1, 3, 18, 32, 33, 35, 40, 46, 53, 55, 71, 99,
                                      104, 113])
        bud = Budget(None)
        assert _anchor_square_exists(A, 3, bud) is False
        assert bud.spent == 106
        for budget, spent in ((3, 2), (50, 46)):
            bud = Budget(budget)
            assert _anchor_square_exists(A, 3, bud) is None
            assert (bud.spent, bud.exhausted) == (spent, True)
            assert find_square_witness(A, m, 3, budget=budget) == NotFound(exhaustive=False)
        assert find_square_witness(A, m, 3, budget=106) == NotFound(exhaustive=True)

    def test_pow2_refuted_at_2_20(self):
        m = zw(1 << 20, 1 << 19)
        A = generate_set(m, PowersOf2())
        t0 = time.time()
        assert find_square_witness(A, m, 2) == NotFound(exhaustive=True)
        curve = growth_curve(A, m, 3)
        assert [(p.found, p.exhaustive) for p in curve] == [(True, True), (False, True),
                                                            (False, True)]
        assert time.time() - t0 < 10
        # a budget bounds the route too
        assert find_square_witness(A, m, 2, budget=5) == NotFound(exhaustive=False)

    def test_route_taken_only_on_sparse_zwindows(self, monkeypatch):
        calls = []

        def spy(A, k, bud):
            calls.append(A.model)
            return _anchor_square_exists(A, k, bud)

        monkeypatch.setattr(witness, "_anchor_square_exists", spy)
        sparse = zw(1 << 12, 1 << 11)
        assert find_square_witness(generate_set(sparse, PowersOf2()), sparse, 2) \
            == NotFound(exhaustive=True)
        dense = zw(1024, 512)
        assert isinstance(find_square_witness(generate_set(dense, Multiples(3)), dense, 4),
                          SquareWitness)
        group = zn(16)
        assert find_square_witness(generate_set(group, Multiples(4)), group, 5) \
            == NotFound(exhaustive=True)
        assert calls == [sparse]


class TestTriangularWitness:
    def test_threshold_m3(self):
        m = zw(256, 128)
        A = generate_set(m, Threshold(64))
        w = find_triangular_witness(A, m, 3)
        assert w == TriangularWitness((0, 1, 2), (64, 65, 66))
        assert verify_triangular_witness(w, A, m)

    def test_evens_m5(self):
        m = zw(200, 100)
        A = generate_set(m, Multiples(2))
        w = find_triangular_witness(A, m, 5)
        assert verify_triangular_witness(w, A, m)

    def test_pow2_m3_refuted_m2_found(self):
        m = zw(1 << 12, 1 << 11)
        A = generate_set(m, PowersOf2())
        assert find_triangular_witness(A, m, 3) == NotFound(exhaustive=True)
        w = find_triangular_witness(A, m, 2)
        assert w == TriangularWitness((0, 1), (2, 1))
        assert verify_triangular_witness(w, A, m)

    def test_hall_prunes_spend_frozen_nodes(self):
        # bernoulli(1/2,3) over zwindow:24:12; the c-phase Hall check prunes
        # five children on the way, and the witness costs exactly 133 nodes
        m = zw(24, 12)
        A = DenseSet.from_members(m, [0, 3, 4, 6, 8, 12, 13, 16, 17, 18, 23])
        w = TriangularWitness((4, 8, 0, 9, 2), (2, 9, 0, 8, 4))
        assert find_triangular_witness(A, m, 5) == w
        assert find_triangular_witness(A, m, 5, budget=133) == w
        assert find_triangular_witness(A, m, 5, budget=132) == NotFound(exhaustive=False)

    def test_square_implies_triangular(self):
        m = zw(1024, 512)
        A = generate_set(m, Multiples(3))
        w = find_square_witness(A, m, 4)
        assert verify_triangular_witness(TriangularWitness(w.b, w.c), A, m)

    def test_scorer_delegation(self):
        m = zw(100, 50)
        A = generate_set(m, Multiples(2))
        w = find_triangular_witness(A, m, 3, scorer="pool_size")
        assert isinstance(w, TriangularWitness)
        assert verify_triangular_witness(w, A, m)

    def test_deep_witness_answers(self):
        # one tree level per b and per c: 2 * 1500 levels
        m = zw(4096, 2048)
        A = generate_set(m, Threshold(0))
        w = find_triangular_witness(A, m, 1500)
        assert w == TriangularWitness(tuple(range(1500)), tuple(range(1500)))
        assert verify_triangular_witness(w, A, m)

    def test_large_witness_vectorized_verify(self):
        m = zw(1 << 12, 1 << 11)
        A = generate_set(m, Threshold(128))
        mlen = 100
        b = tuple(range(mlen))
        c = tuple(range(128, 128 + mlen))
        assert verify_triangular_witness(TriangularWitness(b, c), A, m)
        bad_c = (0,) + c[1:]
        assert not verify_triangular_witness(TriangularWitness(b, bad_c), A, m)


@st.composite
def small_zwindow(draw):
    """A ZWindow with M in [4, 24] and L <= 8, small enough for
    ``brute_triangular_exists``, whose members are drawn with a probability
    between 0.2 and 0.8."""
    M = draw(st.integers(4, 24))
    m = zw(M, draw(st.integers(2, min(M // 2, 8))))
    density = draw(st.sampled_from([0.2, 0.35, 0.5, 0.65, 0.8]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return m, DenseSet.from_members(m, [x for x in range(M) if rng.random() < density])


class TestAnchorTriangular:
    """The anchor-side triangular existence search, called directly and
    through find_triangular_witness."""

    # t-candidates drawn from the smallest pool instead of the largest miss
    # this witness: b = (1, 3, 5, 0), c = (0, 5, 3, 1)
    PINNED = (12, 6, [1, 2, 4, 6, 8, 9, 11], 4)

    @given(small_zwindow(), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    @example((zw(*PINNED[:2]), DenseSet.from_members(zw(*PINNED[:2]), PINNED[2])),
             PINNED[3])
    def test_verdict_matches_oracle(self, inst, k):
        m, A = inst
        want = brute_triangular_exists(A, m, k)
        assert _anchor_triangular_exists(A, k, Budget(None)) is want
        got = find_triangular_witness(A, m, k)
        if want:
            assert verify_triangular_witness(got, A, m)
        else:
            assert got == NotFound(exhaustive=True)

    def test_pinned_witness(self):
        M, L, members, k = self.PINNED
        m = zw(M, L)
        A = DenseSet.from_members(m, members)
        assert verify_triangular_witness(TriangularWitness((1, 3, 5, 0), (0, 5, 3, 1)), A, m)
        assert _anchor_triangular_exists(A, k, Budget(None)) is True
        assert _anchor_triangular_exists(A, k + 1, Budget(None)) is False

    def test_budget_counts_tried_members(self):
        m = zw(1 << 12, 1 << 11)
        A = generate_set(m, PowersOf2())
        bud = Budget(None)
        assert _anchor_triangular_exists(A, 3, bud) is False
        assert bud.spent == 144
        assert _anchor_triangular_exists(A, 3, Budget(144)) is False
        assert _anchor_triangular_exists(A, 3, Budget(143)) is None
        assert _anchor_triangular_exists(A, 3, Budget(0)) is None

    def test_pow2_refuted_within_budget(self):
        # the search alone runs out of these 2000 nodes at its first level
        m = zw(1 << 16, 1 << 15)
        A = generate_set(m, PowersOf2())
        assert find_triangular_witness(A, m, 3, budget=2000) == NotFound(exhaustive=True)
        t0 = time.time()
        m = zw(1 << 20, 1 << 19)
        A = generate_set(m, parse_set_spec("translate(pow2,37)"))
        assert find_triangular_witness(A, m, 3) == NotFound(exhaustive=True)
        assert time.time() - t0 < 10

    @pytest.mark.parametrize("M, L, members, k, budget, want", [
        # the anchor walk needs 40 nodes to find a witness, the search 13
        (18, 9, [1, 4, 6, 9, 12, 13, 14], 4, 13,
         TriangularWitness((1, 4, 6, 5), (3, 5, 0, 8))),
        (18, 9, [1, 4, 6, 9, 12, 13, 14], 4, 12, NotFound(exhaustive=False)),
        # the anchor walk needs 45 nodes to refute, the search 24
        (24, 6, [0, 1, 3, 4, 5, 10, 14, 15, 16, 18, 19, 20, 21, 22, 23], 4, 24,
         NotFound(exhaustive=True)),
    ])
    def test_small_budget_gives_search_answer(self, monkeypatch, M, L, members, k,
                                              budget, want):
        m = zw(M, L)
        A = DenseSet.from_members(m, members)
        assert _anchor_triangular_exists(A, k, Budget(budget)) is None
        assert find_triangular_witness(A, m, k, budget=budget) == want
        monkeypatch.setattr(witness, "_ANCHOR_LIMIT", -1)  # the search alone
        assert find_triangular_witness(A, m, k, budget=budget) == want

    def test_route_taken_only_on_sparse_zwindows(self, monkeypatch):
        calls = []

        def spy(A, k, bud):
            calls.append(A.model)
            return _anchor_triangular_exists(A, k, bud)

        monkeypatch.setattr(witness, "_anchor_triangular_exists", spy)
        sparse = zw(1 << 12, 1 << 11)
        assert find_triangular_witness(generate_set(sparse, PowersOf2()), sparse, 3) \
            == NotFound(exhaustive=True)
        dense = zw(4096, 2048)
        assert isinstance(find_triangular_witness(generate_set(dense, Multiples(3)), dense, 8),
                          TriangularWitness)
        group = zn(16)
        assert isinstance(find_triangular_witness(generate_set(group, Multiples(4)), group, 4),
                          TriangularWitness)
        assert find_triangular_witness(generate_set(sparse, PowersOf2()), sparse, 3,
                                       scorer="pool_size") == NotFound(exhaustive=False)
        assert calls == [sparse]


def symmetric_group(n):
    """S_n as the composition table of the permutations of {0, .., n − 1}."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
    return build_model({"kind": "cayley", "table": table})


def model_of(text):
    """``zwindow:M`` (L = M/2), ``zwindow:M:L``, ``zmod:n`` or ``sym:n``."""
    kind, size, *bound = text.split(":")
    size = int(size)
    if kind == "zwindow":
        return zw(size, int(bound[0]) if bound else size // 2)
    return zn(size) if kind == "zmod" else symmetric_group(size)


# a Bohr set of density 1/2 (the benchmark's greedy instances use it)
BOHR = "bohr(665857/470832,1/4)"
GREEDY_SCALE_CASES = [
    (f"zwindow:{M}", spec)
    for M in (1 << 10, 1 << 12, 1 << 14)
    for spec in (f"translate({BOHR},{M % 29 + 1})", "bernoulli(1/2,5)",
                 "bernoulli(3/4,6)", "bernoulli(1/8,4)", "threshold(0)", "multiples(3)",
                 "pow2")
] + [
    ("zmod:60", "bernoulli(1/2,8)"),
    ("zmod:96", "union(multiples(4),multiples(6))"),
    ("sym:5", "bernoulli(1/2,9)"),
    ("sym:5", "bernoulli(3/4,10)"),
    ("sym:5", "bernoulli(1/4,11)"),
]


@st.composite
def small_set(draw):
    """Any set over a ZWindow with M <= 40, Z_n with n <= 12, or S_3."""
    kind = draw(st.sampled_from(["zwindow", "zmod", "s3"]))
    if kind == "zwindow":
        M = draw(st.integers(4, 40))
        m = zw(M, draw(st.integers(2, M // 2)))
    else:
        m = zn(draw(st.integers(1, 12))) if kind == "zmod" else s3()
    return m, DenseSet(m, draw(st.integers(0, (1 << m.carrier_size) - 1)))


class TestGreedy:
    def test_evens_succeeds(self):
        m = zw(100, 50)
        A = generate_set(m, Multiples(2))
        w = greedy_back_and_forth(A, m, 3)
        assert w == SquareWitness((0, 2, 4), (0, 2, 4))

    def test_threshold_positive(self):
        m = zw(100, 50)
        A = generate_set(m, Threshold(1))
        w = greedy_back_and_forth(A, m, 3)
        assert isinstance(w, SquareWitness)
        assert verify_square_witness(w, A, m)

    def test_pow2_stuck(self):
        m = zw(1 << 16, 1 << 15)
        A = generate_set(m, PowersOf2())
        res = greedy_back_and_forth(A, m, 2)
        assert res == Stuck((1, 0), (1,))

    def test_scorers_deterministic(self):
        m = zw(400, 200)
        A = generate_set(m, parse_set_spec("bernoulli(0.7,3)"))
        for scorer in ("pool_size", "density_weighted", "random"):
            a = greedy_back_and_forth(A, m, 3, scorer=scorer, seed=5)
            b = greedy_back_and_forth(A, m, 3, scorer=scorer, seed=5)
            assert a == b
            if isinstance(a, SquareWitness):
                assert verify_square_witness(a, A, m)

    @given(small_set(), st.integers(1, 4),
           st.sampled_from(["pool_size", "density_weighted", "random"]),
           st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_scorers_match_scalar_oracle(self, instance, k, scorer, seed):
        m, A = instance
        got = greedy_back_and_forth(A, m, k, scorer=scorer, seed=seed)
        bs, cs, complete = greedy_square(A, m, k, scorer, splitmix_stream(seed))
        assert got == (SquareWitness(bs, cs) if complete else Stuck(bs, cs))

    def test_unknown_scorer(self):
        m = zw(100, 50)
        with pytest.raises(ValueError, match="unknown scorer 'bogus'"):
            greedy_back_and_forth(generate_set(m, Multiples(2)), m, 2, scorer="bogus")

    def test_all_ties_take_the_smallest(self):
        m = zw(1 << 16, 1 << 15)
        A = generate_set(m, Threshold(0))
        assert greedy_back_and_forth(A, m, 4) == SquareWitness((0, 1, 2, 3), (0, 1, 2, 3))

    @pytest.mark.parametrize("model_text,spec", GREEDY_SCALE_CASES)
    def test_scale_matches_bitset_oracle(self, model_text, spec):
        """Every k up to 12 on the 2^12 Bohr set, zmod:96 and S5, up to 6
        on the other carriers up to 2^12, k = 6 above: the library, whose
        scores go by row deltas and fresh counts, agrees with the
        popcount-per-element loop it replaced."""
        m = model_of(model_text)
        A = generate_set(m, parse_set_spec(spec))
        deep = model_text in ("zmod:96", "sym:5") \
            or (model_text == "zwindow:4096" and spec.startswith("translate"))
        ks = range(1, 13) if deep else range(1, 7) if m.carrier_size <= 1 << 12 else (6,)
        for scorer, k in itertools.product(("pool_size", "density_weighted", "random"), ks):
            got = greedy_back_and_forth(A, m, k, scorer=scorer, seed=k)
            assert got == bitset_greedy(A, m, k, scorer=scorer, seed=k), (scorer, k)

    @pytest.mark.parametrize("scorer", ["pool_size", "density_weighted"])
    def test_scores_take_both_updates(self, monkeypatch, scorer):
        """On a Bohr set the opposite pool first loses hundreds of members,
        then one or two per pick: the big loss takes a fresh ``overlaps``,
        the small ones subtract rows, and the picks are the oracle's."""
        m = zw(1 << 12, 1 << 11)
        A = generate_set(m, parse_set_spec(f"translate({BOHR},1)"))
        fresh, rows = [], []
        overlaps, row = Relation.overlaps, Relation.row

        def spy_overlaps(self, opposite, side):
            fresh.append(int(opposite.sum()))
            return overlaps(self, opposite, side)

        def spy_row(self, g, side):
            rows.append((g, side))
            return row(self, g, side)

        monkeypatch.setattr(Relation, "overlaps", spy_overlaps)
        monkeypatch.setattr(Relation, "row", spy_row)
        k = 12
        got = greedy_back_and_forth(A, m, k, scorer=scorer)
        assert isinstance(got, SquareWitness)
        assert got == bitset_greedy(A, m, k, scorer=scorer)
        # a first count per side, then fresh ones only past the cut
        cut = witness._delta_rows(1 << 11)
        assert 2 < len(fresh) < 2 * k
        assert all(n < min(fresh[:2]) - cut for n in fresh[2:]), fresh
        # 2k rows narrow the pools; every other row is a score update
        assert len(rows) > 2 * k

    @pytest.mark.parametrize("model_text,spec", [
        ("zwindow:4096", f"translate({BOHR},3)"), ("zwindow:4096", "bernoulli(1/2,5)"),
        ("zmod:96", "union(multiples(4),multiples(6))"), ("sym:5", "bernoulli(1/2,9)"),
        ("zwindow:4194304:64", "bernoulli(1/2,3)")])
    def test_overlaps_of_every_operand_are_popcounts(self, model_text, spec):
        # ZWindow: window counts with no transform; Cayley: the grid's row sums
        m = model_of(model_text)
        A = generate_set(m, parse_set_spec(spec))
        rel = Relation(A, m)
        every = np.ones(rel.bound, dtype=bool)
        for side, quot in (("left", rel.left), ("right", rel.right)):
            want = [(rel.domain & quot(g)).bit_count() for g in range(rel.bound)]
            assert rel.overlaps(every, side).tolist() == want, side
        assert "_spectrum" not in vars(rel)  # A's transform was never taken
        assert A._prefix is None  # nor prefix counts over the whole carrier

    def test_overlaps_are_popcounts(self):
        # L = 2^17: the FFT correlation, rounded, against big-int popcounts
        m = zw(1 << 18, 1 << 17)
        A = generate_set(m, parse_set_spec("bernoulli(1/2,7)"))
        rel = Relation(A, m)
        rng = np.random.default_rng(7)
        opposite = rng.random(rel.bound) < 0.75
        scores = rel.overlaps(opposite, "left")
        assert np.array_equal(scores, rel.overlaps(opposite, "right"))
        opp_bits = bits_of(np.flatnonzero(opposite).tolist())
        for g in rng.choice(rel.bound, 200, replace=False).tolist():
            assert scores[g] == (opp_bits & rel.left(g)).bit_count()


class TestRamseyUpgrade:
    def test_length_one(self):
        m = zw(100, 50)
        A = generate_set(m, Multiples(2))
        res = ramsey_upgrade(TriangularWitness((2,), (4,)), A, m)
        assert res.tag == "square"
        assert res.indices == (0,)
        assert verify_upgrade(res, A, m)

    def test_evens_uniform_hot_gives_square(self):
        m = zw(400, 200)
        A = generate_set(m, Multiples(2))
        tri = TriangularWitness(tuple(range(0, 16, 2)), tuple(range(16, 32, 2)))
        res = ramsey_upgrade(tri, A, m)
        assert res.tag == "square"
        assert len(res.indices) == 8  # uniform coloring loses nothing
        assert verify_upgrade(res, A, m)

    def test_threshold_uniform_cold_gives_ladder(self):
        m = zw(256, 128)
        A = generate_set(m, Threshold(64))
        b = tuple(64 - i for i in range(1, 9))  # decreasing rows
        c = tuple(range(1, 9))
        tri = TriangularWitness(b, c)
        res = ramsey_upgrade(tri, A, m)
        assert res.tag == "ladder"
        assert len(res.indices) == 8
        assert verify_upgrade(res, A, m)

    def test_invalid_input_rejected(self):
        m = zw(100, 50)
        A = generate_set(m, Multiples(2))
        with pytest.raises(InvalidInput):
            ramsey_upgrade(TriangularWitness((1,), (2,)), A, m)

    @given(st.integers(2, 9), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_size_guarantee_random(self, log_m, seed):
        rng = random.Random(seed)
        mlen = rng.randint(2, 1 << log_m)
        M, L = 4 * (1 << log_m) + 4 * mlen, 2 * (1 << log_m) + 2 * mlen
        model = zw(M, L)
        b = tuple(rng.sample(range(L), mlen))
        c = tuple(rng.sample(range(L), mlen))
        required = {b[i] + c[j] for i in range(mlen) for j in range(i, mlen)}
        noise = {x for x in range(M) if rng.random() < 0.4}
        A = DenseSet.from_members(model, sorted(required | noise))
        tri = TriangularWitness(b, c)
        res = ramsey_upgrade(tri, A, model)
        assert verify_upgrade(res, A, model)
        floor_log = (mlen.bit_length() - 1) // 2
        assert len(res.indices) >= floor_log


    @pytest.mark.parametrize("mlen,spread", [(1, 2), (2, 2), (3, 16), (17, 2), (64, 16),
                                              (257, 2), (300, 16), (1024, 2)])
    def test_equals_gather_walk_zwindow(self, mlen, spread):
        # spread 2 draws the operands below 4m over a set of density 0.4, so
        # most sums below the diagonal are in A; spread 16 mixes the colours
        rng = np.random.default_rng(mlen)
        L = max(spread * mlen, 64)
        model = zw(4 * L, 2 * L)
        b = rng.choice(2 * L, mlen, replace=False)
        c = rng.choice(2 * L, mlen, replace=False)
        mask = rng.random(4 * L) < (0.4 if spread == 2 else 0.05)
        for i in range(mlen):
            mask[b[i] + c[i:]] = True
        A = DenseSet.from_members(model, np.flatnonzero(mask))
        tri = TriangularWitness(tuple(b.tolist()), tuple(c.tolist()))
        res = ramsey_upgrade(tri, A, model)
        assert res == gather_ramsey_upgrade(tri, A, model)
        assert verify_upgrade(res, A, model)

    @pytest.mark.parametrize("mlen", [1, 2, 3, 8, 40])
    @pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("M", [128, 512])
    def test_equals_gather_walk_at_the_reach_edge(self, mlen, density, M):
        # the largest b comes last and the largest c first, so the first
        # pivot colours b_{m-1} + c_0 = 2L - 2: the largest product two
        # operands form, and the last bit the walk's cut rows keep
        L = 64
        model = zw(M, L)
        rng = np.random.default_rng(mlen)
        b = rng.choice(L - 1, mlen - 1, replace=False).tolist() + [L - 1]
        c = [L - 1] + rng.choice(L - 1, mlen - 1, replace=False).tolist()
        mask = rng.random(M) < density
        for i in range(mlen):
            mask[b[i] + np.array(c[i:])] = True
        tri = TriangularWitness(tuple(b), tuple(c))
        # with m = 1 the edge lies on the diagonal, where A must hold it
        for edge in (True, False)[:1 + (mlen > 1)]:
            mask[2 * L - 2] = edge
            A = DenseSet.from_members(model, np.flatnonzero(mask))
            res = ramsey_upgrade(tri, A, model)
            assert res == gather_ramsey_upgrade(tri, A, model)
            assert verify_upgrade(res, A, model)

    @pytest.mark.parametrize("tag", ["square", "ladder"])
    def test_equals_gather_walk_forced(self, tag):
        # bench/corpus's forced inputs at m = 1024: every pair hot, or every one cold
        mlen = 1024
        model = zw(16 * mlen, 8 * mlen)
        if tag == "square":
            A = generate_set(model, Threshold(0))
            tri = TriangularWitness(tuple(range(mlen)), tuple(range(mlen, 2 * mlen)))
        else:
            A = generate_set(model, Threshold(4 * mlen))
            tri = TriangularWitness(tuple(4 * mlen - i for i in range(1, mlen + 1)),
                                    tuple(range(1, mlen + 1)))
        res = ramsey_upgrade(tri, A, model)
        assert res == gather_ramsey_upgrade(tri, A, model)
        assert (res.tag, res.indices) == (tag, tuple(range(mlen)))

    @pytest.mark.parametrize("group", ["zmod:64", "sym:5"])
    def test_equals_gather_walk_cayley(self, group):
        # on S_5 right(c) is not left(c): the walk must colour by right(c_p)
        model = model_of(group)
        n = model.carrier_size
        rng = random.Random(group)
        for _ in range(40):
            mlen = rng.randint(1, 12)
            b, c = rng.sample(range(n), mlen), rng.sample(range(n), mlen)
            members = {x for x in range(n) if rng.random() < rng.choice((0.2, 0.5))}
            members |= {model.op(b[i], c[j]) for i in range(mlen) for j in range(i, mlen)}
            A = DenseSet.from_members(model, members)
            tri = TriangularWitness(tuple(b), tuple(c))
            res = ramsey_upgrade(tri, A, model)
            assert res == gather_ramsey_upgrade(tri, A, model)
            assert verify_upgrade(res, A, model)


class TestDefinableWitness:
    def test_multiples3_aps(self):
        m = zw(1024, 512)
        A = generate_set(m, Multiples(3))
        w = definable_witness_search(A, m, "aps", 10, step_max=16)
        assert w == DefinableWitness("aps", FamilyDescriptor(0, 3, 10),
                                     FamilyDescriptor(0, 3, 10))
        assert verify_definable_witness(w, A, m)

    def test_bohr_aps_frozen(self):
        # common difference 12 makes 12 * 665857/470832 nearly integral
        m = zw(4096, 2048)
        A = generate_set(m, parse_set_spec("bohr(665857/470832,1/4)"))
        w = definable_witness_search(A, m, "aps", 8, step_max=64)
        assert w == DefinableWitness("aps", FamilyDescriptor(0, 12, 8),
                                     FamilyDescriptor(3, 12, 8))
        assert verify_definable_witness(w, A, m)

    def test_bernoulli_intervals_recorded(self):
        # an interval pair exists at this density (only 2n - 1 distinct
        # sums constrain a pair, so hits are common); recorded outcome
        m = zw(4096, 2048)
        A = generate_set(m, parse_set_spec("bernoulli(0.5,1)"))
        w = definable_witness_search(A, m, "intervals", 4)
        assert w == DefinableWitness("intervals", FamilyDescriptor(0, 1, 4),
                                     FamilyDescriptor(123, 1, 4))
        assert verify_definable_witness(w, A, m)

    def test_interval_refutation(self):
        m = zw(64, 32)
        A = generate_set(m, PowersOf2())
        assert definable_witness_search(A, m, "intervals", 3) == NotFound(
            exhaustive=True)

    def test_requires_zwindow(self):
        m = zn(8)
        A = DenseSet.from_members(m, [0, 1])
        with pytest.raises(ModelMismatch):
            definable_witness_search(A, m, "intervals", 2)

    @pytest.mark.parametrize("step_max", [0, -3])
    def test_step_max_below_one_is_an_error(self, step_max):
        # an empty family of progressions would be a definite "none"
        m = zw(64, 32)
        A = generate_set(m, PowersOf2())
        with pytest.raises(ValueError, match="step_max"):
            definable_witness_search(A, m, "aps", 2, step_max=step_max)

    def test_step_max_with_intervals_is_an_error(self):
        # intervals have step 1; a step_max there would be silently ignored
        m = zw(64, 32)
        A = generate_set(m, Multiples(2))
        for step_max in (0, 1, 8):
            with pytest.raises(ValueError, match="step_max"):
                definable_witness_search(A, m, "intervals", 2, step_max=step_max)

    def test_only_the_steps_that_fit_are_tried(self):
        # steps beyond (L - 1) / (n - 1) give no progression in [0, L)
        m = zw(64, 32)
        A = generate_set(m, PowersOf2())
        for n in (1, 3):
            assert definable_witness_search(A, m, "aps", n, step_max=10 ** 12) \
                == scan_definable_search(A, m, "aps", n, step_max=31)

    @staticmethod
    def random_instance(rng):
        L = rng.randint(2, 64)
        m = zw(rng.randint(2 * L, 2 * L + 8), L)
        p = rng.uniform(0.3, 0.9)
        A = DenseSet.from_members(m, [x for x in range(m.carrier_size) if rng.random() < p])
        family = rng.choice(["intervals", "aps"])
        step_max = rng.randint(1, 8) if family == "aps" else None
        return A, m, family, rng.randint(1, 4), step_max

    def test_equals_scan_on_random_zwindows(self):
        rng = random.Random(20261019)
        found = 0
        for _ in range(1200):
            A, m, family, n, step_max = self.random_instance(rng)
            res = definable_witness_search(A, m, family, n, step_max=step_max)
            assert res == scan_definable_search(A, m, family, n, step_max=step_max), \
                (A, m, family, n, step_max)
            found += isinstance(res, DefinableWitness)
        assert 0 < found < 1200

    @pytest.mark.parametrize("spec", ["translate(pow2,37)", "bernoulli(1/8,5)"])
    @pytest.mark.parametrize("family,n,step_max",
                             [("intervals", 2, None), ("aps", 2, 16), ("aps", 3, 16),
                              ("aps", 4, 8)])
    def test_equals_scan_on_sparse_sets(self, spec, family, n, step_max):
        m = zw(1 << 12, 1 << 11)
        A = generate_set(m, parse_set_spec(spec))
        assert definable_witness_search(A, m, family, n, step_max=step_max) \
            == scan_definable_search(A, m, family, n, step_max=step_max)

    def test_budget_gives_the_witness_or_non_exhaustive(self):
        # one node per step1 pass and per (step1, step2) pass: at most
        # s + s^2 for s steps, so every budget up to the full spend is run
        rng = random.Random(12)
        for _ in range(150):
            A, m, family, n, step_max = self.random_instance(rng)
            full = definable_witness_search(A, m, family, n, step_max=step_max)
            s = step_max or 1
            answers = [definable_witness_search(A, m, family, n, budget=b, step_max=step_max)
                       for b in range(s + s * s + 2)]
            first = answers.index(full)
            assert answers[first:] == [full] * (len(answers) - first)
            assert answers[:first] == [NotFound(exhaustive=False)] * first
            if n - 1 < m.operand_bound:  # a progression fits
                assert answers[0] == NotFound(exhaustive=False)

    def test_verify_checks_products(self):
        m = zw(100, 50)
        A = generate_set(m, Multiples(2))
        good = DefinableWitness("aps", FamilyDescriptor(0, 2, 5),
                                FamilyDescriptor(0, 2, 5))
        assert verify_definable_witness(good, A, m)
        bad = DefinableWitness("aps", FamilyDescriptor(1, 2, 5),
                               FamilyDescriptor(0, 2, 5))
        assert not verify_definable_witness(bad, A, m)


    def test_verify_rejects_stepped_intervals(self):
        m = zw(1000, 500)
        A = DenseSet.from_members(m, range(1000))
        w = DefinableWitness("intervals", FamilyDescriptor(0, 7, 4),
                             FamilyDescriptor(0, 1, 4))
        assert not verify_definable_witness(w, A, m)

    def test_verify_rejects_operands_outside_range(self):
        m = zw(1000, 500)
        A = DenseSet.from_members(m, range(1000))
        ok = FamilyDescriptor(0, 1, 4)
        for bad in (FamilyDescriptor(490, 5, 4), FamilyDescriptor(-3, 1, 4)):
            assert not verify_definable_witness(
                DefinableWitness("aps", bad, ok), A, m)
            assert not verify_definable_witness(
                DefinableWitness("aps", ok, bad), A, m)

    def test_verify_rejects_unknown_family(self):
        m = zw(1000, 500)
        A = DenseSet.from_members(m, range(1000))
        w = DefinableWitness("bogus", FamilyDescriptor(0, 1, 4),
                             FamilyDescriptor(0, 1, 4))
        assert not verify_definable_witness(w, A, m)


class TestGrowthCurve:
    def test_evens(self):
        m = zw(100, 50)
        A = generate_set(m, Multiples(2))
        curve = growth_curve(A, m, 5)
        assert [p.found for p in curve] == [True] * 5

    def test_pow2_caps_at_one(self):
        m = zw(1 << 12, 1 << 11)
        A = generate_set(m, PowersOf2())
        curve = growth_curve(A, m, 3)
        assert [(p.k, p.found) for p in curve] == [(1, True), (2, False), (3, False)]
        assert all(p.exhaustive for p in curve)

    def test_empty_set(self):
        m = zw(64, 32)
        A = DenseSet(m, 0)
        curve = growth_curve(A, m, 3)
        assert all(not p.found for p in curve)

    @pytest.mark.parametrize("model_text,spec", [
        ("zwindow:4096", f"translate({BOHR},3)"), ("zwindow:1024", "pow2"),
        ("zwindow:1024", "bernoulli(1/8,4)"), ("zmod:60", "bernoulli(1/2,8)"),
        ("sym:4", "bernoulli(1/2,2)")])
    def test_heuristic_curve_is_one_greedy_run(self, model_text, spec):
        m = model_of(model_text)
        A = generate_set(m, parse_set_spec(spec))
        curve = growth_curve(A, m, 8, mode="heuristic")
        for point in curve:
            res = find_square_witness(A, m, point.k, mode="heuristic")
            if isinstance(res, SquareWitness):
                assert point == GrowthPoint(point.k, True, res, True)
            else:
                assert point == GrowthPoint(point.k, False, None, False)

    @given(st.integers(0, 2 ** 20 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_column(self, bits):
        m = zw(20, 10)
        A = DenseSet(m, bits)
        curve = growth_curve(A, m, 5)
        found = [p.found for p in curve]
        assert found == sorted(found, reverse=True)


def random_subset(model, rng, density):
    return DenseSet.from_members(
        model, [x for x in range(model.carrier_size) if rng.random() < density])


def shuffled_lines(model, rng):
    """The table with its rows and its columns each put in a random order:
    a Latin square again, associative for some orders only."""
    rows, cols = list(model.table), list(range(model.order))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return CayleyGroup(tuple(tuple(row[j] for j in cols) for row in rows))


# S_3 and S_4: groups whose left and right translates differ
NON_ABELIAN = [symmetric_group(3), symmetric_group(4)]


class TestGroupRoot:
    """On a Cayley table that is a group, the exact square and triangular
    searches try b_1 = 0 only; any other Latin square keeps every root."""

    @staticmethod
    def latin_instances(seed, count, density):
        """Seeded random Latin squares of order 4..7, few of them groups,
        each with a random set of a density drawn from ``density``."""
        rng = random.Random(seed)
        for _ in range(count):
            model = random_latin_square(rng.randint(4, 7), rng)
            yield model, random_subset(model, rng, rng.uniform(*density))

    def test_square_equals_brute_on_latin_squares(self):
        groups = 0
        for model, A in self.latin_instances(1, 300, (0.3, 0.8)):
            groups += model.is_group
            for k in (2, 3):
                expected = brute_square(A, model, k)
                expected = SquareWitness(*expected) if expected else NotFound(exhaustive=True)
                assert find_square_witness(A, model, k) == expected
        assert 0 < groups < 30

    def test_triangular_equals_brute_on_latin_squares(self):
        # a triangular witness rarely needs a b_1 other than 0, so it takes
        # more instances than the square test for a cut root to show
        for model, A in self.latin_instances(2, 1500, (0.3, 0.7)):
            for m in (2, 3):
                res = find_triangular_witness(A, model, m)
                if brute_triangular_exists(A, model, m):
                    assert verify_triangular_witness(res, A, model)
                else:
                    assert res == NotFound(exhaustive=True)

    @pytest.mark.parametrize("model", [zn(1), zn(2), zn(7), zn(12), *NON_ABELIAN],
                             ids=["z1", "z2", "z7", "z12", "s3", "s4"])
    def test_equals_full_root_search_on_groups(self, model):
        assert model.is_group
        rng = random.Random(model.order)
        for _ in range(12):
            A = random_subset(model, rng, rng.uniform(0.3, 0.9))
            for k in (1, 2, 3, 4):
                assert find_square_witness(A, model, k) == full_root_square_witness(A, model, k)
                assert find_triangular_witness(A, model, k) \
                    == full_root_triangular_witness(A, model, k)

    @pytest.mark.parametrize("model", [zn(12), *NON_ABELIAN], ids=["z12", "s3", "s4"])
    def test_budget_gives_the_full_root_answer_or_exhausts_sooner(self, model):
        """The 0 branch is walked first either way, so under any budget the
        answers agree, except that one root can finish a refutation the
        full root ran out of budget on."""
        rng = random.Random(model.order + 1)
        for _ in range(6):
            A = random_subset(model, rng, rng.uniform(0.4, 0.8))
            for k in (3, 4):
                for find, full in ((find_square_witness, full_root_square_witness),
                                   (find_triangular_witness, full_root_triangular_witness)):
                    unlimited = full(A, model, k)
                    for budget in (0, 1, 2, 3, 5, 8, 13, 30, 100, 300):
                        got, old = find(A, model, k, budget=budget), full(A, model, k, budget=budget)
                        if got != old:
                            assert old == NotFound(exhaustive=False)
                            assert got == unlimited == NotFound(exhaustive=True)

    def test_zmod64_refutation_is_exhaustive_within_budget(self):
        """The full root needs 1,579,801 nodes for this refutation, the 0
        branch 118,438."""
        m = zn(64)
        A = generate_set(m, parse_set_spec("bernoulli(1/2,7)"))
        assert find_square_witness(A, m, 8, budget=200_000) == NotFound(exhaustive=True)
        assert find_square_witness(A, m, 8, budget=118_437) == NotFound(exhaustive=False)

    def test_zmod32_triangular_refutation_walks_one_branch(self):
        """On Z_32 every root's branch is a translate of the 0 branch, so
        the full root spends 32 times the 716 nodes of one."""
        m = zn(32)
        A = generate_set(m, parse_set_spec("bernoulli(1/2,7)"))
        assert find_triangular_witness(A, m, 10, budget=716) == NotFound(exhaustive=True)
        assert find_triangular_witness(A, m, 10, budget=715) == NotFound(exhaustive=False)
        assert full_root_triangular_witness(A, m, 10, budget=32 * 716) \
            == NotFound(exhaustive=True)
        assert full_root_triangular_witness(A, m, 10, budget=32 * 716 - 1) \
            == NotFound(exhaustive=False)

    def test_growth_curve_takes_the_one_root(self):
        m = zn(64)
        A = generate_set(m, parse_set_spec("bernoulli(1/2,7)"))
        curve = growth_curve(A, m, 9, budget=200_000)
        assert [p.found for p in curve] == [True] * 7 + [False] * 2
        assert all(p.exhaustive for p in curve)


class TestIsGroup:
    def test_cyclic_tables(self):
        for n in range(1, 13):
            assert zn(n).is_group == brute_is_associative(zn(n)) is True

    @pytest.mark.parametrize("model", NON_ABELIAN, ids=["s3", "s4"])
    def test_non_abelian(self, model):
        assert model.is_group == brute_is_associative(model) is True

    def test_shuffled_cyclic_tables(self):
        rng = random.Random(5)
        seen = set()
        for _ in range(200):
            model = shuffled_lines(zn(rng.randint(2, 8)), rng)
            assert model.is_group == brute_is_associative(model)
            seen.add(model.is_group)
        assert seen == {False, True}

    @pytest.mark.parametrize("table,group", [
        (((0, 0), (1, 1)), False),  # x·y = x: associative, no identity
        (((0, 0), (0, 1)), False),  # x·y = min(x, y): identity 1, 0 has no inverse
        (((0, 0), (0, 0)), False),
        (((0,),), True),  # the one Latin square here
    ], ids=["left-zero", "min", "zero", "trivial"])
    def test_tables_built_without_the_latin_check(self, table, group):
        model = CayleyGroup(table)
        assert model.is_group is group
        # x·y = x: only b = 1 has a row in A = {1}, so the root must keep it
        A = DenseSet.from_members(model, [model.order - 1])
        assert isinstance(find_square_witness(A, model, 1), SquareWitness) \
            == any(A.contains(x) for row in table for x in row)

    @pytest.mark.parametrize("loop", [False, True], ids=["any", "loop"])
    def test_random_latin_squares(self, loop):
        rng = random.Random(6)
        seen = set()
        for _ in range(200):
            model = random_latin_square(rng.randint(1, 7), rng, loop)
            assert model.is_group == brute_is_associative(model)
            seen.add(model.is_group)
        assert seen == {False, True}


# A set with every other carrier element, over a model other than the one
# each call is given: a ZWindow of another size, a Cayley group, and back.
OTHER_MODEL = [(zw(64, 32), zw(128, 64)), (zn(8), zw(64, 32)), (zw(64, 32), zn(8))]
SQUARE = SquareWitness((0,), (0,))
TRIANGULAR = TriangularWitness((0,), (0,))
INTERVALS = DefinableWitness("intervals", FamilyDescriptor(0, 1, 1),
                             FamilyDescriptor(0, 1, 1))
ON_A_MODEL = {
    "square": lambda A, m: find_square_witness(A, m, 2),
    "square-heuristic": lambda A, m: find_square_witness(A, m, 2, mode="heuristic"),
    "triangular": lambda A, m: find_triangular_witness(A, m, 2),
    "triangular-scorer": lambda A, m: find_triangular_witness(A, m, 2, scorer="pool_size"),
    "greedy": lambda A, m: greedy_back_and_forth(A, m, 2),
    "growth": lambda A, m: growth_curve(A, m, 2),
    "ladder": lambda A, m: max_ladder(A, m, 2),
    "definable": lambda A, m: definable_witness_search(A, m, "intervals", 1),
    "upgrade": lambda A, m: ramsey_upgrade(TRIANGULAR, A, m),
    "verify-square": lambda A, m: verify_square_witness(SQUARE, A, m),
    "verify-triangular": lambda A, m: verify_triangular_witness(TRIANGULAR, A, m),
    "verify-ladder": lambda A, m: verify_ladder(LadderCertificate((0,), (0,)), A, m),
    "verify-definable": lambda A, m: verify_definable_witness(INTERVALS, A, m),
    "verify-upgrade": lambda A, m: verify_upgrade(
        UpgradeResult("square", (0,), SQUARE, None), A, m),
}


@pytest.mark.parametrize("models", OTHER_MODEL,
                         ids=["zwindow-zwindow", "zmod-zwindow", "zwindow-zmod"])
@pytest.mark.parametrize("call", ON_A_MODEL.values(), ids=ON_A_MODEL.keys())
def test_set_from_another_model_is_refused(models, call):
    own, other = models
    A = DenseSet.from_members(own, range(0, own.carrier_size, 2))
    with pytest.raises(ModelMismatch):
        call(A, other)
