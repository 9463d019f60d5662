import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumcore import (
    DefinableWitness,
    DenseSet,
    FamilyDescriptor,
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
from sumcore.search import Budget
from sumcore.setspec import splitmix_stream
from sumcore.witness import _ANCHOR_LIMIT, _anchor_square_exists

from .oracles import brute_square, greedy_square, power_quadruple_solutions
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

    @given(st.integers(0, 2 ** 20 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_column(self, bits):
        m = zw(20, 10)
        A = DenseSet(m, bits)
        curve = growth_curve(A, m, 5)
        found = [p.found for p in curve]
        assert found == sorted(found, reverse=True)


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
