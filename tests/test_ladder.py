import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumcore import (
    DenseSet,
    LadderCertificate,
    ModelMismatch,
    Multiples,
    PowersOf2,
    Threshold,
    build_model,
    cyclic_table,
    generate_set,
    max_ladder,
    parse_set_spec,
    verify_ladder,
)

from .oracles import brute_max_ladder, dfs_max_ladder


def zw(M, L):
    return build_model({"kind": "zwindow", "M": M, "L": L})


def zn(n):
    return build_model({"kind": "cayley", "table": [list(r) for r in cyclic_table(n)]})


def s3():
    """S_3 as the composition table of the permutations of {0, 1, 2}."""
    perms = list(itertools.permutations(range(3)))
    table = [[perms.index(tuple(p[q[x]] for x in range(3))) for q in perms]
             for p in perms]
    return build_model({"kind": "cayley", "table": table})


@st.composite
def twin_rich_zwindow(draw):
    """A union of 1-2 progressions over a ZWindow of M <= 48, sometimes
    with a threshold tail [t, M) and one element flipped: many equal
    windows, so many twins, and ladders longer than 1."""
    M = draw(st.integers(4, 48))
    m = zw(M, draw(st.integers(2, M // 2)))
    bits = 0
    for _ in range(draw(st.integers(1, 2))):
        q = draw(st.integers(1, 6))
        bits |= sum(1 << x for x in range(draw(st.integers(0, q - 1)), M, q))
    if draw(st.booleans()):
        bits |= (1 << M) - (1 << draw(st.integers(0, M - 1)))
    if draw(st.booleans()):
        bits ^= 1 << draw(st.integers(0, M - 1))
    return m, DenseSet(m, bits)


def assert_matches_dfs(m, A, k_max):
    got = max_ladder(A, m, k_max)
    k, bs, cs = dfs_max_ladder(A, m, k_max)
    cert = LadderCertificate(bs, cs) if k else None
    assert (got.k, got.certificate, got.lower_bound_only) == (k, cert, False)


class TestMaxLadder:
    def test_empty_set(self):
        m = zw(100, 50)
        A = DenseSet(m, 0)
        res = max_ladder(A, m, 3)
        assert res.k == 0
        assert res.certificate is None

    def test_multiples3_is_one(self):
        # k=2 is impossible: three sums divisible by 3 force the fourth
        m = zw(300, 150)
        A = generate_set(m, Multiples(3))
        res = max_ladder(A, m, 2)
        assert res.k == 1
        assert not res.lower_bound_only
        assert verify_ladder(res.certificate, A, m)

    def test_threshold_reaches_kmax(self):
        m = zw(256, 128)
        A = generate_set(m, Threshold(64))
        res = max_ladder(A, m, 8)
        assert res.k == 8
        assert verify_ladder(res.certificate, A, m)
        # frozen canonical certificate
        assert res.certificate == LadderCertificate(
            (127, 63, 62, 61, 60, 59, 58, 57), (0, 1, 2, 3, 4, 5, 6, 7))

    def test_deep_ladder_answers(self):
        # one tree level per (b, c) pair: 1500 levels
        m = zw(4096, 2048)
        A = generate_set(m, Threshold(2048))
        res = max_ladder(A, m, 1500)
        assert (res.k, res.lower_bound_only) == (1500, False)
        assert verify_ladder(res.certificate, A, m)

    def test_budget_exhaustion_flagged(self):
        m = zw(300, 150)
        A = generate_set(m, Multiples(3))
        res = max_ladder(A, m, 2, budget=10)
        assert res.lower_bound_only
        assert res.k <= 1

    def test_budget_runs_out_between_c_candidates(self):
        # the walk pairs b = 127, 63, 62 with c = 0, 1, 2 in 6 nodes; a
        # smaller budget runs out on a c candidate (after b = 127 under one
        # node) and keeps the longest ladder found so far
        m = zw(256, 128)
        A = generate_set(m, Threshold(64))
        got = [max_ladder(A, m, 3, budget=budget) for budget in (1, 2, 4, 6)]
        assert [(r.k, r.lower_bound_only, r.nodes) for r in got] == \
            [(0, True, 1), (1, True, 2), (2, True, 4), (3, False, 6)]
        assert got[2].certificate == LadderCertificate((127, 63), (0, 1))
        assert got[3].certificate == LadderCertificate((127, 63, 62), (0, 1, 2))

    def test_negative_budget_is_malformed(self):
        m = zw(300, 150)
        A = generate_set(m, Multiples(3))
        assert max_ladder(A, m, 2, budget=0).lower_bound_only
        with pytest.raises(ValueError, match="budget"):
            max_ladder(A, m, 2, budget=-1)

    def test_monotone_in_kmax(self):
        m = zw(256, 128)
        A = generate_set(m, Threshold(64))
        ks = [max_ladder(A, m, k_max).k for k_max in (1, 2, 4, 6)]
        assert ks == sorted(ks)

    def test_oracle_equivalence_groups(self):
        # exhaustive over all subsets of Z_n for small n, k <= 3
        for n in (3, 4, 5):
            m = zn(n)
            for bits in range(1 << n):
                A = DenseSet(m, bits)
                got = max_ladder(A, m, 3)
                assert not got.lower_bound_only
                assert got.k == brute_max_ladder(A, m, 3), (n, bits)

    def test_oracle_equivalence_larger_groups_sampled(self):
        import random

        rng = random.Random(7)
        for n in (6, 7, 8):
            m = zn(n)
            for _ in range(25):
                A = DenseSet(m, rng.getrandbits(n))
                assert max_ladder(A, m, 3).k == brute_max_ladder(A, m, 3)

    @given(st.integers(1, 2 ** 12 - 1))
    @settings(max_examples=60, deadline=None)
    def test_oracle_equivalence_zwindow(self, bits):
        m = zw(12, 6)
        A = DenseSet(m, bits)
        got = max_ladder(A, m, 3)
        assert got.k == brute_max_ladder(A, m, 3)
        if got.certificate is not None:
            assert verify_ladder(got.certificate, A, m)

    @given(twin_rich_zwindow(), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_same_ladder_as_unreduced_search_zwindow(self, inst, k_max):
        assert_matches_dfs(*inst, k_max)

    @given(st.integers(2, 12), st.integers(0, 2 ** 12 - 1), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_same_ladder_as_unreduced_search_zn(self, n, bits, k_max):
        m = zn(n)
        assert_matches_dfs(m, DenseSet(m, bits & m.operand_mask), k_max)

    @given(st.integers(0, 63), st.integers(1, 4))
    @settings(max_examples=64, deadline=None)
    def test_same_ladder_as_unreduced_search_s3(self, bits, k_max):
        # not commutative: row and column classes differ
        m = s3()
        assert_matches_dfs(m, DenseSet(m, bits), k_max)

    @given(st.integers(16, 64), st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_same_ladder_as_unreduced_search_sparse(self, M, seed, k_max):
        # small c-pools: the walk skips the b's whose rows miss them
        rng = random.Random(seed)
        m = zw(M, M // 2)
        A = DenseSet.from_members(m, [x for x in range(M) if rng.random() < 0.15])
        assert_matches_dfs(m, A, k_max)

    def test_sparse_twin_free_set_at_scale(self):
        # pow2 has no twins and each b meets about one c; trying every b
        # below each first pair took 33.5M nodes at 2^14 and did not
        # finish at 2^16
        m = zw(1 << 16, 1 << 15)
        A = generate_set(m, PowersOf2())
        t0 = time.time()
        res = max_ladder(A, m, 2)
        assert time.time() - t0 < 10
        assert (res.k, res.lower_bound_only) == (2, False)
        assert res.certificate == LadderCertificate((16384, 0), (0, 16384))
        assert res.nodes <= 1 << 16

    def test_stable_set_answers_within_small_budget(self):
        # three twin classes a side; a walk over every operand needs
        # 384,481,200 nodes here
        m = zw(2400, 1200)
        A = generate_set(m, Multiples(3))
        res = max_ladder(A, m, 2, budget=10_000)
        assert (res.k, res.lower_bound_only) == (1, False)
        assert res.nodes <= 100

    @pytest.mark.parametrize("spec", ["threshold(16384)", "multiples(3)",
                                      "bernoulli(1/2,7)"])
    def test_twin_classes_at_scale(self, spec):
        # 32768 operands a side: threshold windows are 2^L - 2^j, which a
        # dict of big ints would hash into 61 buckets
        m = zw(65536, 32768)
        A = generate_set(m, parse_set_spec(spec))
        t0 = time.time()
        res = max_ladder(A, m, 2)
        assert time.time() - t0 < 1
        assert not res.lower_bound_only
        assert verify_ladder(res.certificate, A, m)

    def test_coset_stability(self):
        # cosets of subgroups have equal-or-disjoint translates, which
        # rules out any 2-ladder
        for n in range(2, 13):
            m = zn(n)
            for d in range(1, n + 1):
                if n % d:
                    continue
                for g in range(d):
                    A = DenseSet.from_members(m, [(g + h) % n for h in range(0, n, d)])
                    assert max_ladder(A, m, 3).k <= 1

    def test_general_coset_union_can_climb(self):
        # a union of two cosets of {0,4} in Z_8 carries a 2-ladder, so
        # the stability guarantee is really about single cosets
        m = zn(8)
        A = DenseSet.from_members(m, [0, 1, 4, 5])
        res = max_ladder(A, m, 3)
        assert res.k == 2
        assert verify_ladder(res.certificate, A, m)


class TestVerifyLadder:
    def test_round_trip(self):
        m = zw(256, 128)
        A = generate_set(m, Threshold(64))
        res = max_ladder(A, m, 3)
        assert verify_ladder(res.certificate, A, m)

    def test_swap_breaks_pattern(self):
        m = zw(256, 128)
        A = generate_set(m, Threshold(64))
        cert = max_ladder(A, m, 3).certificate
        b = list(cert.b)
        b[0], b[1] = b[1], b[0]
        assert not verify_ladder(LadderCertificate(tuple(b), cert.c), A, m)

    def test_k1_vacuous(self):
        m = zw(100, 50)
        A = DenseSet.from_members(m, [10])
        assert verify_ladder(LadderCertificate((3,), (7,)), A, m)

    def test_distinctness_required(self):
        m = zw(100, 50)
        A = DenseSet.from_members(m, range(100))
        assert not verify_ladder(LadderCertificate((1, 1), (2, 3)), A, m)

    def test_out_of_carrier_is_false(self):
        m = zw(100, 50)
        A = DenseSet.from_members(m, [10])
        assert verify_ladder(LadderCertificate((120,), (0,)), A, m) is False
        with pytest.raises(ModelMismatch):  # the set lives over another model
            verify_ladder(LadderCertificate((1,), (0,)), A, zw(200, 50))

    def test_length_mismatch(self):
        m = zw(100, 50)
        A = DenseSet.from_members(m, range(100))
        assert not verify_ladder(LadderCertificate((1, 2), (3,)), A, m)
