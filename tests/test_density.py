from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumcore import (
    BadAlpha,
    BadInterval,
    DenseSet,
    GoodPoint,
    ModelMismatch,
    Multiples,
    PartitionCertificate,
    PowersOf2,
    WindowTooLarge,
    banach_density,
    build_model,
    density_schedule,
    find_regular_point,
    generate_set,
    min_window_density,
    parse_set_spec,
    verify_density_certificate,
    verify_good_point,
)

from .oracles import list_walk_regular_point, scan_good_points, walk_regular_point


SCALE = 1 << 18


def zw(M, L):
    return build_model({"kind": "zwindow", "M": M, "L": L})


class TestBanachDensity:
    def test_evens(self):
        m = zw(100, 50)
        A = generate_set(m, Multiples(2))
        rep = banach_density(A, 10)
        assert rep.density == Fraction(1, 2)
        assert rep.count == 5

    def test_full_carrier(self):
        m = zw(60, 30)
        A = DenseSet.from_members(m, range(60))
        for n in (1, 7, 60):
            assert banach_density(A, n).density == 1

    def test_pow2_frozen(self):
        m = zw(1 << 16, 1 << 15)
        A = generate_set(m, PowersOf2())
        rep = banach_density(A, 256)
        assert rep.density == Fraction(9, 256)
        assert rep.best_start == 1
        assert rep.count == 9

    def test_window_bounds(self):
        m = zw(10, 5)
        A = DenseSet.from_members(m, [1])
        with pytest.raises(WindowTooLarge):
            banach_density(A, 0)
        with pytest.raises(WindowTooLarge):
            banach_density(A, 11)

    def test_min_window_companion(self):
        m = zw(100, 50)
        A = DenseSet.from_members(m, range(50, 100))
        assert min_window_density(A, 10).density == 0
        assert banach_density(A, 10).density == 1

    def test_schedule(self):
        m = zw(100, 50)
        A = generate_set(m, Multiples(2))
        reps = density_schedule(A, [2, 10, 50])
        assert [r.window_length for r in reps] == [2, 10, 50]
        assert all(r.density == Fraction(1, 2) for r in reps)

    @given(st.integers(0, 2 ** 30 - 1), st.integers(0, 2 ** 30 - 1),
           st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_inclusion(self, bits, extra, n):
        m = zw(30, 15)
        A = DenseSet(m, bits)
        B = DenseSet(m, bits | extra)
        assert banach_density(A, n).density <= banach_density(B, n).density


class TestFindRegularPoint:
    def test_full_interval_good_at_start(self):
        m = zw(100, 50)
        A = DenseSet.from_members(m, range(20, 60))
        res = find_regular_point(A, (20, 60), Fraction(1), 10)
        assert isinstance(res, GoodPoint)
        assert res.x == 20
        assert verify_good_point(res, A)

    def test_jumps_through_empty_half(self):
        m = zw(100, 50)
        A = DenseSet.from_members(m, range(50, 100))
        res = find_regular_point(A, (0, 100), Fraction(1), 10)
        assert isinstance(res, GoodPoint)
        assert res.x == 50
        # oracle: 50 is the least good point in the interval
        assert scan_good_points(A, (0, 100), Fraction(1), 10)[0] == 50

    def test_multiples10_partition(self):
        m = zw(100, 50)
        A = generate_set(m, Multiples(10))
        res = find_regular_point(A, (0, 100), Fraction(1, 2), 5)
        assert isinstance(res, PartitionCertificate)
        assert verify_density_certificate(res, A)
        # oracle: no good point exists anywhere in the interval
        assert scan_good_points(A, (0, 100), Fraction(1, 2), 5) == []
        # the implied bound, exactly: 10/100 < 1/4 + 5/100
        assert Fraction(10, 100) < Fraction(1, 4) + Fraction(5, 100)

    def test_partition_perturbed_cut_fails(self):
        m = zw(100, 50)
        A = generate_set(m, Multiples(10))
        cert = find_regular_point(A, (0, 100), Fraction(1, 2), 5)
        cuts = list(cert.cuts)
        cuts[1] += 1
        bad = replace(cert, cuts=tuple(cuts))
        assert not verify_density_certificate(bad, A)

    def test_partition_wrong_set_fails(self):
        m = zw(100, 50)
        A = generate_set(m, Multiples(10))
        cert = find_regular_point(A, (0, 100), Fraction(1, 2), 5)
        full = DenseSet.from_members(m, range(100))
        assert not verify_density_certificate(cert, full)

    def test_model_mismatch(self):
        m = zw(100, 50)
        A = generate_set(m, Multiples(10))
        cert = find_regular_point(A, (0, 100), Fraction(1, 2), 5)
        other = DenseSet.from_members(zw(50, 25), [0])
        with pytest.raises(ModelMismatch):
            verify_density_certificate(cert, other)

    def test_verify_rejects_out_of_range_good_point(self):
        m = zw(100, 50)
        A = generate_set(m, Multiples(2))
        half = Fraction(1, 2)
        assert verify_good_point(GoodPoint(0, half, 2, (0, 10)), A)
        # numpy would index a negative x from the end of the prefix counts
        assert not verify_good_point(GoodPoint(-3, half, 2, (-5, 10)), A)
        assert not verify_good_point(GoodPoint(2, half, 2, (-5, 10)), A)
        assert not verify_good_point(GoodPoint(90, half, 2, (80, 120)), A)
        assert not verify_good_point(GoodPoint(0, half, 0, (0, 10)), A)

    def test_bad_arguments(self):
        m = zw(100, 50)
        A = DenseSet.from_members(m, [1])
        with pytest.raises(BadInterval):
            find_regular_point(A, (50, 20), Fraction(1, 2), 5)
        with pytest.raises(BadAlpha):
            find_regular_point(A, (0, 100), Fraction(3, 2), 5)
        with pytest.raises(BadInterval):
            find_regular_point(A, (0, 100), Fraction(1, 2), 101)

    @given(st.integers(0, 2 ** 60 - 1), st.sampled_from([1, 2, 3]),
           st.integers(1, 12))
    @settings(max_examples=120, deadline=None)
    def test_dichotomy_and_completeness(self, bits, alpha_idx, N):
        m = zw(60, 30)
        A = DenseSet(m, bits)
        alpha = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)][alpha_idx - 1]
        res = find_regular_point(A, (0, 60), alpha, N)
        if isinstance(res, GoodPoint):
            assert verify_good_point(res, A)
        else:
            assert verify_density_certificate(res, A)
            # completeness: a certificate implies the density bound, so
            # a dense-enough interval must have produced a good point
            assert Fraction(len(A), 60) < alpha / 2 + Fraction(N, 60)

    @given(st.integers(0, 2 ** 80 - 1), st.integers(0, 2 ** 80 - 1),
           st.integers(0, 79), st.integers(1, 80), st.integers(1, 12),
           st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]))
    @settings(max_examples=150, deadline=None)
    def test_walk_matches_scalar_walk(self, bits, other, a, b, N, alpha):
        # sparse sets: the walk crosses runs of non-members in one step
        A = DenseSet(zw(80, 40), bits & other & (bits >> 3))
        a, b = min(a, b - 1), max(a + 1, b)
        N = min(N, b - a)
        res = find_regular_point(A, (a, b), alpha, N)
        if isinstance(res, GoodPoint):
            got = ("good", res.x)
        else:
            got = ("partition", res.cuts, res.block_counts)
        assert got == walk_regular_point(A, (a, b), alpha, N)

    @pytest.mark.parametrize("spec", [
        "bernoulli(1/32,3)", "translate(pow2,17)", "multiples(7)",
        "explicit(" + ",".join(str(4093 * i + 11) for i in range(64)) + ")",
        f"threshold({SCALE - SCALE // 16})", f"complement(threshold({SCALE // 8}))", None,
    ], ids=["bern32", "pow2-tr", "mult7", "explicit64", "thr-tail", "head", "empty"])
    def test_walk_matches_list_walk_at_scale(self, spec):
        # the array walk against the list walk it replaced, on an interval
        # that ends at the carrier's end; 1/10^30 takes the dtype-object path
        m = zw(SCALE, SCALE // 2)
        A = DenseSet(m, 0) if spec is None else generate_set(m, parse_set_spec(spec))
        a, b = 12345, SCALE
        for N in (1, 64, 4096, b - a):
            for alpha in (Fraction(1, 2), Fraction(1), Fraction(1, 10 ** 30)):
                res = find_regular_point(A, (a, b), alpha, N)
                assert res == list_walk_regular_point(A, (a, b), alpha, N)
        if spec is not None and spec.startswith("complement"):  # dense from a
            assert find_regular_point(A, (a, b), Fraction(1, 2), 64).x == a

    def test_good_point_is_least(self):
        # the walk's result equals the first good point of the scan oracle
        m = zw(80, 40)
        A = DenseSet.from_members(m, list(range(10, 25)) + list(range(40, 80, 2)))
        for alpha in (Fraction(1, 4), Fraction(1, 2)):
            for N in (3, 8):
                res = find_regular_point(A, (0, 80), alpha, N)
                good = scan_good_points(A, (0, 80), alpha, N)
                if isinstance(res, GoodPoint):
                    assert good and res.x == good[0]
                else:
                    assert good == []


def _answer(verify, cert, A):
    """The verifier's verdict, or the name of the error it raises."""
    try:
        return verify(cert, A)
    except Exception as exc:  # the error type is part of the answer
        return type(exc).__name__


class TestVerifierMutations:
    """Mutated certificates get the verdicts the scalar verifiers gave."""

    @staticmethod
    def pow2_certificate():
        A = generate_set(zw(4096, 2048), PowersOf2())
        cert = find_regular_point(A, (0, 4096), Fraction(1, 2), 64)
        assert isinstance(cert, PartitionCertificate)
        assert verify_density_certificate(cert, A)
        return cert, A

    @staticmethod
    def with_count(cert, k, value):
        counts = list(cert.block_counts)
        counts[k] = value
        return replace(cert, block_counts=tuple(counts))

    @staticmethod
    def with_cut(cert, k, value):
        cuts = list(cert.cuts)
        cuts[k] = value
        return replace(cert, cuts=tuple(cuts))

    @pytest.mark.parametrize("value", [1.5, Fraction(3, 2)])
    def test_fractional_block_count(self, value):
        # a truncating int64 cast would read 1.5 as 1 and accept it
        cert, A = self.pow2_certificate()
        k = cert.block_counts.index(1)
        assert verify_density_certificate(self.with_count(cert, k, value), A) is False

    def test_block_counts_one_short(self):
        cert, A = self.pow2_certificate()
        short = replace(cert, block_counts=cert.block_counts[:-1])
        assert verify_density_certificate(short, A) is False

    def test_float_or_string_cut_is_rejected(self):
        cert, A = self.pow2_certificate()
        for value in (float(cert.cuts[1]), cert.cuts[1] - 0.5, str(cert.cuts[1])):
            bad = self.with_cut(cert, 1, value)
            assert _answer(verify_density_certificate, bad, A) is False

    @pytest.mark.parametrize("field, value", [
        ("alpha", 0.5), ("alpha", "1/2"), ("horizon", 64.0), ("interval", (0.0, 4096)),
    ])
    def test_malformed_field_is_rejected(self, field, value):
        cert, A = self.pow2_certificate()
        assert _answer(verify_density_certificate, replace(cert, **{field: value}), A) is False

    @pytest.mark.parametrize("field, value", [
        ("x", 1.0), ("alpha", "1/2"), ("alpha", 0.5), ("horizon", 64.0),
        ("interval", (0, 4096.0)),
    ])
    def test_malformed_good_point_is_rejected(self, field, value):
        A = generate_set(zw(4096, 2048), PowersOf2())
        good = find_regular_point(A, (0, 4096), Fraction(1, 10 ** 30), 64)
        assert verify_good_point(good, A) is True
        assert _answer(verify_good_point, replace(good, **{field: value}), A) is False

    def test_cuts_out_of_order_or_range(self):
        cert, A = self.pow2_certificate()
        cuts, last = cert.cuts, len(cert.cuts) - 1
        swapped = replace(cert, cuts=(cuts[0], cuts[2], cuts[1]) + cuts[3:])
        for bad in (swapped, self.with_cut(cert, 1, -1),
                    self.with_cut(cert, 0, -1), self.with_cut(cert, last, 4097),
                    self.with_cut(cert, last - 1, 5000)):
            assert verify_density_certificate(bad, A) is False

    def test_alpha_beyond_int64(self):
        # 2 * count * 10**30 leaves int64: the check runs on Python ints
        cert, A = self.pow2_certificate()
        tiny = Fraction(1, 10 ** 30)
        assert verify_density_certificate(replace(cert, alpha=tiny), A) is False
        # no member of pow2 in [1025, 1985]: every block is empty and sparse
        exact = find_regular_point(A, (1025, 2048), tiny, 64)
        assert isinstance(exact, PartitionCertificate)
        assert verify_density_certificate(exact, A) is True
        assert verify_density_certificate(self.with_count(exact, 0, 1), A) is False
        good = find_regular_point(A, (0, 4096), tiny, 64)
        assert good == GoodPoint(1, tiny, 64, (0, 4096))
        assert verify_good_point(good, A) is True
        assert verify_good_point(replace(good, x=3), A) is False

    def test_shifted_good_point(self):
        m = zw(100, 50)
        A = DenseSet.from_members(m, range(10))
        good = find_regular_point(A, (0, 100), Fraction(1), 20)
        assert good == GoodPoint(0, Fraction(1), 20, (0, 100))
        assert verify_good_point(good, A) is True
        assert verify_good_point(replace(good, x=1), A) is False
        assert verify_good_point(replace(good, x=-1, interval=(-1, 100)), A) is False
        assert verify_good_point(replace(good, horizon=21), A) is False
        assert _answer(verify_good_point, replace(good, horizon=101), A) == "ModelMismatch"
