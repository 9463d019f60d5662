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
    verify_density_certificate,
    verify_good_point,
)

from .oracles import scan_good_points


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
