"""Acceptance suite: one test per release criterion.

Each criterion is checked at its stated scale and tolerance; expected
values marked as frozen were derived from the independent oracles in
``tests/oracles.py`` (or external solvers, where noted) before being
pinned here.
"""

import json
import math
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from sumcore import (
    CoverCertificate,
    DenseSet,
    GoodPoint,
    Multiples,
    NotFound,
    PowersOf2,
    SquareWitness,
    Threshold,
    TriangularWitness,
    banach_density,
    build_model,
    counting_lower_bound,
    cyclic_table,
    find_regular_point,
    find_square_witness,
    generate_set,
    growth_curve,
    max_ladder,
    min_translate_cover,
    parse_set_spec,
    ramsey_upgrade,
    verify_cover,
    verify_density_certificate,
    verify_good_point,
    verify_square_witness,
    verify_upgrade,
)
from sumcore.cli import main as cli_main

from .oracles import brute_max_ladder, brute_square, power_quadruple_solutions


def zw(M, L):
    return build_model({"kind": "zwindow", "M": M, "L": L})


def zn(n):
    return build_model({"kind": "cayley", "table": [list(r) for r in cyclic_table(n)]})


def random_bits(rng, M, thin):
    """Random M-bit set; AND-ing thins the density toward 2^-thin."""
    bits = rng.getrandbits(M)
    for _ in range(thin - 1):
        bits &= rng.getrandbits(M)
    return bits


def test_criterion_1_regular_point_sound_and_complete():
    # >= 1000 random instances, alpha in {1/4, 1/2, 3/4}, N <= 64:
    # every GoodPoint passes all prefix checks, every certificate
    # satisfies the exact bound, and dense intervals always yield a
    # GoodPoint; all checks in exact rational arithmetic
    rng = random.Random(20240)
    alphas = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    t0 = time.time()
    n_goods = n_parts = 0
    for trial in range(1000):
        M = rng.choice([80, 200, 500, 1000, 4000]) if trial % 50 else 10 ** 5
        m = zw(M, M // 2)
        A = DenseSet(m, random_bits(rng, M, rng.randint(1, 3)))
        alpha = rng.choice(alphas)
        N = rng.randint(1, min(64, M))
        res = find_regular_point(A, (0, M), alpha, N)
        if isinstance(res, GoodPoint):
            n_goods += 1
            assert verify_good_point(res, A)
        else:
            n_parts += 1
            assert verify_density_certificate(res, A)
            # completeness, contrapositive: a certificate is only legal
            # below the density bound
            assert Fraction(len(A), M) < alpha / 2 + Fraction(N, M)
    assert n_goods and n_parts  # both regimes actually exercised
    assert time.time() - t0 < 60


def test_criterion_2_witness_oracle_equivalence():
    t0 = time.time()
    # all 2^8 subsets of Z_8, k in {1, 2, 3}
    m8 = zn(8)
    for bits in range(1 << 8):
        A = DenseSet(m8, bits)
        for k in (1, 2, 3):
            got = find_square_witness(A, m8, k)
            want = brute_square(A, m8, k)
            if want is None:
                assert got == NotFound(exhaustive=True)
            else:
                assert (got.b, got.c) == want

    # 1000 random ZWindow instances with M <= 24
    rng = random.Random(99)
    for _ in range(1000):
        M = rng.randint(8, 24)
        m = zw(M, M // 2)
        A = DenseSet(m, random_bits(rng, M, rng.randint(1, 2)))
        for k in (1, 2, 3):
            got = find_square_witness(A, m, k)
            want = brute_square(A, m, k)
            if want is None:
                assert got == NotFound(exhaustive=True)
            else:
                assert (got.b, got.c) == want
    assert time.time() - t0 < 300


def test_criterion_3_powers_of_two_refuted():
    m = zw(1 << 16, 1 << 15)
    A = generate_set(m, PowersOf2())
    res = find_square_witness(A, m, 2, mode="exact")
    assert res == NotFound(exhaustive=True)
    # independent oracle: any 2x2 sum square forces a power quadruple
    # 2^a + 2^d = 2^b + 2^c with {a,d} != {b,c}; none exist in range
    assert power_quadruple_solutions(17) == []
    curve = growth_curve(A, m, 3)
    assert [(p.k, p.found) for p in curve] == [(1, True), (2, False), (3, False)]
    assert all(p.exhaustive for p in curve)


def _random_triangular_instance(rng, mlen):
    L = max(2 * mlen, 64)
    M = 4 * L
    model = zw(M, 2 * L)
    b = tuple(rng.sample(range(L), mlen))
    c = tuple(rng.sample(range(L), mlen))
    bs = np.array(b)[:, None] + np.array(c)[None, :]
    iu = np.triu_indices(mlen)
    required = np.unique(bs[iu])
    mask = np.random.RandomState(rng.getrandbits(31)).rand(M) < 0.4
    mask[required] = True
    bits = int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")
    return model, DenseSet(model, bits), TriangularWitness(b, c)


def test_criterion_4_ramsey_upgrade():
    t0 = time.time()
    rng = random.Random(4)
    sizes = [rng.randint(4, 256) for _ in range(470)]
    sizes += [rng.randint(257, 1024) for _ in range(24)]
    sizes += [2048, 3000, 4096]
    sizes += [4, 4096, 1000]  # repeat extremes
    assert len(sizes) >= 500
    for mlen in sizes:
        model, A, tri = _random_triangular_instance(rng, mlen)
        res = ramsey_upgrade(tri, A, model)
        assert verify_upgrade(res, A, model)
        assert len(res.indices) >= (mlen.bit_length() - 1) // 2

    # forced dichotomy on uniformly colored inputs
    for mlen in (4, 16, 64, 257):
        model = zw(16 * mlen, 8 * mlen)
        full = DenseSet(model, (1 << (16 * mlen)) - 1)
        tri = TriangularWitness(tuple(range(mlen)),
                                tuple(range(mlen, 2 * mlen)))
        res = ramsey_upgrade(tri, full, model)
        assert res.tag == "square"
        assert len(res.indices) == mlen

        thr = generate_set(model, Threshold(4 * mlen))
        b = tuple(4 * mlen - i for i in range(1, mlen + 1))
        c = tuple(range(1, mlen + 1))
        res = ramsey_upgrade(TriangularWitness(b, c), thr, model)
        assert res.tag == "ladder"
        assert len(res.indices) == mlen
    assert time.time() - t0 < 60


def test_criterion_5_stability_fixtures():
    # Multiples(q): ladder length exactly 1, oracle-confirmed at small
    # scale and searched at spec scale
    for q in (2, 3, 5):
        small = zw(6 * q, 3 * q)
        assert brute_max_ladder(generate_set(small, Multiples(q)), small, 2) == 1
        m = zw(300, 150)
        A = generate_set(m, Multiples(q))
        res = max_ladder(A, m, 2)
        assert res.k == 1 and not res.lower_bound_only

    # Threshold sets reach ladder length k in windows of size >= 8k
    for k in (2, 4, 8, 16):
        m = zw(8 * k, 4 * k)
        A = generate_set(m, Threshold(4 * k))
        assert max_ladder(A, m, k).k == k

    # cosets of subgroups of Z_n never exceed ladder length 1
    for n in range(2, 13):
        m = zn(n)
        for d in range(1, n + 1):
            if n % d:
                continue
            for g in range(d):
                A = DenseSet.from_members(m, [(g + h) % n for h in range(0, n, d)])
                assert max_ladder(A, m, 3).k <= 1


def test_criterion_6_density():
    m = zw(100, 50)
    evens = generate_set(m, Multiples(2))
    for n in (2, 4, 10, 50, 100):
        assert banach_density(evens, n).density == Fraction(1, 2)

    # Bernoulli densities, measured by direct count against the target
    M = 10 ** 5
    mb = zw(M, M // 2)
    for delta in ("0.1", "0.3", "0.5"):
        A = generate_set(mb, parse_set_spec(f"bernoulli({delta},42)"))
        assert abs(len(A) / M - float(delta)) <= 0.02


def test_criterion_7_syndeticity():
    for n in range(2, 13):
        m = zn(n)
        for d in range(1, n + 1):
            if n % d:
                continue
            A = DenseSet.from_members(m, range(0, n, d))
            exact = min_translate_cover(A, m, t_max=12)
            assert isinstance(exact, CoverCertificate)
            assert exact.t == d  # the subgroup index
            assert verify_cover(exact, A, m)
            greedy = min_translate_cover(A, m, t_max=12, mode="greedy")
            assert greedy.t >= exact.t
            assert exact.t >= counting_lower_bound(A, m, (0, n))


def _cli_report(capsys, argv):
    cli_main(argv)
    return capsys.readouterr().out


STRIP = re.compile(r'"wall_time_ms": [0-9.]+')

CLI_CASES = [
    ["gen", "--model", "zwindow:64:32", "--set", "pow2", "--format", "rle"],
    ["density", "--model", "zwindow:100:50", "--set", "multiples(2)", "--n", "10"],
    ["find-point", "--model", "zwindow:100:50", "--set", "multiples(10)",
     "--alpha", "1/2", "--N", "5"],
    ["ladder", "--model", "zwindow:256:128", "--set", "threshold(64)",
     "--k-max", "4"],
    ["witness", "--model", "zwindow:1024:512", "--set", "multiples(3)",
     "--k", "4"],
    ["triangular", "--model", "zwindow:256:128", "--set", "threshold(64)",
     "--m", "3"],
    ["upgrade", "--model", "zwindow:400:200", "--set", "multiples(2)",
     "--b", "0,2,4,6", "--c", "8,10,12,14"],
    ["defwitness", "--model", "zwindow:1024:512", "--set", "multiples(3)",
     "--family", "aps", "--n", "10", "--step-max", "8"],
    ["growth", "--model", "zwindow:256:128", "--set", "multiples(2)",
     "--k-max", "3"],
    ["syndetic", "--model", "zmod:6", "--set", "multiples(2)"],
]


def test_criterion_8a_thread_count_determinism(capsys):
    # the search is single-threaded; determinism is checked run to run
    for case in CLI_CASES:
        one = _cli_report(capsys, case)
        again = _cli_report(capsys, case)
        assert STRIP.sub("", one) == STRIP.sub("", again), case[0]
        # embedded certificates were re-verified by the runner
        if one.lstrip().startswith("{"):
            rep = json.loads(one)
            assert rep.get("verified") in (True, None)


def test_criterion_8b_structured_search_performance():
    m = zw(1 << 16, 1 << 15)
    fixtures = [
        generate_set(m, Multiples(3)),
        generate_set(m, Threshold(1000)),
        generate_set(m, parse_set_spec("bohr(665857/470832,1/4)")),
    ]
    for A in fixtures:
        t0 = time.time()
        w = find_square_witness(A, m, 6, mode="exact")
        assert isinstance(w, SquareWitness)
        assert verify_square_witness(w, A, m)
        assert time.time() - t0 < 10
