"""Verifier verdicts on perturbed certificates, against brute-force oracles.

Every case is an integer window zwindow:4k:2k or the cyclic group Z_4k,
for k on both sides of 64, with A = [k-1, 3k).  There B = [k, 2k),
C = [0, k) is a square witness (all sums in [k, 3k-1)), and b_i = k-1-i,
c_j = j is a ladder (b_i + c_j = k-1 + j - i lies in A iff i <= j); no
sum wraps around in Z_4k.  Each verifier must give the verdict of an
oracle that reads b*c in A from ``model.op`` alone.
"""

from dataclasses import replace

import pytest

from sumcore import (
    DefinableWitness,
    DenseSet,
    FamilyDescriptor,
    InvalidInput,
    LadderCertificate,
    SquareWitness,
    TriangularWitness,
    UpgradeResult,
    build_model,
    cyclic_table,
    min_translate_cover,
    ramsey_upgrade,
    verify_cover,
    verify_definable_witness,
    verify_ladder,
    verify_square_witness,
    verify_triangular_witness,
    verify_upgrade,
)

from .oracles import brute_cover, brute_definable, brute_pattern

CASES = [(kind, k) for kind in ("zwindow", "zmod") for k in (5, 70)]


def square(i, j):
    return True


def triangular(i, j):
    return True if i <= j else None


def ladder(i, j):
    return i <= j


def case(kind, k):
    if kind == "zwindow":
        model = build_model({"kind": "zwindow", "M": 4 * k, "L": 2 * k})
    else:
        model = build_model({"kind": "cayley", "table": cyclic_table(4 * k)})
    A = DenseSet.from_members(model, range(k - 1, 3 * k))
    sq = (tuple(range(k, 2 * k)), tuple(range(k)))
    lad = (tuple(range(k - 1, -1, -1)), tuple(range(k)))
    assert brute_pattern(A, model, *sq, square)
    assert brute_pattern(A, model, *lad, ladder)
    return model, A, sq, lad


def _mutate(xs, bound):
    for pos in sorted({0, len(xs) // 2, len(xs) - 1}):
        for new in (xs[pos] - 1, xs[pos] + 1, bound):
            yield xs[:pos] + (new,) + xs[pos + 1:]
    if len(xs) > 1:
        yield (xs[-1],) + xs[1:-1] + (xs[0],)   # a swapped pair
        yield xs[:-1] + (xs[0],)                # a duplicate
    yield xs[:-1]
    yield xs + (max(xs) + 1,)


def mutations(bs, cs, model):
    """(bs, cs) and its perturbations: one operand moved by +-1, a swapped
    pair, a duplicate, a length off by one, an operand out of range, and
    the two sides exchanged."""
    bound = model.operand_mask.bit_length()
    return ([(bs, cs), (cs, bs)] + [(b, cs) for b in _mutate(bs, bound)]
            + [(bs, c) for c in _mutate(cs, bound)])


def outside_carrier(model, xs):
    return any(not 0 <= x < model.carrier_size for x in xs)


@pytest.mark.parametrize("kind,k", CASES)
def test_square_and_triangular_mutations(kind, k):
    model, A, sq, lad = case(kind, k)
    for bs, cs in mutations(*sq, model) + mutations(*lad, model):
        assert verify_square_witness(SquareWitness(bs, cs), A, model) == \
            brute_pattern(A, model, bs, cs, square), (bs, cs)
        assert verify_triangular_witness(TriangularWitness(bs, cs), A, model) == \
            brute_pattern(A, model, bs, cs, triangular), (bs, cs)


def check_ladder(cert, A, model):
    assert verify_ladder(cert, A, model) == \
        brute_pattern(A, model, cert.b, cert.c, ladder), cert


@pytest.mark.parametrize("kind,k", CASES)
def test_ladder_mutations(kind, k):
    model, A, sq, lad = case(kind, k)
    for bs, cs in mutations(*lad, model) + mutations(*sq, model):
        check_ladder(LadderCertificate(bs, cs), A, model)


@pytest.mark.parametrize("kind,k", CASES)
def test_upgrade_mutations(kind, k):
    model, A, sq, lad = case(kind, k)
    res = ramsey_upgrade(TriangularWitness(*sq), A, model)
    assert (res.tag, res.indices) == ("square", tuple(range(k)))
    for bs, cs in mutations(res.square.b, res.square.c, model):
        got = replace(res, square=SquareWitness(bs, cs))
        assert verify_upgrade(got, A, model) == brute_pattern(A, model, bs, cs, square)
    res = ramsey_upgrade(TriangularWitness(*lad), A, model)
    assert (res.tag, res.indices) == ("ladder", tuple(range(k)))
    for bs, cs in mutations(res.ladder.b, res.ladder.c, model):
        cert = LadderCertificate(bs, cs)
        assert verify_upgrade(replace(res, ladder=cert), A, model) == \
            brute_pattern(A, model, bs, cs, ladder)
    assert not verify_upgrade(replace(res, tag="bogus"), A, model)


@pytest.mark.parametrize("k", [5, 70])
def test_definable_mutations(k):
    model, A, _, _ = case("zwindow", k)
    L = model.operand_bound
    good = DefinableWitness("intervals", FamilyDescriptor(k, 1, k),
                            FamilyDescriptor(0, 1, k))
    variants = [good, replace(good, theta1=good.theta2, theta2=good.theta1),
                replace(good, family="aps"), replace(good, family="bogus")]
    for side in ("theta1", "theta2"):
        t = getattr(good, side)
        for field in ("start", "step", "length"):
            for d in (-1, 1):
                moved = replace(t, **{field: getattr(t, field) + d})
                variants.append(replace(good, **{side: moved}))
                variants.append(replace(good, family="aps", **{side: moved}))
        variants.append(replace(good, **{side: replace(t, start=L)}))
    assert verify_definable_witness(good, A, model)
    for w in variants:
        assert verify_definable_witness(w, A, model) == brute_definable(w, A, model), w


@pytest.mark.parametrize("kind,k", CASES)
def test_cover_mutations(kind, k):
    model, A, _, _ = case(kind, k)
    n = model.carrier_size
    if kind == "zwindow":
        cert = min_translate_cover(A, model, core=(0, n), shifts=range(-n, n))
    else:
        cert = min_translate_cover(A, model)
    T, W = cert.translates, cert.witness_index
    lo, hi = cert.core
    mid = len(W) // 2
    variants = [cert, replace(cert, translates=T[::-1]),
                replace(cert, translates=T[:-1] + (T[0],)),
                replace(cert, translates=T[:-1]),
                replace(cert, witness_index=W[:-1]),
                replace(cert, witness_index=W + (0,)),
                replace(cert, core=(lo, hi + 1)),
                replace(cert, core=(lo + 1, hi))]
    for pos in range(len(T)):
        for d in (-1, 1):
            variants.append(replace(cert, translates=T[:pos] + (T[pos] + d,) + T[pos + 1:]))
    for new in (W[mid] - 1, W[mid] + 1, len(T), float(W[mid])):
        variants.append(replace(cert, witness_index=W[:mid] + (new,) + W[mid + 1:]))
    variants += [replace(cert, translates=(float(T[0]),) + T[1:]),
                 replace(cert, translates=T[:-1] + (T[-1] + 0.5,)),
                 replace(cert, core=(float(lo), hi))]
    assert verify_cover(cert, A, model)
    for c in variants:
        verdict = verify_cover(c, A, model)
        assert verdict == brute_cover(c, A, model), c
        if kind == "zmod" and outside_carrier(model, c.translates):
            assert verdict is False, c


@pytest.mark.parametrize("bad", [-1, 2.0, 2.5])
def test_negative_or_float_operand_is_rejected(bad):
    # these raised ValueError (negative shift count) or TypeError before
    model = build_model({"kind": "zwindow", "M": 100, "L": 50})
    A = DenseSet.from_members(model, range(100))
    assert not verify_square_witness(SquareWitness((bad, 2), (3, 4)), A, model)
    assert not verify_triangular_witness(TriangularWitness((3, 4), (2, bad)), A, model)
    sq = UpgradeResult("square", (0, 1), SquareWitness((bad, 2), (3, 4)), None)
    assert not verify_upgrade(sq, A, model)
    with pytest.raises(InvalidInput):
        ramsey_upgrade(TriangularWitness((bad, 2), (3, 4)), A, model)
    assert not verify_ladder(LadderCertificate((bad, 2), (3, 4)), A, model)
    lad = UpgradeResult("ladder", (0, 1), None, LadderCertificate((3, 4), (bad, 2)))
    assert not verify_upgrade(lad, A, model)
    w = DefinableWitness("intervals", FamilyDescriptor(bad, 1, 2),
                         FamilyDescriptor(0, 1, 2))
    assert not verify_definable_witness(w, A, model)
    # a negative or non-integer start, step or length describes no progression
    good = DefinableWitness("aps", FamilyDescriptor(0, 1, 2), FamilyDescriptor(3, 1, 2))
    assert verify_definable_witness(good, A, model)
    for field in ("start", "step", "length"):
        for side in ("theta1", "theta2"):
            bent = replace(good, **{side: replace(getattr(good, side), **{field: bad})})
            assert verify_definable_witness(bent, A, model) is False, bent


def test_upgrade_without_its_certificate_is_false():
    model = build_model({"kind": "zwindow", "M": 100, "L": 50})
    A = DenseSet.from_members(model, range(100))
    square, ladder = SquareWitness((0,), (0,)), LadderCertificate((0,), (0,))
    assert verify_upgrade(UpgradeResult("square", (0,), square, None), A, model)
    for res in (UpgradeResult("square", (0,), None, None),
                UpgradeResult("ladder", (0,), None, None),
                UpgradeResult("square", (0,), ladder, None),
                UpgradeResult("ladder", (0,), None, square)):
        assert verify_upgrade(res, A, model) is False, res
