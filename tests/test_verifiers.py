"""Verifier verdicts on perturbed certificates, against brute-force oracles.

Every case is an integer window zwindow:4k:2k or the cyclic group Z_4k,
for k on both sides of 64, with A = [k-1, 3k).  There B = [k, 2k),
C = [0, k) is a square witness (all sums in [k, 3k-1)), and b_i = k-1-i,
c_j = j is a ladder (b_i + c_j = k-1 + j - i lies in A iff i <= j); no
sum wraps around in Z_4k.  Each verifier must give the verdict of an
oracle that reads b*c in A from ``model.op`` alone.
"""

import random
from fractions import Fraction

import pytest

from sumcore import (
    CoverCertificate,
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
    find_regular_point,
    min_translate_cover,
    ramsey_upgrade,
    verify_cover,
    verify_definable_witness,
    verify_density_certificate,
    verify_good_point,
    verify_ladder,
    verify_square_witness,
    verify_triangular_witness,
    verify_upgrade,
)

from sumcore.model import Record, Relation

from .oracles import brute_cover, brute_definable, brute_pattern, gather_certifies
from .test_witness import symmetric_group

replace = Record.replace

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


PATTERNS = ("square", "upper", "ladder", "all")


@pytest.mark.parametrize("kind,k", CASES)
def test_certifies_equals_gather_on_mutations(kind, k):
    model, A, sq, lad = case(kind, k)
    rel = Relation(A, model)
    bad = [((-1, 2), (3, 4)), ((3, 4), (2, 2.0)), ((2.5, 2), (3, 4)), ((), ())]
    for bs, cs in mutations(*sq, model) + mutations(*lad, model) + bad:
        for pattern in PATTERNS:
            assert rel.certifies(bs, cs, pattern) == \
                gather_certifies(A, model, bs, cs, pattern), (bs, cs, pattern)


def random_certificates(model, rng, trials):
    """(A, bs, cs): A random noise plus the products of a square, upper or
    ladder pattern on random operands, one product flipped half the time."""
    bound = model.operand_mask.bit_length()
    n = model.carrier_size
    for _ in range(trials):
        k = rng.randint(1, min(bound, 12))
        bs, cs = rng.sample(range(bound), k), rng.sample(range(bound), k)
        members = {x for x in range(n) if rng.random() < rng.choice((0.1, 0.5))}
        shape = rng.choice(("square", "upper", "ladder"))
        for i in range(k):
            for j in range(k):
                prod = model.op(bs[i], cs[j])
                if shape == "square" or i <= j:
                    members.add(prod)
                elif shape == "ladder":
                    members.discard(prod)
        if rng.random() < 0.5:
            members ^= {model.op(rng.choice(bs), rng.choice(cs))}
        yield DenseSet.from_members(model, members), tuple(bs), tuple(cs)


@pytest.mark.parametrize("kind", ["zwindow", "zmod", "sym5"])
def test_certifies_equals_gather_on_random_certificates(kind):
    model = {"zwindow": build_model({"kind": "zwindow", "M": 96, "L": 48}),
             "zmod": build_model({"kind": "cayley", "table": cyclic_table(40)}),
             "sym5": symmetric_group(5)}[kind]
    verdicts = []
    for A, bs, cs in random_certificates(model, random.Random(16), 300):
        rel = Relation(A, model)
        for b, c in ((bs, cs), (cs, bs), (bs, cs[:-1]), (bs[::-1], cs)):
            for pattern in PATTERNS:
                got = rel.certifies(b, c, pattern)
                assert got == gather_certifies(A, model, b, c, pattern), (b, c, pattern)
                verdicts.append(got)
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


def edge_certificate(M, L, k):
    """(model, bs, cs): k operand pairs on zwindow:M:L whose largest
    product, max(bs) + max(cs) = 2L - 2, is the largest any two operands
    form.  The b's increase to L - 1 and the c's decrease from it, so that
    product is b_{k-1} + c_0: below the diagonal when k > 1, on it when
    k = 1.  b_i + c_j depends on i - j alone, so no product below the
    diagonal equals one on or above it."""
    model = build_model({"kind": "zwindow", "M": M, "L": L})
    return model, [L - 1 - 3 * (k - 1 - i) for i in range(k)], [L - 1 - 3 * j for j in range(k)]


BRUTE = {"square": square, "all": square, "upper": triangular, "ladder": ladder}


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("k", [1, 2, 3, 7])
@pytest.mark.parametrize("M", [64, 256])
def test_certifies_at_the_reach_edge(pattern, k, M):
    # certifies reads rows from A's bits cut below max(bs) + max(cs) + 1, so
    # the edge product max(bs) + max(cs) is the last bit it may read
    model, bs, cs = edge_certificate(M, 32, k)
    edge = max(bs) + max(cs)
    # the products the pattern needs, and members past the edge up to the
    # carrier's last bit, which no row reads
    held = {b + c for i, b in enumerate(bs) for j, c in enumerate(cs)
            if BRUTE[pattern](i, j)} | set(range(edge + 1, M))
    verdicts = []
    for members in (held | {edge}, held - {edge}):
        A = DenseSet.from_members(model, members)
        got = Relation(A, model).certifies(bs, cs, pattern)
        assert got == brute_pattern(A, model, bs, cs, BRUTE[pattern]) == \
            gather_certifies(A, model, bs, cs, pattern), (sorted(members), pattern)
        verdicts.append(got)
    # the edge decides the verdict: square and all need it, as does a 1 × 1
    # grid; a ladder refuses it below the diagonal, where upper does not care
    if k == 1 or pattern in ("square", "all"):
        assert verdicts == [True, False]
    else:
        assert verdicts == ([True, True] if pattern == "upper" else [False, True])


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
    part = replace(cert, core=(lo + 1, hi), witness_index=W[1:])
    variants = [cert, part, replace(cert, translates=T[::-1]),
                replace(cert, translates=T[:-1] + (T[0],)),
                replace(cert, translates=T[:-1]),
                replace(cert, witness_index=W[:-1]),
                replace(cert, witness_index=W + (0,)),
                replace(cert, core=(lo, hi + 1)),
                replace(cert, core=(lo + 1, hi)),
                # part (above) and this cover part of the core: valid in a
                # window, not in a group
                replace(cert, core=(lo, hi - 1), witness_index=W[:-1]),
                # the same cover with its translates reordered or one repeated
                replace(cert, translates=T[::-1],
                        witness_index=tuple(len(T) - 1 - i for i in W)),
                replace(cert, translates=T + (T[-1],)),
                replace(cert, translates=(T[0],) + T,
                        witness_index=tuple(i + 1 for i in W))]
    for pos in range(len(T)):
        for d in (-1, 1):
            variants.append(replace(cert, translates=T[:pos] + (T[pos] + d,) + T[pos + 1:]))
    for new in (W[mid] - 1, W[mid] + 1, len(T), float(W[mid])):
        variants.append(replace(cert, witness_index=W[:mid] + (new,) + W[mid + 1:]))
    variants += [replace(cert, translates=(float(T[0]),) + T[1:]),
                 replace(cert, translates=T[:-1] + (T[-1] + 0.5,)),
                 replace(cert, core=(float(lo), hi))]
    assert len(T) > 1 and verify_cover(cert, A, model)
    for c in variants:
        verdict = verify_cover(c, A, model)
        assert verdict == brute_cover(c, A, model), c
        if kind == "zmod" and (outside_carrier(model, c.translates) or c.core != (0, n)):
            assert verdict is False, c
        if sorted(set(c.translates)) != list(c.translates):
            assert verdict is False, c
    assert verify_cover(part, A, model) is (kind == "zwindow")


def test_partial_cayley_core_is_rejected():
    # element 1 of Z_64 lies in 0·A, but a cover of the group must cover all of it
    model = build_model({"kind": "cayley", "table": [list(r) for r in cyclic_table(64)]})
    A = DenseSet.from_members(model, range(1, 64, 4))
    cert = CoverCertificate((0,), (1, 2), (0,), True, "exact")
    assert not verify_cover(cert, A, model)
    assert not brute_cover(cert, A, model)
    assert verify_cover(min_translate_cover(A, model), A, model)


@pytest.mark.parametrize("k", [5, 70])
@pytest.mark.parametrize("far", [1 << 62, -(1 << 62)])
def test_far_translate_is_answered_like_an_edge_shift(k, far):
    # a ZWindow translate of |g| >= M is empty; shifting by g first raised
    # MemoryError for g = 2^62
    model, A, _, _ = case("zwindow", k)
    n = model.carrier_size
    cert = min_translate_cover(A, model, core=(0, n), shifts=range(-n, n))
    T, W = cert.translates, cert.witness_index
    edge = n if far > 0 else -n
    # the extra translate goes last if positive, first if negative, so the
    # translates stay increasing
    extra, good = (len(T), W) if far > 0 else (0, tuple(i + 1 for i in W))

    def with_extra(g, witness):
        translates = T + (g,) if g > 0 else (g,) + T
        return replace(cert, translates=translates, witness_index=witness)

    for witness in (good, good[:-1] + (extra,)):
        verdict = verify_cover(with_extra(far, witness), A, model)
        assert verdict is verify_cover(with_extra(edge, witness), A, model)
        assert verdict is (witness == good)


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


def test_upgrade_with_malformed_indices_is_false():
    # both passed before: indices were never read
    model = build_model({"kind": "zwindow", "M": 100, "L": 50})
    A = DenseSet.from_members(model, range(100))
    assert not verify_upgrade(UpgradeResult("square", ("x", -5),
                                            SquareWitness((1, 2), (4, 5)), None), A, model)
    square = UpgradeResult("square", (0, 1, 2), SquareWitness((1, 2, 3), (4, 5, 6)), None)
    ladder = UpgradeResult("ladder", (0, 1, 2), None, LadderCertificate((3, 2, 1), (0, 1, 2)))
    A_ladder = DenseSet.from_members(model, range(3, 100))
    for res, B in ((square, A), (ladder, A_ladder)):
        assert verify_upgrade(res, B, model)
        for indices in [(0,), (0, 1), (0, 1, 2, 3), (-1, 0, 1), (0, 2, 1), (0, 1, 1),
                        (0, 1.0, 2), ("0", 1, 2), [0, 1, 2], None, 3]:
            assert verify_upgrade(replace(res, indices=indices), B, model) is False, indices
        assert verify_upgrade(replace(res, indices=(2, 7, 40)), B, model)


# --- malformed integer fields: False, never an exception ------------------------


def honest_certificates():
    """name -> (verify, certificate, its integer fields), with ``verify``
    bound to the certificate's set and model; a field ``a.b`` is field b of
    the certificate in field a."""
    model, A, sq, lad = case("zwindow", 5)
    zmod, A_zmod, _, _ = case("zmod", 5)
    n = model.carrier_size
    D = DenseSet.from_members(model, range(0, n, 3))
    sides = [f"{t}.{f}" for t in ("theta1", "theta2") for f in ("start", "step", "length")]
    certs = {
        "square": (verify_square_witness, SquareWitness(*sq), ("b", "c")),
        "triangular": (verify_triangular_witness, TriangularWitness(*sq), ("b", "c")),
        "ladder": (verify_ladder, LadderCertificate(*lad), ("b", "c")),
        "upgrade-square": (verify_upgrade, ramsey_upgrade(TriangularWitness(*sq), A, model),
                           ("indices", "square.b", "square.c")),
        "upgrade-ladder": (verify_upgrade, ramsey_upgrade(TriangularWitness(*lad), A, model),
                           ("indices", "ladder.b", "ladder.c")),
        "definable": (verify_definable_witness,
                      DefinableWitness("intervals", FamilyDescriptor(5, 1, 5),
                                       FamilyDescriptor(0, 1, 5)), sides),
        "cover": (verify_cover,
                  min_translate_cover(A, model, core=(0, n), shifts=range(-n, n)),
                  ("translates", "core", "witness_index")),
    }
    out = {name: (lambda c, v=v: v(c, A, model), cert, fields)
           for name, (v, cert, fields) in certs.items()}
    out["cover-zmod"] = (lambda c: verify_cover(c, A_zmod, zmod),
                         min_translate_cover(A_zmod, zmod),
                         ("translates", "core", "witness_index"))
    out["good-point"] = (lambda c: verify_good_point(c, A),
                         find_regular_point(A, (0, n), Fraction(1, 2), 4),
                         ("x", "horizon", "interval"))
    out["partition"] = (lambda c: verify_density_certificate(c, D),
                        find_regular_point(D, (0, n), Fraction(1), 4),
                        ("interval", "horizon", "carrier_size", "cuts", "block_counts"))
    return out


HONEST = honest_certificates()
PAIRS = ("core", "interval")


def bent(value, pair):
    """(label, value): malformed stand-ins for an integer field.  A float, a
    string and None replace an integer, or a sequence's last entry; None
    replaces a whole sequence; a pair also gets a tuple of each wrong length."""
    if not isinstance(value, tuple):
        return [("float", float(value)), ("str", str(value)), ("None", None)]
    out = [(f"last {label}", value[:-1] + (x,)) for label, x in bent(value[-1], False)]
    out.append(("None", None))
    if pair:
        out += [("1-tuple", value[:1]), ("3-tuple", value + (value[-1],))]
    return out


def put(cert, field, value):
    """cert with the field ``field`` (``a.b`` nested) set to value."""
    head, _, rest = field.partition(".")
    return replace(cert, **{head: put(getattr(cert, head), rest, value) if rest else value})


def get(cert, field):
    for name in field.split("."):
        cert = getattr(cert, name)
    return cert


MALFORMED = [pytest.param(name, field, value, id=f"{name}-{field}-{label}")
             for name, (_, cert, fields) in HONEST.items() for field in fields
             for label, value in bent(get(cert, field), field in PAIRS)]
MALFORMED += [pytest.param("definable", side, value, id=f"definable-{side}-{label}")
              for side in ("theta1", "theta2")
              for label, value in (("None", None), ("tuple", (0, 1, 5)))]
RAGGED = (0, (3, 4)) + HONEST["partition"][1].cuts[2:]
MALFORMED.append(pytest.param("partition", "cuts", RAGGED, id="partition-cuts-ragged"))


@pytest.mark.parametrize("name, field, value", MALFORMED)
def test_malformed_integer_field_is_false(name, field, value):
    verify, cert, _ = HONEST[name]
    assert verify(cert) is True
    assert verify(put(cert, field, value)) is False
