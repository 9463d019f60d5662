from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumcore import (
    Bernoulli,
    BohrSet,
    Complement,
    Explicit,
    Multiples,
    ParseError,
    PowersOf2,
    SpecOutOfRange,
    Threshold,
    Translate,
    Union,
    build_model,
    generate_set,
    parse_set_spec,
    spec_to_text,
)
from sumcore.setspec import splitmix64


def zw(M, L):
    return build_model({"kind": "zwindow", "M": M, "L": L})


class TestGenerate:
    def test_multiples(self):
        m = zw(10, 5)
        assert generate_set(m, Multiples(2, 0)).members() == [0, 2, 4, 6, 8]
        assert generate_set(m, Multiples(3, 1)).members() == [1, 4, 7]

    def test_pow2(self):
        m = zw(1 << 16, 1 << 15)
        A = generate_set(m, PowersOf2())
        assert A.members() == [1 << i for i in range(16)]
        assert len(A) == 16

    def test_bernoulli_frozen_count(self):
        # frozen output of the pinned generator at the documented scale
        m = zw(10 ** 5, 5 * 10 ** 4)
        A = generate_set(m, parse_set_spec("bernoulli(0.3,7)"))
        assert len(A) == 30120
        assert abs(len(A) - 30000) <= 500

    def test_bernoulli_reference_draws(self):
        # element i is a member iff splitmix64(seed + (i+1)*golden) clears
        # the threshold; check the bitset against the scalar reference
        m = zw(512, 256)
        delta = Fraction(1, 3)
        A = generate_set(m, Bernoulli(delta, 42))
        golden = 0x9E3779B97F4A7C15
        threshold = (delta.numerator << 64) // delta.denominator
        for i in range(512):
            draw = splitmix64((42 + (i + 1) * golden) & ((1 << 64) - 1))
            assert A.contains(i) == (draw < threshold)

    def test_bohr_exact_membership(self):
        m = zw(200, 100)
        A = generate_set(m, BohrSet(1, 7, Fraction(1, 7)))
        for x in range(200):
            r = (x * 1) % 7
            assert A.contains(x) == (min(r, 7 - r) * 7 < 1 * 7)

    def test_threshold(self):
        m = zw(10, 5)
        assert generate_set(m, Threshold(7)).members() == [7, 8, 9]
        assert generate_set(m, Threshold(0)).members() == list(range(10))
        assert generate_set(m, Threshold(10)).members() == []

    def test_combinators(self):
        m = zw(16, 8)
        spec = Union(PowersOf2(), Translate(PowersOf2(), 3))
        A = generate_set(m, spec)
        assert set(A.members()) == {1, 2, 4, 8} | {4, 5, 7, 11}
        comp = generate_set(m, Complement(Explicit((0, 1))))
        assert comp.members() == list(range(2, 16))

    def test_translate_clips(self):
        m = zw(8, 4)
        A = generate_set(m, Translate(Explicit((6, 7)), 3))
        assert A.members() == []
        B = generate_set(m, Translate(Explicit((1, 2)), -2))
        assert B.members() == [0]

    def test_file_spec(self, tmp_path):
        path = tmp_path / "a.set"
        path.write_text("3\n1\n12\n")
        m = zw(10, 5)
        A = generate_set(m, parse_set_spec(f"file({path})"))
        assert A.members() == [1, 3]  # 12 is outside the carrier

    def test_out_of_range_params(self):
        m = zw(10, 5)
        with pytest.raises(SpecOutOfRange):
            generate_set(m, Bernoulli(Fraction(3, 2), 1))
        with pytest.raises(SpecOutOfRange):
            generate_set(m, BohrSet(1, 3, Fraction(2, 1)))
        with pytest.raises(SpecOutOfRange):
            generate_set(m, Multiples(0))

    @given(st.integers(0, 2 ** 64 - 1), st.integers(2, 64))
    @settings(max_examples=40, deadline=None)
    def test_generate_is_pure(self, seed, M):
        m = zw(2 * M, M)
        spec = Bernoulli(Fraction(1, 2), seed)
        assert generate_set(m, spec).bits == generate_set(m, spec).bits


class TestParse:
    def test_union_translate(self):
        tree = parse_set_spec("union(pow2, translate(pow2, 3))")
        assert tree == Union(PowersOf2(), Translate(PowersOf2(), 3))

    def test_multiples_default_offset(self):
        assert parse_set_spec("multiples(3)") == Multiples(3, 0)

    def test_bernoulli_requires_seed(self):
        with pytest.raises(ParseError) as exc:
            parse_set_spec("bernoulli(0.5)")
        assert "seed" in str(exc.value)

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_set_spec("union(pow2,)")
        assert exc.value.position == 11

    def test_unknown_generator(self):
        with pytest.raises(ParseError):
            parse_set_spec("primes(3)")

    def test_whitespace_insensitive(self):
        a = parse_set_spec("intersect( multiples( 2 ) , threshold( 5 ) )")
        b = parse_set_spec("intersect(multiples(2),threshold(5))")
        assert a == b

    def test_rationals_exact(self):
        tree = parse_set_spec("bohr(665857/470832,1/4)")
        assert tree == BohrSet(665857, 470832, Fraction(1, 4))
        tree = parse_set_spec("bernoulli(0.25,9)")
        assert tree.delta == Fraction(1, 4)

    def test_negative_decimals_keep_sign(self):
        # "-0.5" has integer part 0; its sign must survive, so the value
        # is rejected as out of range instead of read as 1/2
        assert parse_set_spec("bernoulli(-0.5,1)").delta == Fraction(-1, 2)
        assert parse_set_spec("bohr(1/3,-0.25)").eps == Fraction(-1, 4)
        assert parse_set_spec("bernoulli(-1.5,1)").delta == Fraction(-3, 2)
        m = zw(10, 5)
        for text in ("bernoulli(-0.5,1)", "bohr(1/3,-0.25)"):
            with pytest.raises(SpecOutOfRange):
                generate_set(m, parse_set_spec(text))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_set_spec("pow2 pow2")

    SPECS = [
        "multiples(3)",
        "multiples(5,2)",
        "pow2",
        "bernoulli(1/3,17)",
        "bohr(355/113,1/8)",
        "threshold(9)",
        "explicit(1,2,3)",
        "union(pow2,multiples(2))",
        "intersect(threshold(4),complement(pow2))",
        "translate(multiples(3,1),-2)",
    ]

    @pytest.mark.parametrize("text", SPECS)
    def test_parse_print_parse_identity(self, text):
        tree = parse_set_spec(text)
        assert parse_set_spec(spec_to_text(tree)) == tree
