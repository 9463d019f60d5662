import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumcore import (
    Bernoulli,
    BohrSet,
    Complement,
    Explicit,
    FileSet,
    Intersect,
    Multiples,
    ParseError,
    PowersOf2,
    SpecOutOfRange,
    SumcoreError,
    Threshold,
    Translate,
    Union,
    build_model,
    generate_set,
    parse_set_spec,
    spec_to_text,
)
from sumcore import setspec
from sumcore.model import DenseSet, cyclic_table, iter_bits, read_set_file, translate
from sumcore.setspec import GOLDEN, splitmix64

from .oracles import elementwise_bernoulli_mask, elementwise_bohr_mask


def zw(M, L):
    return build_model({"kind": "zwindow", "M": M, "L": L})


def carrier(n):
    """A model with carrier size n (ZWindow needs n >= 4)."""
    if n >= 4:
        return zw(n, n // 2)
    return build_model({"kind": "cayley", "table": cyclic_table(n)})


# members of the set file the generator equivalence test writes: some
# beyond every carrier it uses, one beyond 2^64
FILE_MEMBERS = [0, 3, 3, 7, 40, 63, 64, 99, 150, 1 << 64, (1 << 70) + 1]


def scalar_member(node, x, n):
    """Membership of x in a SetSpec by the DSL definitions, element by element."""
    if isinstance(node, Multiples):
        return x % node.q == node.offset % node.q
    if isinstance(node, PowersOf2):
        return x > 0 and x & (x - 1) == 0
    if isinstance(node, Bernoulli):
        draw = splitmix64(node.seed + (x + 1) * GOLDEN)
        return draw < (node.delta.numerator << 64) // node.delta.denominator
    if isinstance(node, BohrSet):
        r = x * node.num % node.den
        return min(r, node.den - r) * node.eps.denominator < node.eps.numerator * node.den
    if isinstance(node, Threshold):
        return x >= node.t
    if isinstance(node, Explicit):
        return x in node.members
    if isinstance(node, FileSet):
        return x in FILE_MEMBERS
    if isinstance(node, Union):
        return scalar_member(node.left, x, n) or scalar_member(node.right, x, n)
    if isinstance(node, Intersect):
        return scalar_member(node.left, x, n) and scalar_member(node.right, x, n)
    if isinstance(node, Translate):
        return 0 <= x - node.k < n and scalar_member(node.child, x - node.k, n)
    if isinstance(node, Complement):
        return not scalar_member(node.child, x, n)
    raise AssertionError(node)


@st.composite
def carrier_and_spec(draw, path):
    n = draw(st.sampled_from([2, 3, 4, 5, 8, 13, 16, 33, 64, 100]))
    fractions = st.builds(lambda d, k: Fraction(k % d or 1, d),
                          st.integers(2, 10 ** 6), st.integers(1, 10 ** 6))
    leaves = st.one_of(
        st.builds(Multiples, st.integers(1, 2 * n + 3), st.integers(-50, 50)),
        st.just(PowersOf2()),
        st.builds(Bernoulli, st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1)]),
                  st.integers(0, 2 ** 64)),
        st.builds(BohrSet, st.integers(-(1 << 62), 1 << 62),
                  st.sampled_from([1, 7, 113, 470832, (1 << 32) + 15, 10 ** 18 + 9]),
                  fractions),
        st.builds(Threshold, st.integers(-3, n + 3)),
        st.builds(lambda xs: Explicit(tuple(xs)),
                  st.lists(st.integers(0, n - 1), max_size=6)),
        st.just(FileSet(path)),
    )
    tree = draw(st.recursive(leaves, lambda kids: st.one_of(
        st.builds(Union, kids, kids),
        st.builds(Intersect, kids, kids),
        st.builds(Translate, kids, st.integers(-n - 2, n + 2)),
        st.builds(Complement, kids),
    ), max_leaves=4))
    return n, tree


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

    @pytest.mark.parametrize("k", [63, 64, 65, 10**20, -63, -64, -65, -10**20])
    def test_translate_past_the_carrier(self, k):
        # |k| >= M slides every member out before any shift, as model.translate does
        m = zw(64, 32)
        A = generate_set(m, PowersOf2())
        got = generate_set(m, Translate(PowersOf2(), k))
        assert got == translate(A, k)
        assert got.members() == [x + k for x in A.members() if 0 <= x + k < 64]

    def test_translate_past_the_carrier_in_the_dsl(self):
        spec = parse_set_spec("translate(pow2,99999999999999999999)")
        assert generate_set(zw(64, 32), spec).members() == []

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


def _outcome(fn, *args):
    """fn's result, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared against the list path's
        return type(exc), str(exc)


class TestFileLeaf:
    """The file(...) leaf against read_set_file's members below n."""

    @pytest.mark.parametrize("raw", [
        b"", b"5", b"3\n1\n3\n70\n", b"0\n63\n64\n99\n", b"9" * 18 + b"\n1\n",
        b"RLE1:100:2,3,50,40\n", b"RLE1:10:0,10\n", b"RLE1:200:150,20\n",
        # a token past 18 digits, read exactly
        b"1" + b"0" * 29 + b"\n2\n",
        # errors: bytes outside the format, a malformed header, an overflow
        b"+5\n3\n", "\u0661\u0662\n3\n".encode(), b"RLE1:10:1, 2\n",
        b"-3\n4\n", b"1 2 x", b"RLE1:5:3,4\n", b"RLE1:10:2,-1,3\n", b"RLE1:5",
    ])
    @pytest.mark.parametrize("n", [3, 64, 100])
    def test_equals_read_set_file(self, tmp_path, raw, n):
        path = tmp_path / "a.set"
        path.write_bytes(raw)
        model = carrier(n)

        def listed():
            members, _ = read_set_file(str(path))
            return DenseSet.from_members(model, [x for x in members if x < n])

        assert _outcome(generate_set, model, FileSet(str(path))) == _outcome(listed)

    @pytest.mark.parametrize("raw, members", [
        (b"RLE1:1000000000000:0,1000000000000", range(64)),
        (b"RLE1:1000000000000:60,1000000000,10,5", range(60, 64)),
        (b"RLE1:1000000000000:70,999999999930", []),
        # Python-int runs (tokens past 18 digits)
        (b"RLE1:" + b"9" * 30 + b":2,3," + b"9" * 25 + b",10", [2, 3, 4]),
        (b"RLE1:" + b"9" * 30 + b":0," + b"9" * 30, range(64)),
    ])
    def test_runs_are_cut_at_the_carrier(self, tmp_path, raw, members):
        # a run of 10^12 members sets 64 bits without expanding the run
        path = tmp_path / "a.rle"
        path.write_bytes(raw)
        assert generate_set(zw(64, 32), FileSet(str(path))).members() == list(members)

    @pytest.mark.parametrize("raw, message", [
        (b"RLE1:10:0,1000000000000", "RLE1 runs overflow the declared size"),
        (b"RLE1:1000000000000:0,1000000000000,5,-1", "byte b'-' at offset 37 "),
    ])
    def test_cut_runs_keep_their_checks(self, tmp_path, raw, message):
        # every check reads the full file, before the runs are cut at n
        path = tmp_path / "a.rle"
        path.write_bytes(raw)
        with pytest.raises(SumcoreError, match=message):
            generate_set(zw(64, 32), FileSet(str(path)))

    @pytest.mark.parametrize("raw, refused", [
        (b"1\n5\n", False), (b"RLE1:10:2,3\n", False), (b"+5\n", True), (b"x", True)])
    def test_codec_files_build_no_list(self, tmp_path, monkeypatch, raw, refused):
        # no file goes through read_set_file's list, read or refused
        calls = []
        monkeypatch.setattr(setspec, "read_set_file",
                            lambda p: calls.append(p) or read_set_file(p))
        path = tmp_path / "a.set"
        path.write_bytes(raw)
        outcome = _outcome(generate_set, zw(64, 32), FileSet(str(path)))
        assert calls == []
        assert outcome[0] is SumcoreError if refused else isinstance(outcome, DenseSet)


class TestGeneratorEquivalence:
    """Every leaf and combinator against its element-by-element definition."""

    @classmethod
    def setup_class(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.path = os.path.join(cls.tmp.name, "members.set")
        with open(cls.path, "w") as fh:
            fh.write("".join(f"{m}\n" for m in reversed(FILE_MEMBERS)))

    @classmethod
    def teardown_class(cls):
        cls.tmp.cleanup()

    def test_generated_sets_match_definitions(self):
        @given(carrier_and_spec(self.path))
        @settings(max_examples=300, deadline=None)
        def check(case):
            n, tree = case
            A = generate_set(carrier(n), tree)
            want = [x for x in range(n) if scalar_member(tree, x, n)]
            assert A.members() == want
            assert A.members() == list(iter_bits(A.bits))
            assert len(A) == len(want)

        check()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 64])
    def test_pow2_small_carriers(self, n):
        A = generate_set(carrier(n), PowersOf2())
        assert A.members() == [p for p in (1, 2, 4, 8, 16, 32) if p < n]

    def test_named_edge_cases(self):
        m = zw(10, 5)
        assert generate_set(m, Multiples(3, -1)).members() == [2, 5, 8]
        assert generate_set(m, Multiples(25, 7)).members() == [7]
        assert generate_set(m, Multiples(25, 17)).members() == []
        assert generate_set(m, Explicit((4, 1, 4, 1))).members() == [1, 4]
        assert generate_set(m, Explicit(())).members() == []
        # denominators above 2^32; near 10^18 the products leave int64
        for q in ((1 << 32) + 15, 10 ** 18 + 9):
            p = GOLDEN % q
            A = generate_set(zw(1 << 12, 1 << 11), BohrSet(p, q, Fraction(1, 4)))
            assert A.members() == [x for x in range(1 << 12)
                                   if min(x * p % q, q - x * p % q) * 4 < q]


def _kernel_sizes():
    """Carrier sizes around the kernels' rows and blocks, plus seeded ones
    from 1 to 70001."""
    rng = np.random.default_rng(31)
    row, block = setspec._ROW, setspec._BLOCK
    edges = {1, 2, row - 1, row, row + 1, block - 1, block, block + 1,
             2 * block + row + 3, 70001}
    return sorted(edges | set(rng.integers(1, 70002, 4).tolist()))


KERNEL_SIZES = _kernel_sizes()


class TestLeafKernels:
    """The block kernels give the per-element kernels' masks bit for bit."""

    # (q, sizes): int32 while 2q < 2^31 (2^31 - 1: sums that would wrap
    # int32), int64 while every product stays below 2^63, Python ints past
    # that (2^62 - 1: 2q fits, 256q does not)
    @pytest.mark.parametrize("q,sizes", [
        (1, KERNEL_SIZES), (7, KERNEL_SIZES), (470832, KERNEL_SIZES),
        ((1 << 30) - 1, KERNEL_SIZES),
        ((1 << 30) + 1, KERNEL_SIZES), ((1 << 31) - 1, [70001]), (1 << 40, KERNEL_SIZES),
        ((1 << 62) - 1, [1, 257, 5001]),
        ((1 << 70) + 3, [1, 257, 5001]),
    ])
    def test_bohr_equals_elementwise(self, q, sizes):
        rng = np.random.default_rng(q % 1000)
        ps = {0, 1, q - 1, 665857 % q, int(rng.integers(0, min(q, 1 << 62)))}
        epss = [Fraction(1, 1000), Fraction(1, 4), Fraction(1, 3), Fraction(500, 999),
                Fraction(999, 1000)]
        for n in sizes:
            for p in ps:
                for eps in epss:
                    got = setspec._bohr_mask(n, p, q, eps)
                    assert got.dtype == bool
                    assert np.array_equal(got, elementwise_bohr_mask(n, p, q, eps)), (n, p, eps)

    @pytest.mark.parametrize("delta", [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3)])
    def test_bernoulli_equals_elementwise(self, delta):
        # seeds past 2^64 are taken mod 2^64
        for seed in (0, (1 << 64) - 1, (1 << 64) + 12345):
            for n in KERNEL_SIZES:
                got = setspec._bernoulli_mask(n, delta, seed)
                assert np.array_equal(got, elementwise_bernoulli_mask(n, delta, seed)), (n, seed)
        assert np.array_equal(setspec._bernoulli_mask(5000, delta, (1 << 64) + 12345),
                              setspec._bernoulli_mask(5000, delta, 12345))


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
        assert parse_set_spec("bernoulli(1/ 3,7)") == Bernoulli(Fraction(1, 3), 7)

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

    @pytest.mark.parametrize("spec", [
        Explicit(()),
        FileSet("a b.set"),
        FileSet("x(1).set"),
        FileSet("dir,1/it's.set"),
        FileSet('say "hi".set'),
    ], ids=["empty-explicit", "space", "parens", "comma-and-quote", "double-quote"])
    def test_print_parse_identity(self, spec):
        assert parse_set_spec(spec_to_text(spec)) == spec

    def test_path_with_both_quotes_rejected(self):
        with pytest.raises(SpecOutOfRange):
            spec_to_text(FileSet("""it's "x".set"""))

    @pytest.mark.parametrize("text", SPECS)
    def test_parse_print_parse_identity(self, text):
        tree = parse_set_spec(text)
        assert parse_set_spec(spec_to_text(tree)) == tree

    @given(carrier_and_spec("dir/a b.set"))
    @settings(max_examples=300, deadline=None)
    def test_print_parse_identity_on_generated_trees(self, case):
        _, tree = case
        assert parse_set_spec(spec_to_text(tree)) == tree

    def test_bohr_keeps_ratio_as_written(self):
        assert parse_set_spec("bohr(0/7,1/2)") == BohrSet(0, 7, Fraction(1, 2))
        assert parse_set_spec("bohr(2/4, 1/8)") == BohrSet(2, 4, Fraction(1, 8))
        # a negative denominator moves its sign to the numerator
        tree = parse_set_spec("bohr(355/-113,1/8)")
        assert tree == BohrSet(-355, 113, Fraction(1, 8))
        m = zw(200, 100)
        assert len(generate_set(m, tree)) > 0
        # the set depends only on the value p/q
        assert (generate_set(m, parse_set_spec("bohr(2/4,1/8)")).members()
                == generate_set(m, BohrSet(1, 2, Fraction(1, 8))).members())

    def test_non_decimal_digit_is_parse_error(self):
        # an integer is ASCII digits: not the Arabic-Indic three or four,
        # nor '\u00b2' (superscript two), a digit to str.isdigit
        for text, position in [("explicit(1,\u0663)", 11), ("bernoulli(1/\u0664,3)", 12),
                               ("threshold(\u00b2)", 10)]:
            with pytest.raises(ParseError) as exc:
                parse_set_spec(text)
            assert exc.value.position == position

    def test_integer_past_int_string_limit_is_parse_error(self):
        with pytest.raises(ParseError) as exc:
            parse_set_spec("threshold( " + "7" * 5000 + ")")
        assert exc.value.position == 11

    def test_nesting_past_recursion_limit_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_set_spec("complement(" * 2000)

    def test_float_parameters_print(self):
        assert spec_to_text(Bernoulli(0.5, 1)) == "bernoulli(1/2,1)"
        assert spec_to_text(BohrSet(1, 3, 0.25)) == "bohr(1/3,1/4)"

    NAMES = ["multiples", "pow2", "bernoulli", "bohr", "threshold", "explicit", "file",
             "union", "intersect", "translate", "complement"]
    DSL_ALPHABET = st.sampled_from(
        list("()/,.+-'\" 0123456789_x\u00b2\u0663") + NAMES + [n + "(" for n in NAMES]
        + ["9" * 4400, "complement(" * 400])

    @given(st.lists(DSL_ALPHABET, max_size=30).map("".join))
    @settings(max_examples=500, deadline=None)
    def test_any_text_parses_or_raises_parse_error(self, text):
        try:
            parse_set_spec(text)
        except ParseError as exc:
            assert 0 <= exc.position <= len(text)
