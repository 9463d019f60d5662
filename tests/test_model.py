import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumcore import (
    BadBounds,
    CayleyGroup,
    DenseSet,
    ElementOutOfRange,
    NotALatinSquare,
    SumcoreError,
    ZWindow,
    build_model,
    cyclic_table,
    quotient,
    read_set_file,
    translate,
    write_set_file,
)
from sumcore.model import Relation, _read_set, bits_of, iter_bits, set_file_text

from sumcore.setspec import FileSet, generate_set

from .oracles import (
    codec_file_bits,
    codec_read_set_file,
    loop_cayley_model,
    text_read_set_file,
    text_set_file_text,
)


def zw(M, L):
    return build_model({"kind": "zwindow", "M": M, "L": L})


def zn(n):
    return build_model({"kind": "cayley", "table": [list(r) for r in cyclic_table(n)]})


class TestBuildModel:
    def test_zwindow_valid(self):
        m = zw(100, 50)
        assert isinstance(m, ZWindow)
        assert m.carrier_size == 100
        assert m.op(40, 59) == 99
        assert m.op(50, 50) is None

    def test_zwindow_operand_domain(self):
        m = zw(100, 50)
        assert m.operand_mask == (1 << 50) - 1
        # any two operands below L multiply inside the carrier
        for b in (0, 1, 49):
            for c in (0, 1, 49):
                assert m.op(b, c) is not None

    def test_z5_table(self):
        m = zn(5)
        assert isinstance(m, CayleyGroup)
        assert m.order == 5
        assert m.op(3, 4) == 2

    def test_repeated_entry_rejected(self):
        table = [list(r) for r in cyclic_table(4)]
        table[0][1] = 0  # repeat in row 0
        with pytest.raises(NotALatinSquare):
            build_model({"kind": "cayley", "table": table})

    def test_column_repeat_rejected(self):
        # rows are permutations but column 0 repeats
        table = [[0, 1, 2], [1, 2, 0], [0, 2, 1]]
        with pytest.raises(NotALatinSquare):
            build_model({"kind": "cayley", "table": table})

    def test_bad_bounds(self):
        with pytest.raises(BadBounds):
            zw(100, 51)
        with pytest.raises(BadBounds):
            zw(10, 1)

    def test_out_of_range_entry(self):
        with pytest.raises(ElementOutOfRange):
            build_model({"kind": "cayley", "table": [[0, 1], [1, 7]]})

    @pytest.mark.parametrize("entry", [1.7, 1.0, "1", None])
    def test_non_integer_entry(self, entry):
        # int() truncated 1.7 to 1 and parsed "1": both built Z_2
        with pytest.raises(ElementOutOfRange):
            build_model({"kind": "cayley", "table": [[0, entry], [1, 0]]})
        with pytest.raises(ElementOutOfRange):
            build_model({"kind": "cayley", "table": [[0, 1], entry]})

    @pytest.mark.parametrize("M, L", [(100.9, 50.5), (100.0, 50), ("100", 50), (100, None)])
    def test_non_integer_zwindow_bounds(self, M, L):
        # int() built ZWindow(100, 50) from M = 100.9, L = 50.5
        with pytest.raises(BadBounds):
            build_model({"kind": "zwindow", "M": M, "L": L})
        assert build_model({"kind": "zwindow", "M": np.int64(100), "L": 50}) == zw(100, 50)

    @pytest.mark.parametrize("table", [5, 1.5, None])
    def test_table_not_iterable(self, table):
        # a bare TypeError before
        with pytest.raises(BadBounds):
            build_model({"kind": "cayley", "table": table})

    def test_numpy_and_bool_entries_are_integers(self):
        z2 = build_model({"kind": "cayley", "table": [[0, 1], [1, 0]]})
        assert build_model({"kind": "cayley", "table": np.array([[0, 1], [1, 0]])}) == z2
        assert build_model({"kind": "cayley", "table": [[False, True], [True, False]]}) == z2


class TestLatinCheck:
    """build_model's one-pass line check against the old double loops."""

    @staticmethod
    def outcome(build, table):
        try:
            return build(table)
        except SumcoreError as exc:
            return (type(exc), str(exc), getattr(exc, "kind", None),
                    getattr(exc, "index", None), getattr(exc, "value", None))

    def check(self, table):
        got = self.outcome(lambda t: build_model({"kind": "cayley", "table": t}), table)
        assert got == self.outcome(loop_cayley_model, table)
        return got

    @pytest.mark.parametrize("table, expected", [
        # the repeat in row 0 comes before the out-of-range entry of row 1
        ([[0, 0], [5, 1]], (NotALatinSquare, "row 0 repeats entry 0", "row", 0, 0)),
        ([[0, 1], [0, 1]], (NotALatinSquare, "column 0 repeats entry 0", "column", 0, 0)),
        # an exact message, not numpy's float64 reading of 2**63
        ([[0, 2**63], [1, 0]],
         (ElementOutOfRange, f"row 0 entry {2**63} out of range", None, None, None)),
        ([[0, 10**30], [1, 0]],
         (ElementOutOfRange, f"row 0 entry {10**30} out of range", None, None, None)),
        ([[0, -1], [1, 0]], (ElementOutOfRange, "row 0 entry -1 out of range", None, None, None)),
        ([[True, False], [False, True]], CayleyGroup(((1, 0), (0, 1)))),
        # every row a permutation, column 0 repeats 1
        ([[0, 1, 2], [1, 2, 0], [1, 0, 2]],
         (NotALatinSquare, "column 0 repeats entry 1", "column", 0, 1)),
    ])
    def test_hand_tables(self, table, expected):
        assert self.check(table) == expected

    def test_seeded_faulty_cyclic_tables(self):
        rng = random.Random(20)
        seen = set()
        for _ in range(400):
            n = rng.randint(1, 7)
            table = [list(r) for r in cyclic_table(n)]
            if rng.random() < 0.3:  # a copied row: rows pass, a column repeats
                table[rng.randrange(n)] = list(table[rng.randrange(n)])
            for _ in range(rng.randint(0, 3)):
                table[rng.randrange(n)][rng.randrange(n)] = rng.randint(-2, n + 1)
            got = self.check(table)
            seen.add("ok" if isinstance(got, CayleyGroup) else got[:3:2])  # type, kind
        assert seen == {"ok", (ElementOutOfRange, None), (NotALatinSquare, "row"),
                        (NotALatinSquare, "column")}


class TestDenseSet:
    def test_cardinality_matches_popcount(self):
        m = zw(20, 10)
        A = DenseSet.from_members(m, [0, 3, 7, 19])
        assert A.cardinality == 4
        assert len(A) == A.bits.bit_count()

    def test_members_round_trip(self):
        m = zw(64, 32)
        members = [1, 2, 4, 8, 16, 32]
        A = DenseSet.from_members(m, members)
        assert A.members() == members
        assert all(A.contains(x) for x in members)
        assert not A.contains(3)
        assert not A.contains(-1)
        assert not A.contains(64)

    def test_rejects_out_of_carrier_bits(self):
        m = zw(10, 5)
        with pytest.raises(ElementOutOfRange):
            DenseSet(m, 1 << 10)

    def test_prefix_counts(self):
        m = zw(10, 5)
        A = DenseSet.from_members(m, [2, 3, 9])
        p = A.prefix_counts()
        assert list(p) == [0, 0, 0, 1, 2, 2, 2, 2, 2, 2, 3]

    def test_to_numpy(self):
        m = zw(12, 6)
        A = DenseSet.from_members(m, [0, 5, 11])
        arr = A.to_numpy()
        assert arr.sum() == 3
        assert arr[0] and arr[5] and arr[11]


class TestQuotient:
    def test_evens_right_quotient(self):
        # b + 1 even and defined (b + 1 < 10) leaves {1, 3, 5, 7}; the
        # product of 9 with 1 is undefined, so 9 is excluded
        m = zw(10, 5)
        A = DenseSet.from_members(m, [0, 2, 4, 6, 8])
        q = quotient(A, 1, "right")
        assert q.members() == [1, 3, 5, 7]

    def test_full_group_quotient(self):
        m = zn(5)
        A = DenseSet.from_members(m, range(5))
        assert quotient(A, 3, "right").members() == list(range(5))

    def test_pow2_quotient_frozen(self):
        # b with b + 3 a power of two inside [0, 1024)
        m = zw(1024, 512)
        A = DenseSet.from_members(m, [1 << i for i in range(10)])
        q = quotient(A, 3, "right")
        assert q.members() == [1, 5, 13, 29, 61, 125, 253, 509]

    def test_out_of_range(self):
        m = zw(10, 5)
        A = DenseSet.from_members(m, [0])
        with pytest.raises(ElementOutOfRange):
            quotient(A, 10, "right")

    @given(st.integers(2, 8), st.integers(0, 255), st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_cayley_quotient_is_bijection(self, n, bits, g):
        m = zn(n)
        A = DenseSet(m, bits & ((1 << n) - 1))
        for side in ("right", "left"):
            assert len(quotient(A, g % n, side)) == len(A)

    def test_quotient_composition_exhaustive(self):
        # quotient by g then by h equals quotient by h*g, all groups <= 8
        for n in range(2, 9):
            m = zn(n)
            for bits in range(0, 1 << n, 7):  # sampled subsets
                A = DenseSet(m, bits)
                for g in range(n):
                    for h in range(n):
                        lhs = quotient(quotient(A, g, "right"), h, "right")
                        rhs = quotient(A, m.op(h, g), "right")
                        assert lhs.bits == rhs.bits

    @given(st.integers(2, 9), st.randoms(use_true_random=False), st.integers(0, 511))
    @settings(max_examples=60, deadline=None)
    def test_cayley_gathers_match_op(self, n, rnd, bits):
        # rows and columns of Z_n shuffled: a Latin square with b*c != c*b
        r, c = list(range(n)), list(range(n))
        rnd.shuffle(r)
        rnd.shuffle(c)
        m = build_model({"kind": "cayley",
                         "table": [[(r[i] + c[j]) % n for j in range(n)] for i in range(n)]})
        A = DenseSet(m, bits & ((1 << n) - 1))
        rel = Relation(A)
        for g in range(n):
            right = [b for b in range(n) if A.contains(m.op(b, g))]
            left = [c for c in range(n) if A.contains(m.op(g, c))]
            assert quotient(A, g, "right").members() == right
            assert quotient(A, g, "left").members() == left
            assert list(iter_bits(rel.right(g))) == right
            assert list(iter_bits(rel.left(g))) == left
            assert rel.row(g, "right").nonzero()[0].tolist() == right
            assert rel.row(g, "left").nonzero()[0].tolist() == left
            assert translate(A, g).members() == sorted(m.op(g, a) for a in A.members())

    def test_translate_inverts_quotient_on_groups(self):
        m = zn(6)
        A = DenseSet.from_members(m, [0, 2, 3])
        g = 4
        # left quotient of g*A by g recovers A
        assert quotient(translate(A, g), g, "left").bits == A.bits


def first_of_class(labels):
    """Each position mapped to the first position with the same label."""
    first = {}
    return [first.setdefault(x, i) for i, x in enumerate(labels)]


class TestTwins:
    def test_hash_collision_is_split(self):
        # t = a Thue–Morse block of length 1024: the windows at 0 and 2048
        # read (t, 0, ~t, 0) and (~t, 0, t, 0), whose polynomial hashes
        # mod 2^64 agree for every odd base
        t = [bin(i).count("1") % 2 for i in range(1024)]
        mem = t + [0] * 1024 + [1 - x for x in t] + [0] * 1024 + t
        m = zw(8192, 4096)
        A = DenseSet.from_members(m, [i for i, x in enumerate(mem) if x])
        rows, cols = Relation(A).twins()
        assert rows is cols
        assert rows[0] != rows[2048]
        windows = [tuple(mem[b:b + 4096]) for b in range(4096)]
        assert first_of_class(rows.tolist()) == first_of_class(windows)

    @given(st.integers(2, 30), st.integers(1, 7), st.integers(0, 127),
           st.lists(st.integers(0, 59), max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_zwindow_classes_are_equal_windows(self, L, period, pattern, flips):
        # a periodic set has many equal windows; the flips break some
        m = zw(2 * L, L)
        mem = [pattern >> (i % period) & 1 for i in range(2 * L)]
        for i in flips:
            if i < 2 * L:
                mem[i] ^= 1
        A = DenseSet.from_members(m, [i for i, x in enumerate(mem) if x])
        rows, _ = Relation(A).twins()
        assert first_of_class(rows.tolist()) == first_of_class(
            [tuple(mem[b:b + L]) for b in range(L)])

    @given(st.integers(2, 9), st.randoms(use_true_random=False), st.integers(0, 511))
    @settings(max_examples=60, deadline=None)
    def test_cayley_rows_and_columns(self, n, rnd, bits):
        r, c = list(range(n)), list(range(n))
        rnd.shuffle(r)
        rnd.shuffle(c)
        m = build_model({"kind": "cayley",
                         "table": [[(r[i] + c[j]) % n for j in range(n)] for i in range(n)]})
        A = DenseSet(m, bits & ((1 << n) - 1))
        rows, cols = Relation(A).twins()
        in_A = [[A.contains(m.op(b, c)) for c in range(n)] for b in range(n)]
        assert first_of_class(rows.tolist()) == first_of_class(map(tuple, in_A))
        assert first_of_class(cols.tolist()) == first_of_class(zip(*in_A))


class TestSetFiles:
    def test_plain_round_trip(self, tmp_path):
        path = tmp_path / "a.set"
        write_set_file(path, [5, 1, 3, 3])
        members, size = read_set_file(path)
        assert members == [1, 3, 5]
        assert size is None

    def test_rle_round_trip(self, tmp_path):
        path = tmp_path / "a.set"
        members = [0, 1, 2, 7, 8, 63]
        write_set_file(path, members, size=64, fmt="rle")
        got, size = read_set_file(path)
        assert got == members
        assert size == 64

    def test_rle_format_shape(self, tmp_path):
        path = tmp_path / "a.set"
        write_set_file(path, [2, 3, 4], size=10, fmt="rle")
        assert path.read_text() == "RLE1:10:2,3,5\n"

    @pytest.mark.parametrize("fmt", ["list", "rle"])
    @pytest.mark.parametrize("members", [[], list(range(64)), [3, 60, 61, 62, 63]],
                             ids=["empty", "full", "run-ends-at-M"])
    def test_round_trip_edges(self, tmp_path, fmt, members):
        path = tmp_path / "a.set"
        A = DenseSet.from_members(zw(64, 32), members)
        write_set_file(path, A.members(), size=64, fmt=fmt)
        got, size = read_set_file(path)
        assert got == members
        assert size == (64 if fmt == "rle" else None)

    @given(st.sets(st.integers(0, 99)))
    @settings(max_examples=50, deadline=None)
    def test_rle_round_trip_random(self, members):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/a.set"
            write_set_file(path, sorted(members), size=100, fmt="rle")
            got, _ = read_set_file(path)
            assert got == sorted(members)


    @pytest.mark.parametrize("fmt", ["list", "rle"])
    def test_negative_member_rejected(self, tmp_path, fmt):
        path = tmp_path / "a.set"
        with pytest.raises(SumcoreError, match="non-negative"):
            write_set_file(path, [-1, 3], fmt=fmt)
        assert not path.exists()

    @pytest.mark.parametrize("members", [[3.0], ["4", "10"], [1, None], [[1], [2]]],
                             ids=["float", "str", "none", "nested"])
    @pytest.mark.parametrize("fmt", ["list", "rle"])
    def test_non_integer_member_rejected(self, fmt, members):
        with pytest.raises(SumcoreError, match="integers"):
            set_file_text(members, size=100, fmt=fmt)

    @pytest.mark.parametrize("members, size", [([7], 5), ([0, 5], 5), ([], -1), ([2**70], 9)])
    @pytest.mark.parametrize("fmt", ["list", "rle"])
    def test_member_at_or_past_size_rejected(self, fmt, members, size):
        # an RLE1 file the reader would refuse is never written
        with pytest.raises(SumcoreError, match=r"lie in \[0, "):
            set_file_text(members, size=size, fmt=fmt)

    @pytest.mark.parametrize("text", ["RLE1:-3:\n", "RLE1:-3:0,2\n"])
    def test_negative_rle_size_rejected(self, tmp_path, text):
        path = tmp_path / "a.set"
        path.write_text(text)
        with pytest.raises(SumcoreError, match="byte b'-' at offset 5 "):
            read_set_file(path)


def _outcome(fn, *args, **kw):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args, **kw)
    except Exception as exc:  # compared by type against the oracle
        return type(exc)


# Files in the set-file format: the reader answers as the per-token int()
# reader did, errors included (an overflowing RLE).
_IN_FORMAT = [
    b"", b" \n\t ", b"5", b"1\t2\t\t3\n", b"1\r\n2\r\n3\r\n", b"1\x0b2\x0c3\r4",
    b"\n\n5\n\n\n7\n\n", b"007\n7\n0\n00\n", b"1" + b"0" * 29 + b"\n2\n", b"9" * 18 + b"\n",
    b"1" + b"0" * 18 + b"\n", b"0" * 25 + b"7\n",
    b"RLE1:10:2,3\n", b"  RLE1:10:2,3,5 \n\n", b"RLE1:5:3,4\n", b"RLE1:5:2,3\n", b"RLE1:5:\n",
    b"RLE1:0:\n", b"RLE1:05:0,5\n", b"RLE1:10:0,0,0,4\n", b"RLE1:10:2,3\r\n",
    b"RLE1:" + b"1" * 19 + b":1,2\n", b"RLE1:" + b"9" * 18 + b":" + b"1" * 19 + b",1\n",
    b"RLE1:5:" + b",".join([b"9" * 18] * 10) + b"\n",
    b"RLE1:" + b"9" * 18 + b":" + b",".join([b"0"] * 8 + [b"9" * 17]) + b"\n",
]

# in the format, but past the interpreter's int-string limit
_LONG = b"7" * 5000 + b"\n"

# Files outside the format, each a SumcoreError: the offset of the first
# stray byte, or the message
_REFUSED = {
    b"+5\n3\n": 0, b"1_0\n": 1, b"-3\n4\n": 0, b"-0\n": 0, "\u0661\u0662\n3\n".encode(): 0,
    b"5\x1c6": 1, b"\xef\xbb\xbf5\n": 0, b"\xff\n": 0, b"1 2 x": 4, b"1.5\n": 1, b"0x10\n": 1,
    b"RLE1:10:1, 2\n": 10, b"RLE1:10:1 ,2\n": 9, b"RLE1:10:2,-1,3\n": 10, b"RLE1: 10:2,3\n": 5,
    b"RLE1:+10:2,3\n": 5, b"RLE1:1_0:2,3\n": 6, b"RLE1:10:2,3:4\n": 11, b"RLE1:10:2,\r3\n": 10,
    b"RLE1:10:2,3\x1c": 11, b"\x1cRLE1:10:2,3": 0, "RLE1:10:\u0661,2\n".encode(): 8,
    b"rle1:10:2,3\n": 0, b"5\nRLE1:10:2,3\n": 2,
    b"RLE1:10:1,,2\n": "empty run length at offset 10 ",
    b"RLE1:10:1,2,\n": "empty run length at offset 12 ",
    b"RLE1:10:,1,2\n": "empty run length at offset 8 ", b"RLE1:10:,\n": "empty run length at offset 8 ",
    b"RLE1:5": "malformed RLE1 header", b"RLE1:\n": "malformed RLE1 header",
    b"RLE1::1\n": "malformed RLE1 header",
    _LONG: "5000-digit token at offset 0 of ",
}


def _refusal(raw, expected):
    """The message pattern of the SumcoreError ``_REFUSED`` expects."""
    if isinstance(expected, str):
        return expected
    return re.escape(f"byte {raw[expected:expected + 1]!r} at offset {expected} of ")


class TestSetFileCodecEqualsText:
    """The numpy codec against the per-value str()/int() codec it replaced."""

    @given(st.sets(st.integers(0, 2**20), max_size=300)
           | st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 40)), max_size=20).map(
               lambda runs: {x for a, n in runs for x in range(a, min(a + n, 2**20 + 1))}),
           st.none() | st.integers(0, 2**20), st.sampled_from(["list", "rle"]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_random_sets(self, members, extra, fmt, as_array):
        import tempfile

        size = None if extra is None else max(members, default=-1) + 1 + extra
        arg = np.array(sorted(members), dtype=np.int64) if as_array else list(members)
        text = set_file_text(arg, size=size, fmt=fmt)
        assert text == text_set_file_text(list(members), size=size, fmt=fmt)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/a.set"
            with open(path, "w") as fh:
                fh.write(text)
            assert read_set_file(path) == text_read_set_file(path)
            assert _read_set(path)[0].dtype == np.int64  # the codec's tokens, no int()

    @pytest.mark.parametrize("fmt", ["list", "rle"])
    @pytest.mark.parametrize("members, size", [
        ([], None), ([], 0), ([], 7), ([0], None), ([5, 5, 1, 3, 3], 6),
        ((9, 0, 10, 99, 100), 1000), ({4, 1, 2}, 5), (range(0, 2**20, 3), 2**20),
        (range(2**20), 2**20), (np.arange(50, dtype=np.int32), None),
        ([10**18 - 1, 0], None), ([10**18, 3], 10**18 + 1), ([10**29, 7], None),
        ([1, 2], 10**30),
    ])
    def test_hand_written_members(self, tmp_path, fmt, members, size):
        text = set_file_text(members, size=size, fmt=fmt)
        assert text == text_set_file_text(list(members), size=size, fmt=fmt)
        path = tmp_path / "a.set"
        path.write_text(text)
        assert read_set_file(path) == text_read_set_file(path)

    def test_uint64_members_give_integer_runs(self):
        # the old writer took these members as uint64 and wrote float runs
        assert set_file_text([2**63, 5], size=2**64, fmt="rle") == \
            f"RLE1:{2**64}:5,1,{2**63 - 6},1,{2**63 - 1}\n"
        assert set_file_text([2**63], fmt="rle") == f"RLE1:{2**63 + 1}:{2**63},1\n"
        members = np.arange(0, 3000, 7, dtype=np.uint64)
        for fmt in ("list", "rle"):
            assert set_file_text(members, size=3000, fmt=fmt) == \
                text_set_file_text(members.tolist(), size=3000, fmt=fmt)

    @pytest.mark.parametrize("members", [[], [15], np.array([15, 16], dtype=np.uint64)])
    @pytest.mark.parametrize("size", [2**63, 2**64 - 1, 2**64])
    def test_sizes_past_int64_give_integer_runs(self, members, size):
        # the two-path writer wrote these runs as floats
        assert set_file_text(members, size=size, fmt="rle") == \
            text_set_file_text(np.asarray(members).tolist(), size=size, fmt="rle")

    @pytest.mark.parametrize("raw", _IN_FORMAT + list(_REFUSED),
                             ids=lambda raw: "7x5000" if raw == _LONG else None)
    def test_hand_written_files(self, tmp_path, raw):
        path = tmp_path / "a.set"
        path.write_bytes(raw)
        if raw in _REFUSED:
            with pytest.raises(SumcoreError, match=_refusal(raw, _REFUSED[raw])):
                read_set_file(path)
        else:
            assert _outcome(read_set_file, path) == _outcome(text_read_set_file, path)


_SPACES = [" ", "\n", "\t", "\r", "\r\n", "\x0b", "\x0c"]


def _fuzz_token(rng, big, junk):
    """A list member or an RLE length: digits (17, 19 or 21 of them when
    ``big``), or, when ``junk``, sometimes what only int() takes or junk."""
    kind = rng.randrange(8)
    if kind == 0 and big:
        digits = rng.choices("0123456789", k=rng.choice((16, 18, 20)))
        return rng.choice("123456789") + "".join(digits)
    if kind == 1:
        return "0" * rng.randrange(1, 4) + str(rng.randrange(10))
    if kind > 5 and junk:
        return rng.choice(["+5", "-3", "-0", "1_0", "_1", "\u0663", "1\u0663", "x", "", " 7",
                           "7\r", "\r7", "x\r", "\rx", "3\x1c"])
    return str(rng.randrange(64))


def _fuzz_set_file(rng):
    """Random set-file bytes, half of them with junk: int()-only tokens,
    odd separators, stray characters and bytes.  An RLE file's runs (its
    odd tokens) stay small, so a valid file holds a few hundred members
    however large its declared size or its gaps."""
    junk = rng.random() < 0.5
    spaces = _SPACES + ["\x1c", "\n\r"] * junk
    lead = "".join(rng.choices(spaces, k=rng.randrange(3)))
    tail = rng.choice(["", "\n", "\r\n", " "] + ["\x1c", ",", "\r"] * junk)
    if rng.random() < 0.4:
        tokens = [_fuzz_token(rng, True, junk) for _ in range(rng.randrange(8))]
        text = "".join(t + rng.choice(spaces + [",", ":"] * junk) for t in tokens)
    else:
        head = rng.choice([str(rng.randrange(200)), str(rng.randrange(1000)),
                           str(rng.randrange(10**17, 10**20)),
                           f"-{rng.randrange(1, 9)}", _fuzz_token(rng, True, junk)])
        runs = [_fuzz_token(rng, k % 2 == 0, junk) for k in range(rng.randrange(10))]
        colon = ":" if rng.random() < 0.9 else ""
        text = "RLE1:" + head + colon + rng.choice([","] * 4 + [" ", "\r"] * junk).join(runs)
    text = lead + text + tail
    for _ in range(rng.choice((0, 1, 2)) * junk):  # neither a digit nor a comma
        k = rng.randrange(len(text) + 1)
        text = text[:k] + rng.choice("+-_x\u0663\x1c \r\n:") + text[k:]
    raw = text.encode()
    return rng.choice([raw] * 8 + [b"\xef\xbb\xbf" + raw, raw + b"\xff"] * junk)


def _result(fn, *args):
    """fn's result, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared against the two-path reader's
        return type(exc), str(exc)


# bytes.strip() and bytes.split() take these as whitespace
_WHITE = rb"[ \t\n\r\x0b\x0c]*"
_FORMAT = re.compile(rb"[0-9 \t\n\r\x0b\x0c]*|" + _WHITE + rb"RLE1:[0-9]+:([0-9]+(,[0-9]+)*)?" + _WHITE)


class TestSetFileFuzz:
    """read_set_file and the file(...) leaf on seeded random files: in the
    format, against the two-path reader they replaced (``tests/oracles.py``);
    outside it, a SumcoreError that names a stray byte where it lies."""

    def test_fuzzed_files(self, tmp_path):
        rng = random.Random(23)
        model = zw(64, 32)
        path = tmp_path / "a.set"
        in_format = 0
        for _ in range(2000):
            raw = _fuzz_set_file(rng)
            path.write_bytes(raw)
            got = _result(read_set_file, path)
            leaf = _outcome(lambda: generate_set(model, FileSet(str(path))).bits)
            if _FORMAT.fullmatch(raw):
                in_format += 1
                assert got == _result(codec_read_set_file, path), raw
                assert leaf == _outcome(codec_file_bits, path, 64), raw
                continue
            assert got[0] is SumcoreError and leaf is SumcoreError, raw
            stray = re.match(r"byte (.+) at offset (\d+) of ", got[1])
            if stray:
                k = int(stray[2])
                assert stray[1] == repr(raw[k:k + 1]), raw
        assert 500 < in_format < 1500  # both kinds are exercised


def test_iter_bits_helpers():
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert bits_of([0, 3, 5]) == 0b101001
