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
from sumcore.model import Relation, bits_of, iter_bits


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
        grid = rel.grid(*rel.operands(range(n), range(n)))
        for g in range(n):
            right = [b for b in range(n) if A.contains(m.op(b, g))]
            left = [c for c in range(n) if A.contains(m.op(g, c))]
            assert quotient(A, g, "right").members() == right
            assert quotient(A, g, "left").members() == left
            assert list(iter_bits(rel.right(g))) == right
            assert list(iter_bits(rel.left(g))) == left
            assert grid[:, g].nonzero()[0].tolist() == right
            assert translate(A, g).members() == sorted(m.op(g, a) for a in A.members())

    def test_translate_inverts_quotient_on_groups(self):
        m = zn(6)
        A = DenseSet.from_members(m, [0, 2, 3])
        g = 4
        # left quotient of g*A by g recovers A
        assert quotient(translate(A, g), g, "left").bits == A.bits


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


def test_iter_bits_helpers():
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert bits_of([0, 3, 5]) == 0b101001
