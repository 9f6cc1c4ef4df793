"""Unit tests for MPI derived datatypes (typemap algebra, pack/unpack)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DatatypeError
from repro.madmpi import (
    BYTE,
    Contiguous,
    Hindexed,
    Hvector,
    Indexed,
    Struct,
    Vector,
    indexed_small_large,
)


class TestByte:
    def test_byte_basics(self):
        assert BYTE.size == 1
        assert BYTE.extent == 1
        assert BYTE.flatten() == [(0, 1)]
        assert BYTE.is_contiguous


class TestContiguous:
    def test_contiguous_merges_to_one_block(self):
        t = Contiguous(100)
        assert t.size == 100
        assert t.extent == 100
        assert t.flatten() == [(0, 100)]
        assert t.is_contiguous

    def test_mul_operator(self):
        t = 64 * BYTE
        assert isinstance(t, Contiguous)
        assert t.size == 64
        assert (BYTE * 3).size == 3

    def test_nested_contiguous(self):
        t = Contiguous(4, Contiguous(25))
        assert t.flatten() == [(0, 100)]

    def test_zero_count(self):
        t = Contiguous(0)
        assert t.size == 0
        assert t.flatten() == []
        assert t.extent == 0

    def test_negative_count_rejected(self):
        with pytest.raises(DatatypeError):
            Contiguous(-1)


class TestVector:
    def test_vector_blocks(self):
        # 3 blocks of 2 bytes, stride 4 bytes: [0,2) [4,6) [8,10)
        t = Vector(3, 2, 4)
        assert t.flatten() == [(0, 2), (4, 2), (8, 2)]
        assert t.size == 6
        assert t.extent == 10
        assert not t.is_contiguous

    def test_vector_stride_equal_blocklen_is_contiguous(self):
        t = Vector(5, 4, 4)
        assert t.flatten() == [(0, 20)]
        assert t.is_contiguous

    def test_hvector_byte_stride(self):
        t = Hvector(2, 3, 10)
        assert t.flatten() == [(0, 3), (10, 3)]

    def test_vector_of_vectors(self):
        inner = Vector(2, 1, 2)       # bytes at 0 and 2, extent 3
        outer = Hvector(2, 1, 8, inner)
        assert outer.flatten() == [(0, 1), (2, 1), (8, 1), (10, 1)]


class TestIndexed:
    def test_indexed_blocks(self):
        t = Indexed([2, 3], [0, 5])
        assert t.flatten() == [(0, 2), (5, 3)]
        assert t.size == 5
        assert t.extent == 8

    def test_hindexed_unsorted_displacements_normalize(self):
        t = Hindexed([2, 2], [10, 0])
        assert t.flatten() == [(0, 2), (10, 2)]

    def test_adjacent_blocks_merge(self):
        t = Hindexed([4, 4], [0, 4])
        assert t.flatten() == [(0, 8)]

    def test_overlap_rejected(self):
        t = Hindexed([4, 4], [0, 2])
        for _ in range(2):   # a failed normalisation is not memoised
            with pytest.raises(DatatypeError, match="overlap"):
                t.flatten()

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DatatypeError):
            Hindexed([1, 2], [0])

    def test_indexed_scales_by_base_extent(self):
        base = Contiguous(4)
        t = Indexed([1, 1], [0, 2], base)   # displacements 0 and 8 bytes
        assert t.flatten() == [(0, 4), (8, 4)]


class TestStruct:
    def test_struct_heterogeneous(self):
        t = Struct([1, 2], [0, 10], [Contiguous(4), Contiguous(3)])
        assert t.flatten() == [(0, 4), (10, 6)]

    def test_struct_validation(self):
        with pytest.raises(DatatypeError):
            Struct([1], [0, 1], [BYTE, BYTE])


class TestPackUnpack:
    def test_pack_gathers_typed_bytes(self):
        t = Indexed([2, 2], [0, 4])
        buf = bytes(range(8))
        assert t.pack(buf) == bytes([0, 1, 4, 5])

    def test_unpack_scatters_and_leaves_gaps(self):
        t = Indexed([2, 2], [0, 4])
        buf = bytearray(b"\xff" * 8)
        t.unpack(b"ABCD", buf)
        assert bytes(buf) == b"AB\xff\xffCD\xff\xff"

    def test_roundtrip(self):
        t = Vector(4, 3, 7)
        buf = bytes(range(t.extent))
        packed = t.pack(buf)
        out = bytearray(t.extent)
        t.unpack(packed, out)
        for disp, length in t.flatten():
            assert out[disp:disp + length] == buf[disp:disp + length]

    def test_pack_buffer_too_small(self):
        with pytest.raises(DatatypeError, match="smaller than extent"):
            Contiguous(10).pack(b"short")

    def test_unpack_wrong_size(self):
        with pytest.raises(DatatypeError, match="packed data"):
            Contiguous(4).unpack(b"toolong", bytearray(4))

    @given(st.lists(st.tuples(st.integers(1, 50), st.integers(0, 30)),
                    min_size=1, max_size=10))
    def test_property_pack_size_matches_datatype_size(self, spec):
        # Build non-overlapping blocks by accumulating displacements.
        blocklens, displs = [], []
        cursor = 0
        for length, gap in spec:
            displs.append(cursor + gap)
            blocklens.append(length)
            cursor += gap + length
        t = Hindexed(blocklens, displs)
        buf = bytes(range(256)) * (t.extent // 256 + 1)
        packed = t.pack(buf[:t.extent])
        assert len(packed) == t.size == sum(blocklens)


class TestPaperDatatype:
    def test_fig4_shape(self):
        t = indexed_small_large(repeats=2)
        flat = t.flatten()
        assert [l for _, l in flat] == [64, 256 * 1024, 64, 256 * 1024]
        assert t.size == 2 * (64 + 256 * 1024)

    def test_fig4_noncontiguous(self):
        assert not indexed_small_large(1).is_contiguous

    def test_fig4_validation(self):
        with pytest.raises(DatatypeError):
            indexed_small_large(0)

    def test_fig4_custom_sizes(self):
        t = indexed_small_large(repeats=1, small=8, large=100, gap=4)
        assert t.flatten() == [(0, 8), (12, 100)]


#: Blocks as ``(length, gap before it)``: zero lengths included, never
#: overlapping, so every datatype built from them flattens.
_BLOCKS = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 20)),
                   min_size=1, max_size=8)


def _layout(spec):
    """Block lengths and displacements from ``spec``."""
    blocklens, displs, cursor = [], [], 0
    for length, gap in spec:
        displs.append(cursor + gap)
        blocklens.append(length)
        cursor += gap + length
    return blocklens, displs


def _build(kind, spec):
    """``(datatype, the lists it was built from)`` for one constructor."""
    blocklens, displs = _layout(spec)
    if kind == "hindexed":
        return Hindexed(blocklens, displs), [blocklens, displs]
    if kind == "indexed":
        return Indexed(blocklens, displs, Contiguous(3)), [blocklens, displs]
    types = [Contiguous(1 + i % 3) for i in range(len(spec))]
    # Struct displacements are bytes: space them for the widest type.
    displs = [3 * d for d in displs]
    return Struct(blocklens, displs, types), [blocklens, displs, types]


class TestCommittedTypemap:
    """A datatype is normalized once; nothing its caller holds can reach
    the memo, and ``flatten`` at a nonzero offset is computed afresh."""

    @pytest.mark.parametrize("kind", ["hindexed", "indexed", "struct"])
    @given(spec=_BLOCKS, offset=st.integers(1, 1000))
    def test_memoised_flatten_matches_a_fresh_twin(self, kind, spec, offset):
        dtype, inputs = _build(kind, spec)
        flat = dtype.flatten()
        shifted = dtype.flatten(offset)
        # Vandalise everything the caller still holds.
        flat.append((10**6, 1))
        flat[0] = (-5, 5)
        shifted.clear()
        for seq in inputs:
            seq.reverse()
            seq.append(seq[0])
        twin, _ = _build(kind, spec)
        want = twin.flatten()
        assert dtype.flatten() == want
        assert dtype.flatten() is not dtype.flatten()
        assert dtype.flatten(offset) == [(d + offset, n) for d, n in want]
        assert dtype.flatten(offset) == twin.flatten(offset)
        assert dtype.flatten() == want   # the offset did not touch the memo
        assert (dtype.size, dtype.extent) == (twin.size, twin.extent)
        buf = bytes(range(256)) * (twin.extent // 256 + 1)
        packed = dtype.pack(buf[:twin.extent])
        assert packed == twin.pack(buf[:twin.extent])
        out, twin_out = bytearray(twin.extent), bytearray(twin.extent)
        dtype.unpack(packed, out)
        twin.unpack(packed, twin_out)
        assert out == twin_out

    def test_extent_counts_blocks_as_before(self):
        # A zero-length block contributes no byte, so no extent either.
        t = Hindexed([4, 0], [0, 100])
        assert (t.extent, t.size, t.flatten()) == (4, 4, [(0, 4)])
        assert Struct([1, 1], [0, 50], [Contiguous(4), Contiguous(0)]) \
            .extent == 4
