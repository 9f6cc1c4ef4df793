"""Unit tests for segment data representations (Bytes / VirtualData)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Bytes, SegmentData, VirtualData, as_data


class TestBytes:
    def test_wraps_bytes(self):
        b = Bytes(b"hello")
        assert b.nbytes == 5
        assert b.tobytes() == b"hello"

    def test_wraps_bytearray_and_memoryview(self):
        assert Bytes(bytearray(b"ab")).nbytes == 2
        assert Bytes(memoryview(b"abc")).tobytes() == b"abc"

    @pytest.mark.parametrize("make", [bytes, bytearray, memoryview],
                             ids=["bytes", "bytearray", "memoryview"])
    def test_tobytes_round_trips_every_input_kind(self, make):
        payload = bytes(range(40))
        b = Bytes(make(payload))
        assert b.nbytes == 40
        assert b.tobytes() == payload and type(b.tobytes()) is bytes
        assert b.slice(3, 30).slice(2, 5).tobytes() == payload[5:10]

    def test_immutable_bytes_are_held_not_viewed(self):
        # Nothing can change under a bytes object, so no view is built (a
        # view is two more collector-tracked objects per message): the very
        # object comes back.
        payload = b"immutable payload"
        assert Bytes(payload).tobytes() is payload

    def test_mutable_buffer_is_viewed_not_copied(self):
        # The zero-copy contract of the mutable path: a write by the
        # buffer's owner after Bytes() is still seen, whole and sliced.
        buf = bytearray(b"0123456789")
        whole = Bytes(buf)
        part = whole.slice(2, 4)
        through_view = Bytes(memoryview(buf))
        buf[3] = ord("X")
        assert whole.tobytes() == b"012X456789"
        assert part.tobytes() == b"2X45"
        assert through_view.tobytes() == b"012X456789"

    def test_slice_is_view(self):
        b = Bytes(b"0123456789")
        s = b.slice(2, 4)
        assert s.tobytes() == b"2345"
        assert s.nbytes == 4

    def test_slice_of_slice(self):
        b = Bytes(b"0123456789")
        assert b.slice(2, 6).slice(1, 3).tobytes() == b"345"

    def test_slice_bounds(self):
        b = Bytes(b"abc")
        with pytest.raises(ValueError):
            b.slice(1, 3)
        with pytest.raises(ValueError):
            b.slice(-1, 1)
        with pytest.raises(ValueError):
            b.slice(0, -1)

    def test_empty(self):
        b = Bytes(b"")
        assert b.nbytes == 0
        assert b.slice(0, 0).tobytes() == b""

    @given(st.binary(max_size=200), st.data())
    def test_property_slice_matches_python_slicing(self, payload, data):
        b = Bytes(payload)
        offset = data.draw(st.integers(0, len(payload)))
        length = data.draw(st.integers(0, len(payload) - offset))
        assert b.slice(offset, length).tobytes() == \
            payload[offset:offset + length]


class TestVirtualData:
    def test_size_only(self):
        v = VirtualData(1 << 20)
        assert v.nbytes == 1 << 20

    def test_tobytes_is_zeros(self):
        assert VirtualData(4).tobytes() == b"\x00" * 4

    def test_slice(self):
        v = VirtualData(100)
        s = v.slice(10, 20)
        assert isinstance(s, VirtualData)
        assert s.nbytes == 20

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualData(-1)

    def test_slice_bounds(self):
        with pytest.raises(ValueError):
            VirtualData(10).slice(5, 6)


class TestAsData:
    def test_passthrough(self):
        v = VirtualData(5)
        assert as_data(v) is v

    def test_bytes_coerced(self):
        assert isinstance(as_data(b"x"), Bytes)
        assert isinstance(as_data(bytearray(2)), Bytes)
        assert isinstance(as_data(memoryview(b"ab")), Bytes)

    def test_int_is_virtual(self):
        d = as_data(42)
        assert isinstance(d, VirtualData)
        assert d.nbytes == 42

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            as_data(3.14)
        with pytest.raises(TypeError):
            as_data("strings are ambiguous")

    def test_base_class_is_abstract(self):
        base = SegmentData()
        with pytest.raises(AttributeError):  # stamped by subclasses only
            _ = base.nbytes
        with pytest.raises(NotImplementedError):
            base.tobytes()
        with pytest.raises(NotImplementedError):
            base.slice(0, 0)
