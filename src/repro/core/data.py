"""Segment payload representations.

Tests move *real bytes* end to end (so correctness of aggregation,
reordering, splitting and reassembly is proven on content, not just
lengths), while benchmarks use :class:`VirtualData` — a sized placeholder —
to avoid megabyte-scale Python byte shuffling inside tight sweeps.  Both
implement the same tiny interface, and every code path in the engine works
with either.
"""

from __future__ import annotations


__all__ = ["SegmentData", "Bytes", "VirtualData", "as_data"]


class SegmentData:
    """Interface for a contiguous piece of user data."""

    __slots__ = ()

    #: Byte count, stamped once by the subclass constructor: sizes are read
    #: many times per message (window accounting, wire size, copy cost).
    nbytes: int

    def tobytes(self) -> bytes:
        """Materialize the content (tests); virtual data yields zeros."""
        raise NotImplementedError

    def slice(self, offset: int, length: int) -> SegmentData:
        """A view of ``length`` bytes starting at ``offset`` (for splitting)."""
        raise NotImplementedError

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.nbytes:
            raise ValueError(
                f"slice [{offset}, {offset + length}) out of range "
                f"for {self.nbytes}-byte segment"
            )


class Bytes(SegmentData):
    """Real in-memory data (bytes / bytearray / memoryview).

    An immutable ``bytes`` object is held as is: nothing can change under
    it, so a view would buy nothing and cost two more objects per message
    that stay alive as long as the receive handle does.  A mutable or
    foreign buffer (``bytearray``, ``memoryview``) is held through a
    zero-copy ``memoryview``, so a later write by its owner is still seen.
    """

    __slots__ = ("_buf", "nbytes")

    _buf: bytes | memoryview

    def __init__(self, data: bytes | bytearray | memoryview) -> None:
        if isinstance(data, bytes):
            self._buf = data
            self.nbytes = len(data)
        else:
            self._buf = view = memoryview(data)
            self.nbytes = view.nbytes

    def tobytes(self) -> bytes:
        buf = self._buf
        return buf if isinstance(buf, bytes) else buf.tobytes()

    def slice(self, offset: int, length: int) -> Bytes:
        self._check_range(offset, length)
        return Bytes(memoryview(self._buf)[offset:offset + length])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Bytes {self.nbytes}B>"


class VirtualData(SegmentData):
    """A payload with a size but no materialized content.

    Benchmarks exchange multi-megabyte messages thousands of times; carrying
    placeholder sizes instead of real buffers keeps the simulator fast
    without changing any timing (the NIC charges time on sizes, never on
    content).
    """

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"negative virtual size {nbytes}")
        self.nbytes = nbytes

    def tobytes(self) -> bytes:
        return bytes(self.nbytes)

    def slice(self, offset: int, length: int) -> VirtualData:
        self._check_range(offset, length)
        return VirtualData(length)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VirtualData {self.nbytes}B>"


def as_data(obj: SegmentData | bytes | bytearray | memoryview | int) -> SegmentData:
    """Coerce user input into a :class:`SegmentData`.

    ``bytes``-likes become :class:`Bytes`; a bare ``int`` is shorthand for
    ``VirtualData(n)`` (benchmark convenience).
    """
    if isinstance(obj, SegmentData):
        return obj
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return Bytes(obj)
    if isinstance(obj, int):
        return VirtualData(obj)
    raise TypeError(
        f"cannot use {type(obj).__name__} as segment data; pass bytes-like, "
        "SegmentData, or an int size"
    )
