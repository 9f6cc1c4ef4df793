"""MPI derived datatypes.

Paper §3.4: "MAD-MPI also implements some optimizations mechanisms for
derived datatypes.  MPI derived datatypes deal with noncontiguous memory
locations."  The §5.3 experiment exchanges an *indexed* datatype describing
"a sequence of two data blocks, one small block (64 bytes) followed by a
large data block (256 KBytes)".

A datatype here is a byte-level *typemap*: a recipe producing the list of
``(displacement, length)`` blocks a buffer of that type occupies.  The full
MPI constructor algebra is implemented (contiguous, vector, hvector,
indexed, hindexed, struct, and arbitrary nesting); :meth:`Datatype.flatten`
normalizes to displacement order and merges adjacent blocks — the same
canonicalization real MPI dataloop code performs before choosing a pack
path.  A datatype is immutable (constructor sequences are copied into
tuples), so it is normalized once, on first use, the way
``MPI_Type_commit`` does it, and every typed send or receive reuses that.

Displacements and lengths are in bytes (the base unit is :data:`BYTE`);
typed elements are expressed by contiguous runs, which loses no generality
for the communication layer (it only ever sees bytes).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import DatatypeError

__all__ = [
    "Datatype",
    "BYTE",
    "Contiguous",
    "Vector",
    "Hvector",
    "Indexed",
    "Hindexed",
    "Struct",
    "indexed_small_large",
]


class Datatype:
    """Base class: a typemap with a size (bytes of data) and an extent."""

    #: ``flatten()`` at offset 0, computed on first use.
    _flat: tuple[tuple[int, int], ...] | None = None

    def blocks(self, offset: int = 0) -> list[tuple[int, int]]:
        """Raw ``(displacement, length)`` list, unnormalized."""
        raise NotImplementedError

    @property
    def size(self) -> int:
        """Number of data bytes (sum of block lengths)."""
        return sum(length for _, length in self.blocks())

    @property
    def extent(self) -> int:
        """Span from the start of the buffer to the end of the last byte."""
        blks = self.blocks()
        if not blks:
            return 0
        return max(d + l for d, l in blks)

    def flatten(self, offset: int = 0) -> list[tuple[int, int]]:
        """Normalized blocks: sorted by displacement, adjacent runs merged.

        Raises :class:`DatatypeError` on overlapping blocks — an overlap
        means the same byte would be sent twice, which is a construction
        error.  Each call returns a fresh list; offset 0 is normalized
        once per datatype.
        """
        if offset:
            return self._normalize(offset)
        flat = self._flat
        if flat is None:
            flat = self._flat = tuple(self._normalize(0))
        return list(flat)

    def _normalize(self, offset: int) -> list[tuple[int, int]]:
        blks = sorted(b for b in self.blocks(offset) if b[1] > 0)
        merged: list[tuple[int, int]] = []
        for disp, length in blks:
            if merged:
                last_disp, last_len = merged[-1]
                if disp < last_disp + last_len:
                    raise DatatypeError(
                        f"overlapping blocks at displacement {disp} "
                        f"(previous block ends at {last_disp + last_len})"
                    )
                if disp == last_disp + last_len:
                    merged[-1] = (last_disp, last_len + length)
                    continue
            merged.append((disp, length))
        return merged

    @property
    def is_contiguous(self) -> bool:
        """True when the flattened typemap is a single run from offset 0."""
        flat = self.flatten()
        return len(flat) == 0 or (len(flat) == 1 and flat[0][0] == 0)

    # -- pack / unpack on real buffers (used by tests and baselines) --------
    def pack(self, buffer: bytes | bytearray | memoryview) -> bytes:
        """Gather the typed bytes of ``buffer`` into a contiguous string."""
        view = memoryview(buffer)
        if view.nbytes < self.extent:
            raise DatatypeError(
                f"buffer of {view.nbytes}B smaller than extent {self.extent}B"
            )
        return b"".join(
            view[disp:disp + length].tobytes() for disp, length in self.flatten()
        )

    def unpack(self, data: bytes, buffer: bytearray | memoryview) -> None:
        """Scatter a contiguous string back into a typed buffer."""
        view = memoryview(buffer)
        if view.nbytes < self.extent:
            raise DatatypeError(
                f"buffer of {view.nbytes}B smaller than extent {self.extent}B"
            )
        if len(data) != self.size:
            raise DatatypeError(
                f"packed data is {len(data)}B, datatype size is {self.size}B"
            )
        cursor = 0
        for disp, length in self.flatten():
            view[disp:disp + length] = data[cursor:cursor + length]
            cursor += length

    # -- constructor algebra -------------------------------------------------
    def __mul__(self, count: int) -> Contiguous:
        """``dtype * n`` is ``Contiguous(n, dtype)``."""
        return Contiguous(count, self)

    __rmul__ = __mul__


class _Byte(Datatype):
    """The base unit: one byte at displacement zero."""

    def blocks(self, offset: int = 0) -> list[tuple[int, int]]:
        return [(offset, 1)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "BYTE"


BYTE = _Byte()


def _check_count(count: int, what: str) -> None:
    if count < 0:
        raise DatatypeError(f"negative {what}: {count}")


class Contiguous(Datatype):
    """``count`` consecutive copies of ``base`` (MPI_Type_contiguous)."""

    def __init__(self, count: int, base: Datatype = BYTE) -> None:
        _check_count(count, "count")
        self.count = count
        self.base = base

    def blocks(self, offset: int = 0) -> list[tuple[int, int]]:
        if self.count == 0:
            return []
        base_blocks = self.base.blocks(0)
        if not base_blocks:
            return []
        stride = max(d + l for d, l in base_blocks)
        # Fast path: a gap-free base tiles into a single run.  Without this
        # a 256 KB byte block would materialize 262144 one-byte tuples.
        if len(base_blocks) == 1 and base_blocks[0] == (0, stride):
            return [(offset, self.count * stride)]
        out: list[tuple[int, int]] = []
        for i in range(self.count):
            start = offset + i * stride
            out.extend((start + d, l) for d, l in base_blocks)
        return out


class Hvector(Datatype):
    """``count`` blocks of ``blocklen`` bases, byte stride (MPI_Type_create_hvector)."""

    def __init__(self, count: int, blocklen: int, stride_bytes: int,
                 base: Datatype = BYTE) -> None:
        _check_count(count, "count")
        _check_count(blocklen, "blocklen")
        self.count = count
        self.blocklen = blocklen
        self.stride_bytes = stride_bytes
        self.base = base

    def blocks(self, offset: int = 0) -> list[tuple[int, int]]:
        block = Contiguous(self.blocklen, self.base)
        out: list[tuple[int, int]] = []
        for i in range(self.count):
            out.extend(block.blocks(offset + i * self.stride_bytes))
        return out


class Vector(Hvector):
    """Like :class:`Hvector` but the stride counts base extents (MPI_Type_vector)."""

    def __init__(self, count: int, blocklen: int, stride: int,
                 base: Datatype = BYTE) -> None:
        super().__init__(count, blocklen, stride * base.extent, base)


class Hindexed(Datatype):
    """Blocks of varying length at byte displacements (MPI_Type_create_hindexed)."""

    def __init__(self, blocklens: Sequence[int], displs_bytes: Sequence[int],
                 base: Datatype = BYTE) -> None:
        if len(blocklens) != len(displs_bytes):
            raise DatatypeError(
                f"{len(blocklens)} block lengths vs {len(displs_bytes)} "
                "displacements"
            )
        for b in blocklens:
            _check_count(b, "blocklen")
        self.blocklens = tuple(blocklens)
        self.displs_bytes = tuple(displs_bytes)
        self.base = base

    def blocks(self, offset: int = 0) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        for blocklen, disp in zip(self.blocklens, self.displs_bytes,
                                  strict=True):
            out.extend(Contiguous(blocklen, self.base).blocks(offset + disp))
        return out


class Indexed(Hindexed):
    """Like :class:`Hindexed` with displacements in base extents (MPI_Type_indexed)."""

    def __init__(self, blocklens: Sequence[int], displs: Sequence[int],
                 base: Datatype = BYTE) -> None:
        super().__init__(blocklens, [d * base.extent for d in displs], base)


class Struct(Datatype):
    """Heterogeneous blocks: per-block base types (MPI_Type_create_struct)."""

    def __init__(self, blocklens: Sequence[int], displs_bytes: Sequence[int],
                 types: Sequence[Datatype]) -> None:
        if not (len(blocklens) == len(displs_bytes) == len(types)):
            raise DatatypeError("blocklens, displacements and types must align")
        for b in blocklens:
            _check_count(b, "blocklen")
        self.blocklens = tuple(blocklens)
        self.displs_bytes = tuple(displs_bytes)
        self.types = tuple(types)

    def blocks(self, offset: int = 0) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        for blocklen, disp, base in zip(self.blocklens, self.displs_bytes,
                                        self.types, strict=True):
            out.extend(Contiguous(blocklen, base).blocks(offset + disp))
        return out


def indexed_small_large(
    repeats: int,
    small: int = 64,
    large: int = 256 * 1024,
    gap: int = 64,
) -> Hindexed:
    """The paper's §5.3 indexed datatype, parameterized.

    Each repeat is "one small block (64 bytes) followed by a large data
    block (256 KBytes)", with a ``gap`` of untyped bytes between blocks so
    the layout is genuinely non-contiguous (otherwise flatten() would merge
    the pairs and there would be nothing to optimize).
    """
    if repeats < 1:
        raise DatatypeError(f"need at least one repeat, got {repeats}")
    blocklens: list[int] = []
    displs: list[int] = []
    cursor = 0
    for _ in range(repeats):
        blocklens.append(small)
        displs.append(cursor)
        cursor += small + gap
        blocklens.append(large)
        displs.append(cursor)
        cursor += large + gap
    return Hindexed(blocklens, displs)
