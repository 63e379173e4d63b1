"""Low-level byte-stream primitives shared by the coded formats.

Unsigned LEB128 varints, and byte planes for fixed-width little-endian
integer arrays. Varint decoders take (buffer, offset) and return
(value, new_offset) so callers can walk a stream without copying. Byte
planes store every value's lowest byte, then every value's next byte, and
so on, which leaves the runs of equal high bytes DEFLATE compresses well.
"""

from __future__ import annotations

import numpy as np

from .errors import CorruptStreamError


def write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("varint requires a non-negative value")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(buf, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(buf):
            raise CorruptStreamError("truncated varint")
        byte = buf[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise CorruptStreamError("varint too long")


def to_byte_planes(values: np.ndarray, dtype: str) -> bytes:
    """Byte planes of ``values`` cast to the little-endian ``dtype`` (e.g. "<i2")."""
    fixed = np.ascontiguousarray(values, dtype=dtype).ravel()
    return fixed.view(np.uint8).reshape(-1, fixed.itemsize).T.tobytes()


def from_byte_planes(blob: bytes, dtype: str) -> np.ndarray:
    """Inverse of to_byte_planes: a 1-D array of ``dtype`` values."""
    width = np.dtype(dtype).itemsize
    if len(blob) % width:
        raise CorruptStreamError(f"{len(blob)} plane bytes do not split into {width} planes")
    planes = np.frombuffer(blob, dtype=np.uint8).reshape(width, -1)
    # shifted whole planes: a strided byte copy per plane is ~2x and a transposed copy ~5x slower
    unsigned = f"<u{width}"
    out = planes[0].astype(unsigned)
    for i in range(1, width):
        out |= planes[i].astype(unsigned) << (8 * i)
    return out.view(dtype)
