"""Lossless byte-stream coder: DEFLATE (RFC 1951, via ``zlib``) with a raw fallback.

Modes: ``zlib`` (level 6) and ``raw`` (verbatim bytes, used whenever
DEFLATE does not shrink the input). Coded bytes are deterministic for one
zlib build; another build may emit different, equally valid DEFLATE
bytes, and any build decodes them. Decoding rejects a segment that
declares more than the caller's ``max_len`` bytes before inflating, and
never inflates past the declared length.

Segment wire layout: 1 mode byte, varint original length, mode body.
"""

from __future__ import annotations

import zlib

from .errors import CorruptStreamError
from .wire import read_varint, write_varint

MODES = ("raw", "zlib")  # indexed by the segment's mode byte


def segment_to_bytes(data: bytes) -> bytes:
    """The wire segment of ``data``: DEFLATE, or raw when DEFLATE would not shrink it."""
    data = bytes(data)
    packed = zlib.compress(data, 6)
    mode, body = (0, data) if len(packed) >= len(data) else (1, packed)
    out = bytearray([mode])
    write_varint(out, len(data))
    out += body
    return bytes(out)


def segment_header(blob: bytes) -> tuple[str, int, int]:
    """(mode, declared original length, offset of the body) of a wire segment."""
    if not blob:
        raise CorruptStreamError("empty segment")
    if blob[0] >= len(MODES):
        raise CorruptStreamError(f"unknown segment mode byte {blob[0]}")
    original_len, offset = read_varint(blob, 1)
    return MODES[blob[0]], original_len, offset


def segment_from_bytes(blob: bytes, max_len: int) -> bytes:
    """Exact inverse of segment_to_bytes; malformed segments raise CorruptStreamError."""
    mode, original_len, offset = segment_header(blob)
    if original_len > max_len:
        raise CorruptStreamError(f"segment declares {original_len} bytes, at most {max_len}")
    body = blob[offset:]
    if mode == "raw":
        if len(body) != original_len:
            raise CorruptStreamError("raw payload length mismatch")
        return bytes(body)
    if original_len == 0:
        # max_length 0 would mean "no limit" to zlib; the encoder stores b"" raw
        raise CorruptStreamError("empty zlib segment")
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(body, original_len)
    except zlib.error as exc:
        raise CorruptStreamError(f"bad zlib payload: {exc}") from exc
    if not inflater.eof or inflater.unconsumed_tail or inflater.unused_data:
        raise CorruptStreamError("zlib payload does not end where its length says")
    if len(out) != original_len:
        raise CorruptStreamError("zlib payload length mismatch")
    return out
