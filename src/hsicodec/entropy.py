"""Lossless byte-stream coder: DEFLATE (RFC 1951, via ``zlib``) with a raw fallback.

Modes: ``zlib`` (level 6) and ``raw`` (verbatim bytes, used whenever
DEFLATE does not shrink the input). Coded bytes are deterministic for one
zlib build; another build may emit different, equally valid DEFLATE
bytes, and any build decodes them. Decoding never inflates past the
segment's declared original length.

Segment wire layout: 1 mode byte, varint original length, mode body.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from .errors import CorruptStreamError
from .wire import read_varint, write_varint

MODES = ("raw", "zlib")  # indexed by the segment's mode byte


@dataclass
class CodedSegment:
    mode: str                       # "raw" | "zlib"
    original_len: int
    payload: bytes


def encode_bytes(data: bytes) -> CodedSegment:
    """Compress bytes; falls back to raw when DEFLATE would not shrink them."""
    data = bytes(data)
    packed = zlib.compress(data, 6)
    if len(packed) >= len(data):
        return CodedSegment(mode="raw", original_len=len(data), payload=data)
    return CodedSegment(mode="zlib", original_len=len(data), payload=packed)


def decode_bytes(seg: CodedSegment) -> bytes:
    """Exact inverse of encode_bytes; malformed segments raise CorruptStreamError."""
    if seg.original_len < 0:
        raise CorruptStreamError("negative segment length")
    if seg.mode == "raw":
        if len(seg.payload) != seg.original_len:
            raise CorruptStreamError("raw payload length mismatch")
        return bytes(seg.payload)
    if seg.mode != "zlib":
        raise CorruptStreamError(f"unknown segment mode {seg.mode!r}")
    if seg.original_len == 0:
        # max_length 0 would mean "no limit" to zlib; the encoder stores b"" raw
        raise CorruptStreamError("empty zlib segment")
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(seg.payload, seg.original_len)
    except zlib.error as exc:
        raise CorruptStreamError(f"bad zlib payload: {exc}") from exc
    if not inflater.eof or inflater.unconsumed_tail or inflater.unused_data:
        raise CorruptStreamError("zlib payload does not end where its length says")
    if len(out) != seg.original_len:
        raise CorruptStreamError("zlib payload length mismatch")
    return out


def segment_to_bytes(seg: CodedSegment) -> bytes:
    out = bytearray([MODES.index(seg.mode)])
    write_varint(out, seg.original_len)
    out += seg.payload
    return bytes(out)


def segment_from_bytes(blob: bytes) -> CodedSegment:
    if not blob:
        raise CorruptStreamError("empty segment")
    if blob[0] >= len(MODES):
        raise CorruptStreamError(f"unknown segment mode byte {blob[0]}")
    original_len, offset = read_varint(blob, 1)
    return CodedSegment(MODES[blob[0]], original_len, bytes(blob[offset:]))
