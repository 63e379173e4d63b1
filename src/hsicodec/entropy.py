"""Lossless byte-stream coder: DEFLATE (RFC 1951, via ``zlib``) with a raw fallback.

Modes: ``zlib`` (level 6) and ``raw`` (verbatim bytes, used whenever
DEFLATE does not shrink the input). Coded bytes are deterministic for one
zlib build; another build may emit different, equally valid DEFLATE
bytes, and any build decodes them. Decoding rejects a payload of more
than the caller's ``max_len`` bytes, and inflates at most one byte past it.

Segment wire layout: 1 mode byte, then the mode body; a zlib body marks its own end.
"""

from __future__ import annotations

import zlib

from .errors import CorruptStreamError

MODES = ("raw", "zlib")  # indexed by the segment's mode byte


def segment_to_bytes(data: bytes) -> bytes:
    """The wire segment of ``data``: DEFLATE, or raw when DEFLATE would not shrink it."""
    data = bytes(data)
    packed = zlib.compress(data, 6)
    return b"\x00" + data if len(packed) >= len(data) else b"\x01" + packed


def segment_from_bytes(blob: bytes, max_len: int) -> bytes:
    """Exact inverse of segment_to_bytes for payloads of at most ``max_len`` bytes;
    malformed segments raise CorruptStreamError."""
    if not blob:
        raise CorruptStreamError("empty segment")
    if blob[0] >= len(MODES):
        raise CorruptStreamError(f"unknown segment mode byte {blob[0]}")
    body = blob[1:]
    if MODES[blob[0]] == "raw":
        if len(body) > max_len:
            raise CorruptStreamError(f"raw payload of {len(body)} bytes is over its cap of {max_len}")
        return bytes(body)
    inflater = zlib.decompressobj()
    try:
        # one byte past the cap shows a longer payload, and max_length 0 would mean "no limit" to zlib
        out = inflater.decompress(body, max_len + 1)
    except zlib.error as exc:
        raise CorruptStreamError(f"bad zlib payload: {exc}") from exc
    if len(out) > max_len:
        raise CorruptStreamError(f"zlib payload inflates over its cap of {max_len} bytes")
    if not inflater.eof or inflater.unconsumed_tail or inflater.unused_data:
        raise CorruptStreamError("zlib payload does not end where its segment ends")
    return out
