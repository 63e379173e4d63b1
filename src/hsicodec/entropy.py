"""Lossless byte-stream coder: DEFLATE (RFC 1951, via ``zlib``) with a raw fallback.

Modes: ``zlib`` and ``raw`` (verbatim bytes, used whenever DEFLATE does
not shrink the input). The deflater runs at level 5 with an 8 KiB window
(``wbits`` 13) and ``memLevel`` 5. Level 5 follows match chains of 32
links where level 6 follows 128, which halves deflate time on first bands
and residual planes. The window and ``memLevel`` win back more than the
bytes that costs: a window past 8 KiB does not shrink these 128 KiB byte
planes, and ``memLevel`` 5 ends a DEFLATE block about every 2,048
symbols, so each block's Huffman codes fit its own stretch of them. Any
window up to 32 KiB inflates with ``zlib``'s defaults, so segments coded
with other settings, such as level 6 and a 32 KiB window, decode the
same. Coded bytes are deterministic for one zlib build; another build may
emit different, equally valid DEFLATE bytes, and any build decodes them.
Decoding rejects a payload of more than the caller's ``max_len`` bytes,
and inflates at most one byte past it.

``worker`` is the one thread that runs these calls beside the codec's band
loop, while zlib works without the GIL; a forked child starts its own.

Segment wire layout: 1 mode byte, then the mode body; a zlib body marks its own end.
"""

from __future__ import annotations

import functools
import os
import zlib
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

from .errors import CorruptStreamError

MODES = ("raw", "zlib")  # indexed by the segment's mode byte


# zlib's compressobj settings, chosen by a sweep over levels 5-6, windows 2**12-2**15 and memLevels 5-8
LEVEL, WBITS, MEM_LEVEL = 5, 13, 5


def segment_to_bytes(data: bytes) -> bytes:
    """The wire segment of ``data``: DEFLATE, or raw when DEFLATE would not shrink it."""
    data = bytes(data)
    deflater = zlib.compressobj(LEVEL, zlib.DEFLATED, WBITS, MEM_LEVEL)
    packed = deflater.compress(data) + deflater.flush()
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


@functools.cache
def worker() -> ThreadPoolExecutor:
    """The zlib thread, started on first use."""
    return ThreadPoolExecutor(1, thread_name_prefix="hsicodec-zlib")


if hasattr(os, "register_at_fork"):
    # a forked child has no copy of the thread, and would wait forever on the parent's executor
    os.register_at_fork(after_in_child=worker.cache_clear)


def inflate_ahead(blob: bytes, max_len: int) -> Callable[[], bytes]:
    """``segment_from_bytes(blob, max_len)`` as a call to make later: a zlib segment starts
    inflating on the worker now, and any other is parsed, or raises, only when called."""
    if blob[:1] == b"\x01":
        return worker().submit(segment_from_bytes, blob, max_len).result
    return functools.partial(segment_from_bytes, blob, max_len)
