"""The params record: a band's network in 8 bits, and the band's range.

This is the lossy step that bounds the transmitted payload. ``RECORD`` is
the 346 parameter bytes in the flat vector's order (``mlp``), one float32
(min, max) pair per parameter group (``mlp.GROUPS``: w1, b1, w2, b2), then
the band's ``<ii`` min and max. Each group maps onto [0, 255] by its pair,
rounded by the codec's one rule: add 0.5 to a non-negative value and truncate.
The extrema are reduced to 32-bit float precision *before* quantizing and
the reduced values are what both codec sides use, so dequantization is
identical at encoder and decoder. ``quantize_params`` writes a record and
``dequantize_params`` is its only reader.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import CorruptStreamError
from .mlp import GROUPS, N_PARAMS, unpack

RECORD = struct.Struct(f"<{N_PARAMS}s8fii")


def quantize_params(params: np.ndarray, src_min: int, src_max: int) -> bytes:
    """The params record of ``params`` and the band range [src_min, src_max] (386 bytes)."""
    q = np.zeros(N_PARAMS, dtype=np.uint8)
    ranges = []
    for (start, end), group in zip(GROUPS, unpack(params)):
        lo = float(np.float32(group.min()))
        hi = float(np.float32(group.max()))
        if hi <= lo:
            hi = lo  # a constant group: zero bytes
        else:
            # the uint8 store truncates; below 0, where float32 puts lo above the minimum, clips to 0
            q[start:end] = np.clip(255.0 * (group - lo) / (hi - lo) + 0.5, 0, 255).ravel()
        ranges += [lo, hi]
    return RECORD.pack(q.tobytes(), *ranges, src_min, src_max)


def dequantize_params(record: bytes) -> tuple[np.ndarray, int, int]:
    """Invert quantize_params: (params, src_min, src_max), v = min + q * (max - min) / 255 per group.

    A record that does not describe a valid network and band range raises CorruptStreamError.
    """
    if len(record) != RECORD.size:
        raise CorruptStreamError(f"params record has {len(record)} bytes, not {RECORD.size}")
    param_bytes, *ranges, src_min, src_max = RECORD.unpack(record)
    if src_min > src_max:
        raise CorruptStreamError("band min exceeds max")
    q = np.frombuffer(param_bytes, dtype=np.uint8).astype(np.float64)
    vec = np.empty(N_PARAMS)
    for (start, end), lo, hi in zip(GROUPS, ranges[::2], ranges[1::2]):
        # finite float32 extrema keep every parameter finite
        if not -math.inf < lo <= hi < math.inf:
            raise CorruptStreamError(f"parameter range ({lo}, {hi}) is not finite with min <= max")
        vec[start:end] = lo if hi == lo else lo + q[start:end] * (hi - lo) / 255.0
    return vec, src_min, src_max
