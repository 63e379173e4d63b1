"""8-bit quantization of the flat parameter vector, one (min, max) per group.

This is the lossy step that bounds the transmitted payload. The vector of
``MlpParams.to_vector`` splits into its four parameter groups (w1, b1, w2,
b2); each group maps onto [0, 255] bytes plus a (min, max) pair. The
extrema are reduced to 32-bit float precision *before* quantizing and the
reduced values are what both codec sides use, so dequantization is
identical at encoder and decoder.
"""

from __future__ import annotations

import struct
from itertools import pairwise

import numpy as np

from .errors import DimensionError
from .mlp import N_HIDDEN, N_INPUT, N_OUTPUT, N_PARAMS, MlpParams
from .rounding import round_half_away

# (start, end) of each group of the flat vector: w1, b1, w2, b2
GROUPS = list(pairwise(np.cumsum([0, N_HIDDEN * N_INPUT, N_HIDDEN, N_OUTPUT * N_HIDDEN, N_OUTPUT])))

# one byte per parameter, then the four (min, max) pairs as float32
RANGES = struct.Struct("<8f")
PARAM_BYTES = N_PARAMS
RANGE_BYTES = RANGES.size


def quantize_params(params: MlpParams) -> tuple[bytes, bytes]:
    """The params payload (346 bytes in vector order) and ranges payload (32 bytes)."""
    vec = params.to_vector()
    q = np.zeros(N_PARAMS, dtype=np.uint8)
    ranges = []
    for start, end in GROUPS:
        group = vec[start:end]
        lo = float(np.float32(group.min()))
        hi = float(np.float32(group.max()))
        if hi <= lo:
            hi = lo  # a constant group: zero bytes
        else:
            q[start:end] = np.clip(round_half_away(255.0 * (group - lo) / (hi - lo)), 0, 255)
        ranges += [lo, hi]
    return q.tobytes(), RANGES.pack(*ranges)


def dequantize_params(param_bytes: bytes, range_bytes: bytes) -> MlpParams:
    """Invert quantize_params: v = min + q * (max - min) / 255 per group."""
    if len(param_bytes) != PARAM_BYTES:
        raise DimensionError(f"param payload must be {PARAM_BYTES} bytes")
    if len(range_bytes) != RANGE_BYTES:
        raise DimensionError(f"range payload must be {RANGE_BYTES} bytes")
    q = np.frombuffer(param_bytes, dtype=np.uint8).astype(np.float64)
    ranges = RANGES.unpack(range_bytes)
    vec = np.empty(N_PARAMS)
    for k, (start, end) in enumerate(GROUPS):
        lo, hi = ranges[2 * k], ranges[2 * k + 1]
        if not lo <= hi:
            raise DimensionError(f"parameter range ({lo}, {hi}) is not min <= max")
        vec[start:end] = lo if hi == lo else lo + q[start:end] * (hi - lo) / 255.0
    return MlpParams.from_vector(vec)
