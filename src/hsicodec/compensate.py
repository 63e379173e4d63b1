"""Near-lossless correction of predicted bands.

Pixels whose relative reconstruction error exceeds the tolerance get a
transmitted integer offset: the residual target - recon rounded to a
multiple of q_step, so each corrected pixel lands within q_step/2 of its
target. Tolerance 0 and tolerance > 0 differ only in which pixels are
corrected. With tol = 0 and q_step = 1 the mechanism is exactly lossless
on integer bands.

A band's offsets take one of two layouts. The sparse payload is two
little-endian uint32 arrays of one entry per corrected pixel, the
row-major index deltas then the zigzag offsets, as byte planes (see
``wire``), so it holds 8 bytes per entry. The dense residual plane is
every pixel's zigzag offset (0 where it has none) as ``<u2`` byte planes,
exactly 2 bytes per pixel. ``compensation_payload``, the encoder's one
writer of either layout, picks the plane when more than a quarter of the
pixels carry an offset (it is then the smaller one raw) and each zigzag
offset is below 2**16. ``apply_offsets`` and ``apply_residual`` parse the
two layouts and correct the prediction in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import CorruptStreamError, DimensionError
from .wire import from_byte_planes, to_byte_planes


@dataclass
class CompensationConfig:
    lam: float = 0.0      # maximum acceptable relative reconstruction error
    q_step: int = 1       # quantization step applied to transmitted offsets
    enabled: bool = True

    def __post_init__(self):
        if not self.lam >= 0:
            raise ValueError("lambda must be non-negative")
        if not isinstance(self.q_step, Integral) or not 1 <= self.q_step <= 32767:
            raise ValueError("q_step must be a positive integer below 32768")


def _flagged(target: np.ndarray, diff: np.ndarray, lam: float) -> np.ndarray:
    """Whether each pixel's relative error |diff| / max(|target|, 1) exceeds lam (row-major),
    formed in one float64 buffer."""
    t = np.abs(target, dtype=np.int64).ravel()
    ratio = np.abs(diff, dtype=np.float64)
    np.divide(ratio, np.maximum(t, 1, out=t), out=ratio)
    return ratio > lam


def _zigzag_offsets(target: np.ndarray, recon: np.ndarray, cfg: CompensationConfig) -> np.ndarray:
    """Every pixel's zigzag offset (int64, row-major), 0 unless its relative error exceeds cfg.lam."""
    if np.shape(target) != np.shape(recon):
        raise DimensionError(f"shape mismatch {np.shape(target)} vs {np.shape(recon)}")
    diff = np.subtract(target, recon, dtype=np.int64).ravel()
    # at lam 0 every nonzero offset is flagged, as its pixel's error is nonzero too
    flags = _flagged(target, diff, cfg.lam) if cfg.lam > 0 else None
    q = cfg.q_step
    if q > 1:
        # the nearest multiple of q, halves away from zero, in diff's own buffer: floor((diff +
        # q // 2) / q) * q, less 1 on a negative diff when q is even, so its ties fall away too
        if q % 2 == 0:
            diff -= diff < 0
        diff += q // 2
        diff //= q
        diff *= q
    if flags is not None:
        diff *= flags
    return (diff << 1) ^ (diff >> 63)


def compensation_payload(
    target: np.ndarray, recon: np.ndarray, cfg: CompensationConfig
) -> tuple[bool, bytes]:
    """(dense, payload): the residual plane when the layout rule picks it, else the sparse payload."""
    zigzag = _zigzag_offsets(target, recon, cfg)
    if 4 * np.count_nonzero(zigzag) > zigzag.size and not np.any(zigzag >> 16):
        return True, to_byte_planes(zigzag, "<u2")
    idx = np.flatnonzero(zigzag)
    deltas = np.diff(idx, prepend=0)
    zigzag = zigzag[idx]
    if np.any((deltas >> 32) | (zigzag >> 32)):
        raise ValueError("offset entry does not fit 32 bits")
    return False, to_byte_planes(deltas, "<u4") + to_byte_planes(zigzag, "<u4")


def apply_offsets(recon: np.ndarray, blob: bytes) -> np.ndarray:
    """Add the offsets payload ``blob`` into the int64 band ``recon``, at its row-major indices,
    and return it; other pixels unchanged.

    A payload that does not describe strictly increasing in-band indices
    with nonzero offsets raises CorruptStreamError.
    """
    if len(blob) % 8:
        raise CorruptStreamError(f"offset payload of {len(blob)} bytes is not 8 per entry")
    half = len(blob) // 2
    deltas = from_byte_planes(blob[:half], "<u4")
    zigzag = from_byte_planes(blob[half:], "<u4")
    if not (deltas[1:].all() and zigzag.all()):
        raise CorruptStreamError("offset payload repeats an index or holds a zero offset")
    idx = np.cumsum(deltas, dtype=np.int64)
    if idx.size and idx[-1] >= recon.size:
        raise CorruptStreamError(f"offset index {int(idx[-1])} outside band of {recon.size} pixels")
    # zigzag decoded in uint32 wraps to the int32 offset's two's complement; take and put
    # index row-major in any memory order, in under half the time recon.flat takes
    np.put(recon, idx, recon.take(idx) + ((zigzag >> 1) ^ -(zigzag & 1)).view(np.int32))
    return recon


def apply_residual(recon: np.ndarray, blob: bytes) -> np.ndarray:
    """Add the residual plane ``blob`` into the int64 band ``recon`` and return it: every
    payload of 2 bytes per pixel is valid, and any other length raises CorruptStreamError."""
    if len(blob) != 2 * recon.size:
        raise CorruptStreamError(f"residual payload of {len(blob)} bytes for {recon.size} pixels")
    zigzag = from_byte_planes(blob, "<u2")
    # zigzag decoded in uint16 wraps to the int16 offset's two's complement
    offs = ((zigzag >> 1) ^ -(zigzag & 1)).view(np.int16).reshape(recon.shape)
    return np.add(recon, offs, out=recon, dtype=np.int64)
