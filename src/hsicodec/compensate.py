"""Near-lossless correction of predicted bands.

Pixels whose relative reconstruction error exceeds the tolerance get a
transmitted integer offset: the residual target - recon rounded to a
multiple of q_step, so each corrected pixel lands within q_step/2 of its
target. Tolerance 0 and tolerance > 0 differ only in which pixels are
corrected. With tol = 0 and q_step = 1 the mechanism is exactly lossless
on integer bands.

Offsets serialize as two little-endian uint32 arrays of one entry each:
the index deltas, then the zigzag-mapped offsets, each stored as byte
planes (see ``wire``). The entry count is the payload length / 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import CorruptStreamError, DimensionError
from .rounding import round_half_away
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


@dataclass
class OffsetMap:
    """Sparse nonzero corrections, indices strictly increasing row-major."""

    indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    offsets: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        if self.indices.shape != self.offsets.shape or self.indices.ndim != 1:
            raise DimensionError("indices and offsets must be matching 1-D arrays")
        if self.indices.size:
            if np.any(np.diff(self.indices) <= 0):
                raise DimensionError("offset indices must be strictly increasing")
            if np.any(self.offsets == 0):
                raise DimensionError("zero offsets must be dropped")

    def __len__(self) -> int:
        return int(self.indices.size)


def compute_offsets(
    target: np.ndarray, recon: np.ndarray, cfg: CompensationConfig
) -> OffsetMap:
    """Offsets for every pixel whose relative error exceeds cfg.lam."""
    target = np.asarray(target, dtype=np.int64)
    recon = np.asarray(recon, dtype=np.int64)
    if target.shape != recon.shape:
        raise DimensionError(f"shape mismatch {target.shape} vs {recon.shape}")

    t = target.ravel()
    r = recon.ravel()
    denom = np.maximum(np.abs(t), 1).astype(np.float64)
    violating = np.abs(t - r) / denom > cfg.lam

    offs = cfg.q_step * round_half_away((t - r) / cfg.q_step).astype(np.int64)

    keep = violating & (offs != 0)
    idx = np.nonzero(keep)[0]
    return OffsetMap(indices=idx, offsets=offs[idx])


def apply_offsets(recon: np.ndarray, off_map: OffsetMap) -> np.ndarray:
    """Add transmitted offsets at their pixel indices; other pixels unchanged."""
    recon = np.asarray(recon)
    out = recon.astype(np.int64).ravel().copy()
    if off_map.indices.size:
        if off_map.indices[-1] >= out.size or off_map.indices[0] < 0:
            raise CorruptStreamError(
                f"offset index {int(off_map.indices[-1])} outside band of {out.size} pixels"
            )
        out[off_map.indices] += off_map.offsets
    return out.reshape(recon.shape)


def offsets_to_bytes(off_map: OffsetMap) -> bytes:
    """Index deltas, then zigzag offsets, each as uint32 byte planes."""
    deltas = np.diff(off_map.indices, prepend=0)
    zigzag = (off_map.offsets << 1) ^ (off_map.offsets >> 63)
    if np.any((deltas >> 32) | (zigzag >> 32)):
        raise ValueError("offset map entry does not fit 32 bits")
    return to_byte_planes(deltas, "<u4") + to_byte_planes(zigzag, "<u4")


def offsets_from_bytes(blob: bytes) -> OffsetMap:
    if len(blob) % 8:
        raise CorruptStreamError(f"offset payload of {len(blob)} bytes is not 8 per entry")
    half = len(blob) // 2
    deltas = from_byte_planes(blob[:half], "<u4")
    zigzag = from_byte_planes(blob[half:], "<u4").astype(np.int64)
    indices = np.cumsum(deltas, dtype=np.int64)
    try:
        return OffsetMap(indices=indices, offsets=(zigzag >> 1) ^ -(zigzag & 1))
    except DimensionError as exc:
        raise CorruptStreamError(f"invalid offset map: {exc}") from exc
