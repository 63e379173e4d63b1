"""Rearrange a band into the 16 x M block-column array the network consumes.

A 256x256 band splits into 64x64 blocks of 4x4 pixels. Blocks are scanned
row-major; within a block, pixels are scanned row-major. Pixel (i, j) lands
at row 4*(i mod 4) + (j mod 4) of column (cols/4)*(i div 4) + (j div 4).
``band_to_blocks`` reads the columns through ``block_view``, and the decoder
writes a predicted band's pixels back through the same view.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

BLOCK = 4


def block_view(band: np.ndarray) -> np.ndarray:
    """A band's pixels on axes (i mod 4, j mod 4, i div 4, j div 4), the block-column order.

    A view of a C-contiguous band: 16 x M blocks reshaped to its shape are
    read from or written to the band in one strided pass.
    """
    band = np.asarray(band)
    if band.ndim != 2 or band.shape[0] % BLOCK or band.shape[1] % BLOCK:
        raise DimensionError(
            f"band shape {band.shape} is not a multiple of {BLOCK}x{BLOCK}"
        )
    br, bc = band.shape[0] // BLOCK, band.shape[1] // BLOCK
    return band.reshape(br, BLOCK, bc, BLOCK).transpose(1, 3, 0, 2)


def band_to_blocks(band: np.ndarray) -> np.ndarray:
    """The 16 x M block columns of a band whose sides are multiples of 4."""
    return block_view(band).copy().reshape(BLOCK * BLOCK, -1)
