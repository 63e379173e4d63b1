"""Hyperspectral cube I/O and per-band pre/post-processing.

Cubes live on disk as raw band-sequential little-endian int16 samples
(``<name>.raw``) with a plain-text sidecar header (``<name>.hdr``) carrying
``rows=``, ``cols=``, ``bands=``, ``dtype=i16le``, ``order=bsq``.

The codec codes each band at its own size, normalized to [0, 1]:
``normalize_band`` returns the values with the band's (src_min, src_max),
and that pair makes the normalization exactly invertible on integers.

A band's 4x4 blocks are the network's 16 inputs and outputs. Blocks are
scanned row-major, and so are the pixels within a block: pixel (i, j) lands
at row 4*(i mod 4) + (j mod 4) of column (cols/4)*(i div 4) + (j div 4).
``pad_band`` edge-replicates a band out to whole blocks and ``block_view``
lays it out in that order; the codec reads a band's block columns and
writes a predicted band's pixels back through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptInputError, DimensionError, FormatError, WriteError

BLOCK = 4
INT16 = np.iinfo(np.int16)


@dataclass
class CubeHeader:
    rows: int
    cols: int
    bands: int


@dataclass
class HyperCube:
    """A rows x cols x bands stack of int16 reflectance samples.

    ``data`` is stored band-major, shape (bands, rows, cols), matching the
    band-sequential file layout.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.dtype != np.int16:
            # a bare cast would wrap 40000 to -25536 and truncate 1.7 to 1
            in_range = np.all((data >= INT16.min) & (data <= INT16.max))
            if not (in_range and np.array_equal(data.astype(np.int16), data)):
                raise ValueError("cube samples must be integers that int16 holds exactly")
        self.data = data.astype(np.int16, copy=False)
        if self.data.ndim != 3:
            raise DimensionError(f"cube data must be 3-D, got {self.data.ndim}-D")
        if min(self.data.shape) < 1:
            raise DimensionError(f"cube dims must be positive, got {self.data.shape}")

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def rows(self) -> int:
        return self.data.shape[1]

    @property
    def cols(self) -> int:
        return self.data.shape[2]

    def band(self, index: int) -> np.ndarray:
        return self.data[index]


def _header_path(raw_path) -> Path:
    return Path(raw_path).with_suffix(".hdr")


def read_header(path) -> CubeHeader:
    """Parse a ``.hdr`` sidecar (pass either the .raw or .hdr path)."""
    hdr = _header_path(path)
    try:
        text = hdr.read_text()
    except OSError as exc:
        raise FormatError(f"cannot read header {hdr}: {exc}") from exc
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or "=" not in line:
            continue
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    try:
        rows = int(fields["rows"])
        cols = int(fields["cols"])
        bands = int(fields["bands"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"header {hdr} missing or malformed rows/cols/bands") from exc
    if fields.get("dtype", "i16le") != "i16le":
        raise FormatError(f"unsupported dtype {fields.get('dtype')!r} in {hdr}")
    if fields.get("order", "bsq") != "bsq":
        raise FormatError(f"unsupported order {fields.get('order')!r} in {hdr}")
    if rows < 1 or cols < 1 or bands < 1:
        raise FormatError(f"non-positive dimensions in {hdr}")
    return CubeHeader(rows=rows, cols=cols, bands=bands)


def load_cube(path) -> HyperCube:
    """Load a raw BSQ int16 cube described by its sidecar header."""
    raw = Path(path)
    header = read_header(raw)
    expected = header.rows * header.cols * header.bands * 2
    try:
        size = raw.stat().st_size
        if size != expected:
            raise CorruptInputError(
                f"{raw}: file holds {size} bytes but header declares "
                f"{header.rows}x{header.cols}x{header.bands} ({expected} bytes)"
            )
        data = np.fromfile(raw, dtype="<i2")
    except OSError as exc:
        raise CorruptInputError(f"cannot read cube {raw}: {exc}") from exc
    return HyperCube(data=data.reshape(header.bands, header.rows, header.cols))


def store_cube(cube: HyperCube, path) -> None:
    """Write ``<path>`` (raw samples) and its ``.hdr`` sidecar; a ``.hdr`` path is refused."""
    raw = Path(path)
    hdr = _header_path(raw)
    if hdr == raw:
        raise WriteError(f"cannot write cube samples to {raw}: the sidecar header goes there")
    text = f"rows={cube.rows}\ncols={cube.cols}\nbands={cube.bands}\ndtype=i16le\norder=bsq\n"
    try:
        with raw.open("wb") as out:
            for band in cube.data:  # a band at a time: a cropped cube is written with no copy of it
                np.ascontiguousarray(band, "<i2").tofile(out)
        hdr.write_text(text)
    except OSError as exc:
        raise WriteError(f"cannot write cube to {raw}: {exc}") from exc


def padded_shape(rows: int, cols: int) -> tuple[int, int]:
    """(rows, cols) rounded up to whole 4x4 blocks."""
    return rows + -rows % BLOCK, cols + -cols % BLOCK


def pad_band(band: np.ndarray) -> np.ndarray:
    """``band`` edge-replicated at its bottom and right to whole 4x4 blocks; ``band`` if it has them."""
    pad = [(0, -n % BLOCK) for n in band.shape]
    return np.pad(band, pad, mode="edge") if pad[0][1] or pad[1][1] else band


def block_view(band: np.ndarray) -> np.ndarray:
    """A band's pixels on axes (i mod 4, j mod 4, i div 4, j div 4), the block-column order.

    A view of a C-contiguous band: 16 x M blocks reshaped to its shape are
    read from or written to the band in one strided pass.
    """
    band = np.asarray(band)
    if band.ndim != 2 or band.shape[0] % BLOCK or band.shape[1] % BLOCK:
        raise DimensionError(f"band shape {band.shape} is not a multiple of {BLOCK}x{BLOCK}")
    br, bc = band.shape[0] // BLOCK, band.shape[1] // BLOCK
    return band.reshape(br, BLOCK, bc, BLOCK).transpose(1, 3, 0, 2)


def normalize_band(band: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Scale an integer band to [0, 1]: (values, src_min, src_max).

    A constant band maps to all zeros.
    """
    band = np.asarray(band)
    lo = int(band.min())
    hi = int(band.max())
    if hi == lo:
        return np.zeros(band.shape, dtype=np.float64), lo, hi
    values = band.astype(np.float64)
    values -= lo
    values /= float(hi - lo)
    return values, lo, hi


def denormalize_band(values: np.ndarray, src_min: int, src_max: int, out: np.ndarray) -> np.ndarray:
    """Invert normalize_band into ``out``: clip to [0, 1], scale back, round, add src_min.

    The clip keeps every result in [src_min, src_max], as v * d <= d for
    v <= 1, and keeps a huge value (a hostile band payload can predict
    1e39) from overflowing the integer cast. It also leaves each scaled
    value non-negative, so the codec's one rounding rule holds: add 0.5 and
    truncate, which the integer cast does.
    ``values`` is overwritten, and the integers fill ``out``, any int64 array
    of values' size, in values' order (as in a band's ``block_view``).
    """
    np.clip(values, 0.0, 1.0, out=values)
    values *= float(src_max - src_min)
    values += 0.5
    return np.add(values.reshape(out.shape), src_min, out=out, dtype=np.int64, casting="unsafe")
