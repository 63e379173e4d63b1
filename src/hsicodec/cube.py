"""Hyperspectral cube I/O and per-band pre/post-processing.

Cubes live on disk as raw band-sequential little-endian int16 samples
(``<name>.raw``) with a plain-text sidecar header (``<name>.hdr``) carrying
``rows=``, ``cols=``, ``bands=``, ``dtype=i16le``, ``order=bsq``.

Every band the codec touches is first resized to BAND_SIZE x BAND_SIZE by
nearest-neighbor sampling and normalized to [0, 1]; the stored (src_min,
src_max) pair makes the normalization exactly invertible on integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CorruptInputError, DimensionError, FormatError, WriteError
from .rounding import round_half_away

BAND_SIZE = 256


@dataclass
class CubeHeader:
    rows: int
    cols: int
    bands: int


@dataclass
class HyperCube:
    """A rows x cols x bands stack of int16 reflectance samples.

    ``data`` is stored band-major, shape (bands, rows, cols), matching the
    band-sequential file layout. ``band_exclusions`` lists band indices the
    codec must treat as absent (damaged bands, user supplied).
    """

    data: np.ndarray
    band_exclusions: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.int16)
        if self.data.ndim != 3:
            raise DimensionError(f"cube data must be 3-D, got {self.data.ndim}-D")
        if min(self.data.shape) < 1:
            raise DimensionError(f"cube dims must be positive, got {self.data.shape}")
        self.band_exclusions = tuple(int(b) for b in self.band_exclusions)
        for b in self.band_exclusions:
            if not 0 <= b < self.bands:
                raise DimensionError(f"excluded band {b} out of range [0, {self.bands})")

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


@dataclass
class NormalizedBand:
    """A [0, 1]-valued band plus the integer range it was scaled from."""

    values: np.ndarray
    src_min: int
    src_max: int

    def __post_init__(self):
        if self.src_min > self.src_max:
            raise DimensionError("src_min must not exceed src_max")


def _header_path(raw_path) -> Path:
    return Path(raw_path).with_suffix(".hdr")


def read_header(path) -> CubeHeader:
    """Parse a ``.hdr`` sidecar (pass either the .raw or .hdr path)."""
    hdr = Path(path)
    if hdr.suffix != ".hdr":
        hdr = _header_path(hdr)
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


def load_cube(path, header: CubeHeader | None = None) -> HyperCube:
    """Load a raw BSQ int16 cube; reads the sidecar header unless given one."""
    raw = Path(path)
    if header is None:
        header = read_header(raw)
    expected = header.rows * header.cols * header.bands * 2
    try:
        blob = raw.read_bytes()
    except OSError as exc:
        raise CorruptInputError(f"cannot read cube {raw}: {exc}") from exc
    if len(blob) != expected:
        raise CorruptInputError(
            f"{raw}: file holds {len(blob)} bytes but header declares "
            f"{header.rows}x{header.cols}x{header.bands} ({expected} bytes)"
        )
    data = np.frombuffer(blob, dtype="<i2").reshape(
        header.bands, header.rows, header.cols
    )
    return HyperCube(data=data.astype(np.int16))


def store_cube(cube: HyperCube, path) -> None:
    """Write ``<path>`` (raw samples) and its ``.hdr`` sidecar."""
    raw = Path(path)
    hdr = _header_path(raw)
    text = (
        f"rows={cube.rows}\ncols={cube.cols}\nbands={cube.bands}\n"
        "dtype=i16le\norder=bsq\n"
    )
    try:
        raw.write_bytes(cube.data.astype("<i2").tobytes())
        hdr.write_text(text)
    except OSError as exc:
        raise WriteError(f"cannot write cube to {raw}: {exc}") from exc


def resize_band(band: np.ndarray, size: int = BAND_SIZE) -> np.ndarray:
    """Nearest-neighbor resize to size x size.

    Source coordinate for output pixel i is floor((i + 0.5) * rows / size),
    computed in exact integer arithmetic.
    """
    band = np.asarray(band)
    if band.ndim != 2 or min(band.shape) < 1:
        raise DimensionError(f"band must be a non-empty 2-D matrix, got {band.shape}")
    rows, cols = band.shape
    out = np.arange(size)
    src_i = ((2 * out + 1) * rows) // (2 * size)
    src_j = ((2 * out + 1) * cols) // (2 * size)
    return band[np.ix_(src_i, src_j)]


def normalize_band(band: np.ndarray) -> NormalizedBand:
    """Scale an integer band to [0, 1]; a constant band maps to all zeros."""
    band = np.asarray(band)
    lo = int(band.min())
    hi = int(band.max())
    if hi == lo:
        return NormalizedBand(np.zeros(band.shape, dtype=np.float64), lo, hi)
    values = (band.astype(np.float64) - lo) / float(hi - lo)
    return NormalizedBand(values, lo, hi)


def denormalize_band(nb: NormalizedBand) -> np.ndarray:
    """Invert normalize_band: scale back, round, clamp to [src_min, src_max].

    Values are clipped to [0, 1] first, which maps them to the same integers
    as clamping afterwards but keeps a huge value (a hostile band payload can
    predict 1e39) from overflowing the integer cast.
    """
    scaled = np.clip(nb.values, 0.0, 1.0) * float(nb.src_max - nb.src_min)
    ints = round_half_away(scaled).astype(np.int64) + nb.src_min
    return np.clip(ints, nb.src_min, nb.src_max)
