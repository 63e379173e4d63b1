"""The encode/decode pipeline and its bitstream container.

Bands are coded at the input's own size, padded to whole 4x4 blocks
(``cube.pad_band``), and outputs are views cropped back. Encoding stores
the first nonzero band losslessly, then walks the remaining bands: train
the network to map the previous *reconstructed* band onto the current one,
solve its output layer for the quantized hidden layer, quantize the
parameters, optionally patch tolerance violations with transmitted
offsets, and feed the reconstruction forward as the next band's input.
The encoder rebuilds each band by running the decoder's band step
(``_decode_band`` and ``_finish_band``) on the payload bytes it emits, so
decoder output matches the encoder-side reconstruction bit for bit by
construction.

Bitstream layout (version 4): magic "BIPN", version byte, fixed-width
little-endian header fields, then tagged segments (0x01 first band as
int16 byte planes; per predicted band 0x02 its params record, and with
compensation on either 0x04 sparse offsets or 0x05 the residual plane of
2 bytes per pixel, as ``compensate.compensation_payload`` picks per band),
each varint-length-prefixed and coded by ``entropy``. ``quantize`` owns
the params record; ``_fit_band`` is the one place the encoder fits a band:
LM places the hidden layer on a sample of the block columns, and the
output layer is solved in closed form over all of them.
``_band_blocks`` is the one builder of a band's scaled block columns, in
``cube.block_view``'s order: the network's input on both sides and the
encoder's training target.
``Bitstream.from_bytes`` rejects invalid compensation settings; it and
``decode_cube`` both run ``_check_grammar``, which rejects a geometry past
``_check_geometry``'s caps, no coded band, and segments that break the
grammar. ``decode_cube`` passes each tag's ``max_payload`` to
``entropy.segment_from_bytes``, which inflates at most one byte past it.

zlib runs on ``entropy.worker``, a background thread: the encoder deflates
band k's segments while it fits band k + 1, and the decoder inflates band
k + 1's while it runs band k's step. Its calls are a sequential codec's, in
stream order, so the stream bytes do not depend on the thread.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from .compensate import CompensationConfig, apply_offsets, apply_residual, compensation_payload
from .cube import BLOCK, INT16, HyperCube, block_view, denormalize_band, normalize_band, pad_band, padded_shape
from .entropy import inflate_ahead, segment_from_bytes, segment_to_bytes, worker
from .errors import CorruptStreamError, DimensionError, NoContentError
from .lm import TrainConfig, TrainReport, train
from .mlp import flatten, forward, layers, unpack
from .quantize import RECORD, dequantize_params, quantize_params
from .wire import from_byte_planes, read_varint, to_byte_planes, write_varint

MAGIC = b"BIPN"
VERSION = 4

TAG_FIRST_BAND = 0x01
TAG_PARAMS = 0x02
TAG_OFFSETS = 0x04
TAG_RESIDUAL = 0x05

TAG_NAMES = {
    TAG_FIRST_BAND: "first-band",
    TAG_PARAMS: "params",
    TAG_OFFSETS: "offsets",
    TAG_RESIDUAL: "residual",
}

# the most padded pixels of one band, whose sparse offsets then inflate to 32 MiB, and of
# all coded bands: 65,535 bands of 256 x 256, an 8 GiB output
MAX_BAND_PIXELS, MAX_CUBE_PIXELS = 1 << 22, 65535 * 65536


def max_payload(rows: int, cols: int) -> dict[int, int]:
    """The most pre-entropy bytes a segment of each tag may hold, for bands of rows x cols."""
    n = int(np.prod(padded_shape(rows, cols)))
    return {TAG_FIRST_BAND: 2 * n, TAG_PARAMS: RECORD.size, TAG_OFFSETS: 8 * n, TAG_RESIDUAL: 2 * n}


@dataclass
class EncoderConfig:
    train: TrainConfig = field(default_factory=TrainConfig)
    compensation: CompensationConfig = field(default_factory=CompensationConfig)
    band_exclusions: tuple[int, ...] = field(default_factory=tuple)


@dataclass
class BitstreamHeader:
    rows: int
    cols: int
    coded_bands: int
    exclusions: tuple[int, ...]
    compensation: CompensationConfig


def _check_geometry(rows: int, cols: int, bands: int, error: type[Exception]) -> None:
    """Raise ``error`` unless there are ``bands`` > 0 non-empty bands of rows x cols within the caps."""
    pixels = int(np.prod(padded_shape(rows, cols)))
    if not 0 < pixels <= MAX_BAND_PIXELS:
        raise error(f"band geometry {rows}x{cols} is empty or over {MAX_BAND_PIXELS} padded pixels")
    if not 0 < bands * pixels <= MAX_CUBE_PIXELS:
        raise error(f"{bands} coded bands of {rows}x{cols}: none, or over {MAX_CUBE_PIXELS} padded pixels")


def _check_grammar(header: BitstreamHeader, segments: list[tuple[int, bytes]]) -> None:
    """Raise CorruptStreamError unless ``header`` declares coded bands within the caps and the
    segment tags follow the bands it declares."""
    _check_geometry(header.rows, header.cols, header.coded_bands, CorruptStreamError)
    comp = header.compensation
    # a band's second segment may be either layout, so residual tags check as offsets tags
    per_band = [TAG_PARAMS] + ([TAG_OFFSETS] if comp.enabled else [])
    tags = [TAG_OFFSETS if tag == TAG_RESIDUAL else tag for tag, _ in segments]
    if tags != [TAG_FIRST_BAND] + per_band * (header.coded_bands - 1):
        raise CorruptStreamError(
            f"{len(segments)} segments do not follow the grammar of {header.coded_bands} "
            f"coded bands with compensation {'on' if comp.enabled else 'off'}"
        )


def _pack_header(h: BitstreamHeader) -> bytearray:
    """The stream's bytes before its first segment; a field past its width raises struct.error."""
    comp = h.compensation
    out = bytearray(MAGIC)
    out.append(VERSION)
    out += struct.pack("<HHHH", h.rows, h.cols, h.coded_bands, len(h.exclusions))
    out += struct.pack(f"<{len(h.exclusions)}H", *h.exclusions)
    out += struct.pack("<Bdh", int(comp.enabled), comp.lam, comp.q_step)
    return out


def _framed(segments: list[tuple[int, bytes]]):
    """Each segment's head (its tag byte and varint body length), then its body, as the stream holds them."""
    for tag, body in segments:
        head = bytearray([tag])
        write_varint(head, len(body))
        yield from (head, body)


@dataclass
class Bitstream:
    header: BitstreamHeader
    segments: list[tuple[int, bytes]]  # (tag, body)

    def to_bytes(self) -> bytes:
        """The serialized stream, joined into its one copy."""
        return b"".join([_pack_header(self.header), *_framed(self.segments)])

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Bitstream":
        if len(blob) < 4 or blob[:4] != MAGIC:
            raise CorruptStreamError("bad magic (not a codec bitstream)")
        if len(blob) < 5 or blob[4] != VERSION:
            raise CorruptStreamError(f"unsupported version {blob[4] if len(blob) > 4 else '?'}")
        offset = 5
        try:
            rows, cols, coded, n_excl = struct.unpack_from("<HHHH", blob, offset)
            offset += 8
            exclusions = struct.unpack_from(f"<{n_excl}H", blob, offset)
            offset += 2 * n_excl
            enabled, lam, qstep = struct.unpack_from("<Bdh", blob, offset)
            offset += struct.calcsize("<Bdh")
        except struct.error as exc:
            raise CorruptStreamError("truncated header") from exc
        if enabled > 1:
            raise CorruptStreamError(f"bad compensation header: enabled byte {enabled} is not 0 or 1")
        try:
            comp = CompensationConfig(lam=lam, q_step=qstep, enabled=bool(enabled))
        except ValueError as exc:
            raise CorruptStreamError(f"bad compensation header: {exc}") from exc
        header = BitstreamHeader(
            rows=rows, cols=cols, coded_bands=coded, exclusions=exclusions, compensation=comp
        )
        segments = []
        while offset < len(blob):
            tag = blob[offset]
            if tag not in TAG_NAMES:
                raise CorruptStreamError(f"unknown segment tag {tag:#x} at byte {offset}")
            length, offset = read_varint(blob, offset + 1)
            if offset + length > len(blob):
                raise CorruptStreamError(
                    f"truncated {TAG_NAMES[tag]} segment at byte {offset}"
                )
            segments.append((tag, bytes(blob[offset : offset + length])))
            offset += length
        _check_grammar(header, segments)
        return cls(header=header, segments=segments)


@dataclass
class EncodeResult:
    """Bitstream plus the encoder-side state the caller may want to inspect."""

    bitstream: Bitstream
    band_indices: list[int]    # original cube indices of coded bands
    resized_bands: np.ndarray  # int16 (coded, rows, cols), read-only: the input's coded bands, the codec's
                               # reference; a view of the input cube where its coded bands need no gather
    recon_bands: np.ndarray    # int16 (coded, rows, cols): encoder-side reconstructions, cropped from padded bands
    train_reports: list[TrainReport]
    predict_mse: list[float]   # per predicted band: MSE of the params-only prediction, before offsets


def _unpack_band(blob: bytes, shape) -> np.ndarray:
    if len(blob) != 2 * int(np.prod(shape)):
        raise CorruptStreamError("first-band payload does not match declared size")
    return from_byte_planes(blob, "<i2").reshape(shape)


def _band_blocks(band: np.ndarray) -> tuple[np.ndarray, int, int]:
    """(columns, src_min, src_max): a band's 16 x M block columns, permuted as int16, then scaled
    to [0, 1] in a new C-contiguous float64 array, the layout ``forward`` rounds ``w1 @ x`` in."""
    return normalize_band(block_view(band).reshape(BLOCK * BLOCK, -1))


def _fit_band(x: np.ndarray, band: np.ndarray, cfg: TrainConfig) -> tuple[bytes, TrainReport]:
    """The params record predicting ``band`` from ``x``, the previous reconstructed band's blocks.

    LM places the hidden layer on a sample of the columns. The decoder runs that layer in
    8 bits on every column, so the output layer is then solved for it over all of them:
    ridge least squares (G + rho I) [w2 | b2]' = H~ T' with H~ = [hidden; 1], G = H~ H~'
    and rho = 1e-6 tr(G) / 11, which keeps G's collinear saturated units solvable.
    """
    target, src_min, src_max = _band_blocks(band)
    params, report = train(x, target, cfg)
    shipped = dequantize_params(quantize_params(params, src_min, src_max))[0]
    w1, b1 = unpack(shipped)[:2]
    h1 = np.vstack([layers(shipped, x)[0], np.ones((1, x.shape[1]))])
    g = h1 @ h1.T
    w2b2 = np.linalg.solve(g + 1e-6 * np.trace(g) / len(g) * np.eye(len(g)), h1 @ target.T).T
    return quantize_params(flatten(w1, b1, w2b2[:, :-1], w2b2[:, -1]), src_min, src_max), report


def _decode_band(x: np.ndarray, record: bytes, shape: tuple[int, int]) -> np.ndarray:
    """The one step both codec sides run: a padded band of ``shape`` predicted from its params record.

    ``x`` holds the previous reconstructed band's blocks; ``record`` is the
    pre-entropy params record. An invalid record, or one that predicts
    non-finite values, raises CorruptStreamError.
    """
    params, src_min, src_max = dequantize_params(record)
    pred = forward(params, x)
    if not np.all(np.isfinite(pred)):
        raise CorruptStreamError("band payload predicts non-finite values")
    band = np.empty(shape, np.int64)
    denormalize_band(pred, src_min, src_max, out=block_view(band))
    return band


def _finish_band(pred: np.ndarray, offsets: tuple[int, bytes] | None, out: np.ndarray) -> None:
    """Add the (tag, payload) offsets (None: compensation off) to ``pred`` in place; clip into ``out``."""
    if offsets is not None:
        tag, payload = offsets
        (apply_residual if tag == TAG_RESIDUAL else apply_offsets)(pred, payload)
    np.clip(pred, INT16.min, INT16.max, out=out)


def encode_cube_full(cube: HyperCube, cfg: EncoderConfig) -> EncodeResult:
    exclusions = set(cfg.band_exclusions)
    for b in exclusions:
        if not isinstance(b, Integral) or not 0 <= b < cube.bands:
            raise DimensionError(f"excluded band {b!r} is not an integer in [0, {cube.bands})")

    # leading all-zero bands join the exclusion list so the stream grammar
    # stays uniform and the decoder needs no special case
    coded: list[int] = []
    for b in range(cube.bands):
        if b in exclusions:
            continue
        if not coded and not cube.band(b).any():
            exclusions.add(b)
            continue
        coded.append(b)
    if not coded:
        raise NoContentError("cube has no nonzero non-excluded band")

    rows, cols = cube.rows, cube.cols
    header = BitstreamHeader(
        rows=rows, cols=cols, coded_bands=len(coded), exclusions=tuple(sorted(exclusions)),
        compensation=replace(cfg.compensation),  # the header's own copy, not the caller's object
    )
    comp = header.compensation
    try:
        _pack_header(header)
    except struct.error as exc:
        raise DimensionError(f"cube does not fit the u16 header fields: {exc}") from exc
    _check_geometry(rows, cols, len(coded), DimensionError)
    # the reference: a read-only view of coded bands that are one C-ordered run, else their copy
    run = cube.data[coded[0] : coded[-1] + 1]
    ref = np.ascontiguousarray(run if len(run) == len(coded) else cube.data[coded])
    ref.flags.writeable = False
    # the band step writes every later band, so only band 0 is copied, padded
    recon = np.empty((len(coded), *padded_shape(rows, cols)), np.int16)
    recon[0] = pad_band(ref[0])
    # band k - 1's segments are taken before band k's are handed to the worker
    segments: list[tuple[int, bytes]] = []
    pending = [(TAG_FIRST_BAND, worker().submit(segment_to_bytes, to_byte_planes(recon[0], "<i2")))]
    reports: list[TrainReport] = []
    predict_mse: list[float] = []

    for k in range(1, len(coded)):
        x = _band_blocks(recon[k - 1])[0]
        target = pad_band(ref[k])
        record, report = _fit_band(x, target, cfg.train)
        reports.append(report)
        pred = _decode_band(x, record, target.shape)
        # pred lies in the band's [min, max], so this integer sum of squares (pad left out) is exact
        d = (pred[:rows, :cols] - ref[k]).ravel()
        predict_mse.append(float(np.dot(d, d)) / d.size)
        payloads = [(TAG_PARAMS, record)]
        offsets = None
        if comp.enabled:
            dense, offset_bytes = compensation_payload(target, pred, comp)
            offsets = (TAG_RESIDUAL if dense else TAG_OFFSETS, offset_bytes)
            payloads.append(offsets)
        _finish_band(pred, offsets, out=recon[k])
        segments += [(tag, future.result()) for tag, future in pending]
        pending = [(tag, worker().submit(segment_to_bytes, p)) for tag, p in payloads]
    segments += [(tag, future.result()) for tag, future in pending]

    return EncodeResult(
        bitstream=Bitstream(header=header, segments=segments),
        band_indices=coded,
        resized_bands=ref,
        recon_bands=recon[:, :rows, :cols],
        train_reports=reports,
        predict_mse=predict_mse,
    )


def decode_cube(bs: Bitstream) -> HyperCube:
    _check_grammar(bs.header, bs.segments)  # a Bitstream built in memory skips from_bytes
    h = bs.header
    comp = h.compensation
    per_band = 2 if comp.enabled else 1
    caps = max_payload(h.rows, h.cols)

    def inflating(k: int):
        """Band k's (tag, payload) pairs, taken by next(); its zlib segments start inflating now."""
        calls = [(tag, inflate_ahead(body, caps[tag]))
                 for tag, body in bs.segments[1 + (k - 1) * per_band : 1 + k * per_band]]
        return ((tag, call()) for tag, call in calls)

    # band k + 1's segments inflate on the worker while band k's step runs, and payloads are
    # taken in stream order, so errors come in a sequential decode's order. Each padded band is
    # written in place, so decoding holds the output, two bands' payloads and one band's work
    data = np.empty((h.coded_bands, *padded_shape(h.rows, h.cols)), np.int16)
    upcoming = inflating(1)
    data[0] = _unpack_band(segment_from_bytes(bs.segments[0][1], caps[TAG_FIRST_BAND]), data.shape[1:])
    for k in range(1, h.coded_bands):
        payloads, upcoming = upcoming, inflating(k + 1)
        pred = _decode_band(_band_blocks(data[k - 1])[0], next(payloads)[1], data.shape[1:])
        _finish_band(pred, next(payloads) if comp.enabled else None, out=data[k])
    return HyperCube(data=data[:, : h.rows, : h.cols])


def bitrate(bs: Bitstream) -> float:
    """Bits per pixel per band over the full serialized stream, sized without serializing it."""
    h = bs.header
    size = len(_pack_header(h)) + sum(map(len, _framed(bs.segments)))
    return size * 8 / (h.rows * h.cols * h.coded_bands)
