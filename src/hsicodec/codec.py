"""The encode/decode pipeline and its bitstream container.

Encoding stores the first nonzero band losslessly, then walks the
remaining bands: train the network to map the previous *reconstructed*
band onto the current one, quantize the parameters, optionally patch
tolerance violations with transmitted offsets, and feed the reconstruction
forward as the next band's input. The encoder rebuilds each band by
running the decoder's band step (``_decode_band`` and ``_finish_band``) on
the payload bytes it emits, so decoder output matches the encoder-side
reconstruction bit for bit by construction.

Bitstream layout (version 2): magic "BIPN", version byte, fixed-width
little-endian header fields, then tagged segments (0x01 first band as
int16 byte planes, 0x02 params, 0x03 ranges plus band min/max, 0x04
offsets), each varint-length-prefixed and coded by ``entropy``. A segment
declaring more bytes than the header allows is rejected before inflating.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockMatrix, band_to_blocks, blocks_to_band
from .compensate import (
    CompensationConfig,
    apply_offsets,
    compute_offsets,
    offsets_from_bytes,
    offsets_to_bytes,
)
from .cube import (
    BAND_SIZE,
    HyperCube,
    NormalizedBand,
    denormalize_band,
    normalize_band,
    resize_band,
)
from .entropy import decode_bytes, encode_bytes, segment_from_bytes, segment_to_bytes
from .errors import CorruptStreamError, DimensionError, NoContentError
from .lm import TrainConfig, TrainReport, train
from .mlp import forward
from .quantize import (
    PARAM_BYTES,
    RANGE_BYTES,
    dequantize_params,
    from_payloads,
    params_payload,
    quantize_params,
    ranges_payload,
)
from .wire import from_byte_planes, read_varint, to_byte_planes, write_varint

MAGIC = b"BIPN"
VERSION = 2

TAG_FIRST_BAND = 0x01
TAG_PARAMS = 0x02
TAG_RANGES = 0x03
TAG_OFFSETS = 0x04

TAG_NAMES = {
    TAG_FIRST_BAND: "first-band",
    TAG_PARAMS: "params",
    TAG_RANGES: "ranges",
    TAG_OFFSETS: "offsets",
}

INT16_MIN = -32768
INT16_MAX = 32767

# the ranges payload is the four parameter (min, max) pairs, then the band's min and max
BAND_RANGE = struct.Struct("<ii")
RANGES_SEGMENT_BYTES = RANGE_BYTES + BAND_RANGE.size

# the most pre-entropy bytes a segment of each tag may declare
MAX_PAYLOAD = {
    TAG_FIRST_BAND: 2 * BAND_SIZE * BAND_SIZE,
    TAG_PARAMS: PARAM_BYTES,
    TAG_RANGES: RANGES_SEGMENT_BYTES,
    TAG_OFFSETS: 8 * BAND_SIZE * BAND_SIZE,
}


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
    comp_enabled: bool
    comp_lambda: float
    comp_qstep: int


@dataclass
class Bitstream:
    header: BitstreamHeader
    segments: list[tuple[int, bytes]]  # (tag, body)

    def to_bytes(self) -> bytes:
        h = self.header
        out = bytearray(MAGIC)
        out.append(VERSION)
        out += struct.pack("<HHHH", h.rows, h.cols, h.coded_bands, len(h.exclusions))
        out += struct.pack(f"<{len(h.exclusions)}H", *h.exclusions)
        out += struct.pack("<Bdh", int(h.comp_enabled), h.comp_lambda, h.comp_qstep)
        for tag, body in self.segments:
            out.append(tag)
            write_varint(out, len(body))
            out += body
        return bytes(out)

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
        header = BitstreamHeader(
            rows=rows,
            cols=cols,
            coded_bands=coded,
            exclusions=exclusions,
            comp_enabled=bool(enabled),
            comp_lambda=lam,
            comp_qstep=qstep,
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
        return cls(header=header, segments=segments)


@dataclass
class EncodeResult:
    """Bitstream plus the encoder-side state the caller may want to inspect."""

    bitstream: Bitstream
    band_indices: list[int]          # original cube indices of coded bands
    resized_bands: list[np.ndarray]  # resized originals (the codec's reference)
    recon_bands: list[np.ndarray]    # encoder-side reconstructions
    train_reports: list[TrainReport]


def _pack_band(band: np.ndarray) -> bytes:
    """A band as int16 little-endian byte planes."""
    return to_byte_planes(band, "<i2")


def _unpack_band(blob: bytes, shape) -> np.ndarray:
    if len(blob) != 2 * int(np.prod(shape)):
        raise CorruptStreamError("first-band payload does not match declared size")
    return from_byte_planes(blob, "<i2").astype(np.int64).reshape(shape)


def _band_blocks(band: np.ndarray) -> BlockMatrix:
    """The network input built from a reconstructed band."""
    return band_to_blocks(normalize_band(band).values)


def _decode_band(x: BlockMatrix, param_bytes: bytes, range_bytes: bytes) -> np.ndarray:
    """The one step both codec sides run: a band predicted from its payload bytes.

    ``x`` holds the previous reconstructed band's blocks; ``param_bytes`` and
    ``range_bytes`` are the pre-entropy params and ranges payloads. This is
    the only place that parses them: a payload that does not describe a
    valid network and band range raises CorruptStreamError.
    """
    if len(range_bytes) != RANGES_SEGMENT_BYTES:
        raise CorruptStreamError(f"ranges payload has {len(range_bytes)} bytes")
    src_min, src_max = BAND_RANGE.unpack_from(range_bytes, RANGE_BYTES)
    if src_min > src_max:
        raise CorruptStreamError("band min exceeds max")
    try:
        params = dequantize_params(from_payloads(param_bytes, range_bytes[:RANGE_BYTES]))
    except DimensionError as exc:
        raise CorruptStreamError(f"invalid band payload: {exc}") from exc
    pred = forward(params, x.data)
    if not np.all(np.isfinite(pred)):
        raise CorruptStreamError("band payload predicts non-finite values")
    band_values = blocks_to_band(
        BlockMatrix(data=pred, block_rows=x.block_rows, block_cols=x.block_cols)
    )
    return denormalize_band(NormalizedBand(band_values, src_min, src_max))


def _finish_band(pred: np.ndarray, offset_bytes: bytes | None) -> np.ndarray:
    """Apply the offsets payload (if compensation is on) and clip to int16."""
    if offset_bytes is not None:
        pred = apply_offsets(pred, offsets_from_bytes(offset_bytes))
    return np.clip(pred, INT16_MIN, INT16_MAX)


def encode_cube_full(cube: HyperCube, cfg: EncoderConfig) -> EncodeResult:
    exclusions = set(cube.band_exclusions) | set(cfg.band_exclusions)
    for b in exclusions:
        if not 0 <= b < cube.bands:
            raise DimensionError(f"excluded band {b} out of range [0, {cube.bands})")

    # leading all-zero bands join the exclusion list so the stream grammar
    # stays uniform and the decoder needs no special case
    coded: list[int] = []
    resized: list[np.ndarray] = []
    for b in range(cube.bands):
        if b in exclusions:
            continue
        rb = resize_band(cube.band(b)).astype(np.int64)
        if not coded and not rb.any():
            exclusions.add(b)
            continue
        coded.append(b)
        resized.append(rb)
    if not coded:
        raise NoContentError("cube has no nonzero non-excluded band")

    comp = cfg.compensation
    header = BitstreamHeader(
        rows=BAND_SIZE,
        cols=BAND_SIZE,
        coded_bands=len(coded),
        exclusions=tuple(sorted(exclusions)),
        comp_enabled=comp.enabled,
        comp_lambda=comp.lam,
        comp_qstep=comp.q_step,
    )
    segments: list[tuple[int, bytes]] = []

    first = resized[0]
    segments.append((TAG_FIRST_BAND, segment_to_bytes(encode_bytes(_pack_band(first)))))

    recon_bands = [first.copy()]
    reports: list[TrainReport] = []

    for band in resized[1:]:
        x = _band_blocks(recon_bands[-1])
        nb_tgt = normalize_band(band)
        params, report = train(x.data, band_to_blocks(nb_tgt.values).data, cfg.train)
        reports.append(report)

        qp = quantize_params(params)
        param_bytes = params_payload(qp)
        range_bytes = ranges_payload(qp) + BAND_RANGE.pack(nb_tgt.src_min, nb_tgt.src_max)
        pred = _decode_band(x, param_bytes, range_bytes)
        payloads = [(TAG_PARAMS, param_bytes), (TAG_RANGES, range_bytes)]
        offset_bytes = None
        if comp.enabled:
            offset_bytes = offsets_to_bytes(compute_offsets(band, pred, comp))
            payloads.append((TAG_OFFSETS, offset_bytes))
        recon_bands.append(_finish_band(pred, offset_bytes))
        segments += [(tag, segment_to_bytes(encode_bytes(p))) for tag, p in payloads]

    return EncodeResult(
        bitstream=Bitstream(header=header, segments=segments),
        band_indices=coded,
        resized_bands=resized,
        recon_bands=recon_bands,
        train_reports=reports,
    )


def encode_cube(cube: HyperCube, cfg: EncoderConfig) -> Bitstream:
    return encode_cube_full(cube, cfg).bitstream


def _decode_segment(tag: int, body: bytes) -> bytes:
    """Decode one segment body, refusing a declared length above its tag's cap."""
    seg = segment_from_bytes(body)
    if seg.original_len > MAX_PAYLOAD[tag]:
        raise CorruptStreamError(
            f"{TAG_NAMES[tag]} segment declares {seg.original_len} bytes, at most {MAX_PAYLOAD[tag]}"
        )
    return decode_bytes(seg)


def decode_cube(bs: Bitstream) -> HyperCube:
    h = bs.header
    if (h.rows, h.cols) != (BAND_SIZE, BAND_SIZE):
        raise CorruptStreamError(f"unsupported band geometry {h.rows}x{h.cols}")
    if h.coded_bands < 1:
        raise CorruptStreamError("stream declares no coded bands")
    try:
        comp = CompensationConfig(lam=h.comp_lambda, q_step=h.comp_qstep, enabled=h.comp_enabled)
    except ValueError as exc:
        raise CorruptStreamError(f"bad compensation header: {exc}") from exc
    per_band = [TAG_PARAMS, TAG_RANGES] + ([TAG_OFFSETS] if comp.enabled else [])
    if [tag for tag, _ in bs.segments] != [TAG_FIRST_BAND] + per_band * (h.coded_bands - 1):
        raise CorruptStreamError(
            f"{len(bs.segments)} segments do not follow the grammar of {h.coded_bands} "
            f"coded bands with compensation {'on' if comp.enabled else 'off'}"
        )

    # inflated lazily, so only one band's payloads are held at a time
    payloads = (_decode_segment(tag, body) for tag, body in bs.segments)
    bands = [_unpack_band(next(payloads), (h.rows, h.cols))]
    for _ in range(h.coded_bands - 1):
        pred = _decode_band(_band_blocks(bands[-1]), next(payloads), next(payloads))
        bands.append(_finish_band(pred, next(payloads) if comp.enabled else None))
    return HyperCube(data=np.stack(bands).astype(np.int16))


def bitrate(bs: Bitstream, cube_dims: tuple[int, int, int] | None = None) -> float:
    """Bits per pixel per band over the full serialized stream."""
    if cube_dims is None:
        h = bs.header
        cube_dims = (h.rows, h.cols, h.coded_bands)
    rows, cols, bands = cube_dims
    return len(bs.to_bytes()) * 8 / (rows * cols * bands)
