"""The encode/decode pipeline and its bitstream container.

Encoding stores the first nonzero band losslessly, then walks the
remaining bands: train the network to map the previous *reconstructed*
band onto the current one, quantize the parameters, rebuild the band from
the dequantized parameters exactly as the decoder will, optionally patch
tolerance violations with transmitted offsets, and feed the result forward
as the next band's input. Because the encoder only ever uses information
the decoder will have, decoder output matches the encoder-side
reconstruction bit for bit.

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
    OffsetMap,
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
from .mlp import N_PARAMS, forward
from .quantize import (
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
        for b in h.exclusions:
            out += struct.pack("<H", b)
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
            exclusions = []
            for _ in range(n_excl):
                (b,) = struct.unpack_from("<H", blob, offset)
                exclusions.append(b)
                offset += 2
            enabled, lam, qstep = struct.unpack_from("<Bdh", blob, offset)
            offset += struct.calcsize("<Bdh")
        except struct.error as exc:
            raise CorruptStreamError("truncated header") from exc
        header = BitstreamHeader(
            rows=rows,
            cols=cols,
            coded_bands=coded,
            exclusions=tuple(exclusions),
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


def _predict_band(dq_params, x: BlockMatrix, src_min: int, src_max: int) -> np.ndarray:
    """Shared encoder/decoder reconstruction of one band from its predecessor's blocks."""
    pred = forward(dq_params, x.data)
    band_values = blocks_to_band(
        BlockMatrix(data=pred, block_rows=x.block_rows, block_cols=x.block_cols)
    )
    return denormalize_band(NormalizedBand(band_values, src_min, src_max))


def _finalize_band(recon: np.ndarray, off_map: OffsetMap | None) -> np.ndarray:
    if off_map is not None:
        recon = apply_offsets(recon, off_map)
    return np.clip(recon, INT16_MIN, INT16_MAX)


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
        t = band_to_blocks(nb_tgt.values)
        params, report = train(x.data, t.data, cfg.train)
        reports.append(report)

        qp = quantize_params(params)
        dq = dequantize_params(qp)
        recon = _predict_band(dq, x, nb_tgt.src_min, nb_tgt.src_max)

        off_map = None
        if comp.enabled:
            off_map = compute_offsets(band, recon, comp)
        recon = _finalize_band(recon, off_map)
        recon_bands.append(recon)

        segments.append((TAG_PARAMS, segment_to_bytes(encode_bytes(params_payload(qp)))))
        ranges_body = ranges_payload(qp) + struct.pack("<ii", nb_tgt.src_min, nb_tgt.src_max)
        segments.append((TAG_RANGES, segment_to_bytes(encode_bytes(ranges_body))))
        if comp.enabled:
            segments.append(
                (TAG_OFFSETS, segment_to_bytes(encode_bytes(offsets_to_bytes(off_map))))
            )

    return EncodeResult(
        bitstream=Bitstream(header=header, segments=segments),
        band_indices=coded,
        resized_bands=resized,
        recon_bands=recon_bands,
        train_reports=reports,
    )


def encode_cube(cube: HyperCube, cfg: EncoderConfig) -> Bitstream:
    return encode_cube_full(cube, cfg).bitstream


def _expect(segments, pos: int, tag: int) -> bytes:
    if pos >= len(segments):
        raise CorruptStreamError(
            f"stream ends where a {TAG_NAMES[tag]} segment was expected (segment {pos})"
        )
    got_tag, body = segments[pos]
    if got_tag != tag:
        raise CorruptStreamError(
            f"segment {pos} is {TAG_NAMES[got_tag]}, expected {TAG_NAMES[tag]}"
        )
    return body


def _decode_segment(body: bytes, max_len: int) -> bytes:
    """Decode one segment body, refusing a declared length above max_len."""
    seg = segment_from_bytes(body)
    if seg.original_len > max_len:
        raise CorruptStreamError(f"segment declares {seg.original_len} bytes, at most {max_len}")
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
    pixels = h.rows * h.cols

    pos = 0
    body = _expect(bs.segments, pos, TAG_FIRST_BAND)
    pos += 1
    bands = [_unpack_band(_decode_segment(body, 2 * pixels), (h.rows, h.cols))]
    for _ in range(h.coded_bands - 1):
        param_body = _expect(bs.segments, pos, TAG_PARAMS)
        pos += 1
        ranges_body = _expect(bs.segments, pos, TAG_RANGES)
        pos += 1
        param_bytes = _decode_segment(param_body, N_PARAMS)
        rng_bytes = _decode_segment(ranges_body, 40)
        if len(rng_bytes) != 40:
            raise CorruptStreamError(f"ranges segment {pos - 1} has {len(rng_bytes)} bytes, expected 40")
        qp = from_payloads(param_bytes, rng_bytes[:32])
        src_min, src_max = struct.unpack_from("<ii", rng_bytes, 32)
        if src_min > src_max:
            raise CorruptStreamError("band min exceeds max")

        recon = _predict_band(dequantize_params(qp), _band_blocks(bands[-1]), src_min, src_max)
        off_map = None
        if comp.enabled:
            off_body = _expect(bs.segments, pos, TAG_OFFSETS)
            pos += 1
            off_map = offsets_from_bytes(_decode_segment(off_body, 8 * pixels))
        bands.append(_finalize_band(recon, off_map))

    if pos != len(bs.segments):
        raise CorruptStreamError(f"{len(bs.segments) - pos} unexpected trailing segments")
    return HyperCube(data=np.stack(bands).astype(np.int16))


def bitrate(bs: Bitstream, cube_dims: tuple[int, int, int] | None = None) -> float:
    """Bits per pixel per band over the full serialized stream."""
    if cube_dims is None:
        h = bs.header
        cube_dims = (h.rows, h.cols, h.coded_bands)
    rows, cols, bands = cube_dims
    return len(bs.to_bytes()) * 8 / (rows * cols * bands)
