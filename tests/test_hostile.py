"""Hostile inputs: the decoder yields a value or CorruptStreamError, in bounded memory.

The length tests run in a fresh interpreter under a 1 GiB address-space
limit, so a decoder that trusts a declared length fails the test with a
MemoryError instead of allocating what the stream asks for.
"""

import functools
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsicodec.codec import (
    TAG_FIRST_BAND,
    Bitstream,
    BitstreamHeader,
    EncoderConfig,
    _band_blocks,
    _decode_band,
    decode_cube,
    encode_cube,
)
from hsicodec.compensate import CompensationConfig, offsets_from_bytes
from hsicodec.cube import HyperCube
from hsicodec.entropy import decode_bytes, encode_bytes, segment_from_bytes, segment_to_bytes
from hsicodec.errors import CorruptStreamError
from hsicodec.lm import TrainConfig
from hsicodec.quantize import RANGE_BYTES

# a cast or overflow warning on hostile input is a defect, not a pass
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_LIMIT = 1 << 30


def outcome_under_rlimit(call: str) -> str:
    """Run ``call`` in a fresh interpreter under RLIMIT_AS.

    Returns "ok", or the name of the exception the call raised.
    """
    code = "\n".join([
        "import resource",
        f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_LIMIT}, {ADDRESS_LIMIT}))",
        "try:",
        f"    {call}",
        "    print('ok')",
        "except BaseException as exc:",
        "    print(type(exc).__name__)",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


VARINT_2_TO_40 = bytes([0x80, 0x80, 0x80, 0x80, 0x80, 0x20])


@pytest.mark.parametrize("mode", [0, 1, 2])  # 2 was the single-symbol mode of version 1
def test_segment_declaring_2_to_40_bytes(mode):
    blob = bytes([mode]) + VARINT_2_TO_40 + b"\x07"
    call = (
        "from hsicodec.entropy import decode_bytes, segment_from_bytes; "
        f"decode_bytes(segment_from_bytes({blob!r}))"
    )
    assert outcome_under_rlimit(call) == "CorruptStreamError"


def test_offsets_payload_with_2_to_40_varint_count():
    call = (
        "from hsicodec.compensate import offsets_from_bytes; "
        f"offsets_from_bytes({VARINT_2_TO_40!r})"
    )
    assert outcome_under_rlimit(call) == "CorruptStreamError"


def zlib_bomb(chunks: int, chunk: int = 1 << 24) -> bytes:
    """A valid zlib stream inflating to chunks * chunk zero bytes, built in O(chunk)."""
    deflater = zlib.compressobj(9)
    head = deflater.compress(bytes(chunk)) + deflater.flush(zlib.Z_FULL_FLUSH)
    # after a full flush the deflater holds no history, so this block repeats
    block = deflater.compress(bytes(chunk)) + deflater.flush(zlib.Z_FULL_FLUSH)
    tail = deflater.flush()[:-4]
    checksum = ((chunks * chunk) % 65521) << 16 | 1  # adler32 of all-zero bytes
    return head + block * (chunks - 1) + tail + struct.pack(">I", checksum)


def test_zlib_bomb_is_valid():
    assert zlib.decompress(zlib_bomb(3, chunk=1 << 12)) == bytes(3 << 12)


def test_first_band_bomb_rejected_before_inflating(tmp_path):
    # a 1.25 GiB inflation declared as a 2**40-byte first band
    seg = bytes([1]) + VARINT_2_TO_40 + zlib_bomb(80)
    header = BitstreamHeader(
        rows=256, cols=256, coded_bands=1, exclusions=(),
        comp_enabled=False, comp_lambda=0.0, comp_qstep=1,
    )
    stream = tmp_path / "bomb.bip"
    stream.write_bytes(Bitstream(header=header, segments=[(TAG_FIRST_BAND, seg)]).to_bytes())
    call = (
        "from pathlib import Path; from hsicodec.codec import Bitstream, decode_cube; "
        f"decode_cube(Bitstream.from_bytes(Path({str(stream)!r}).read_bytes()))"
    )
    assert outcome_under_rlimit(call) == "CorruptStreamError"


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=600))
def test_arbitrary_segment_bytes(blob):
    try:
        out = decode_bytes(segment_from_bytes(blob))
    except CorruptStreamError:
        return
    assert isinstance(out, bytes)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=600))
def test_arbitrary_offsets_bytes(blob):
    try:
        off = offsets_from_bytes(blob)
    except CorruptStreamError:
        return
    assert len(off) == len(blob) // 8
    assert np.all(np.diff(off.indices) > 0)


@functools.lru_cache(maxsize=None)
def two_band_stream(lam: float | None = 0.02) -> Bitstream:
    """A valid 2-band stream: first band, params, ranges, and offsets at tolerance lam.

    lam None turns compensation off, so the stream carries no offsets segment.
    """
    i, j = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
    base = 110 + 75 * np.sin(i / 9.0) * np.cos(j / 11.0) + 30 * np.sin((i + 2 * j) / 15.0)
    cube = HyperCube(data=np.stack([np.round(base), np.round(base * 1.08 + 5)]).astype(np.int16))
    cfg = EncoderConfig(
        train=TrainConfig(max_epochs=2, seed=1),
        compensation=CompensationConfig(lam=lam or 0.0, enabled=lam is not None),
    )
    return encode_cube(cube, cfg)


@settings(max_examples=300, deadline=None)
@given(
    index=st.sampled_from([1, 2, 3]),  # the params, ranges and offsets segments
    flips=st.lists(st.integers(min_value=0), max_size=4),
    cut=st.none() | st.integers(min_value=0),
)
def test_mutated_band_payload(index, flips, cut):
    # mutate one payload before entropy coding, so the segment itself stays well formed
    bs = two_band_stream()
    tag, body = bs.segments[index]
    payload = bytearray(decode_bytes(segment_from_bytes(body)))
    for bit in flips if payload else []:
        payload[bit // 8 % len(payload)] ^= 1 << bit % 8
    if cut is not None:
        del payload[cut % (len(payload) + 1):]
    segments = list(bs.segments)
    segments[index] = (tag, segment_to_bytes(encode_bytes(bytes(payload))))
    blob = Bitstream(header=bs.header, segments=segments).to_bytes()
    try:
        out = decode_cube(Bitstream.from_bytes(blob))
    except CorruptStreamError:
        return
    assert out.data.shape == (2, 256, 256)


@settings(max_examples=300, deadline=None)
@given(
    lam=st.sampled_from([0.0, 0.05, None]),
    header_byte=st.none() | st.tuples(st.integers(min_value=0), st.integers(0, 255)),
    flips=st.lists(st.integers(min_value=0), max_size=4),
    cut=st.none() | st.integers(min_value=0),
)
def test_mutated_whole_stream(lam, header_byte, flips, cut):
    # the serialized stream itself: header, segment framing and entropy-coded bodies
    bs = two_band_stream(lam)
    blob = bytearray(bs.to_bytes())
    if header_byte is not None:
        pos, value = header_byte
        blob[pos % len(Bitstream(header=bs.header, segments=[]).to_bytes())] = value
    for bit in flips:
        blob[bit // 8 % len(blob)] ^= 1 << bit % 8
    if cut is not None:
        del blob[cut % (len(blob) + 1):]
    try:
        out = decode_cube(Bitstream.from_bytes(bytes(blob)))
    except CorruptStreamError:
        return
    assert isinstance(out, HyperCube)


def test_huge_parameter_ranges():
    # every parameter range widened to float32 +-3e38: the prediction reaches
    # about 1e39, which the band scaling used to cast to int64 out of range
    bs = two_band_stream()
    segments = list(bs.segments)
    tag, body = segments[2]
    payload = decode_bytes(segment_from_bytes(body))
    payload = struct.pack("<8f", *[-3e38, 3e38] * 4) + payload[RANGE_BYTES:]
    segments[2] = (tag, segment_to_bytes(encode_bytes(payload)))
    try:
        decode_cube(Bitstream(header=bs.header, segments=segments))
    except CorruptStreamError:
        return
    params = decode_bytes(segment_from_bytes(segments[1][1]))
    src_min, src_max = struct.unpack_from("<ii", payload, RANGE_BYTES)
    x = _band_blocks(decode_cube(bs).data[0])
    pred = _decode_band(x, params, payload)
    assert src_min <= pred.min() and pred.max() <= src_max
