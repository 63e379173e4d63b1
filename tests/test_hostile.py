"""Hostile inputs: the decoder yields a value or CorruptStreamError, in bounded memory.

The length and memory tests run in a fresh interpreter under a 1 GiB
address-space limit, so a decoder that trusts a declared length fails the
test with a MemoryError instead of allocating what the stream asks for.
The encoder's memory is bounded here the same way.
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
    MAX_PAYLOAD,
    TAG_FIRST_BAND,
    TAG_OFFSETS,
    TAG_PARAMS,
    TAG_RESIDUAL,
    Bitstream,
    BitstreamHeader,
    EncoderConfig,
    _band_blocks,
    _decode_band,
    decode_cube,
    encode_cube_full,
)
from hsicodec.compensate import CompensationConfig, apply_offsets, apply_residual
from hsicodec.cube import HyperCube, store_cube
from hsicodec.entropy import segment_from_bytes, segment_to_bytes
from hsicodec.errors import CorruptStreamError
from hsicodec.lm import TrainConfig
from hsicodec.quantize import RECORD
from hsicodec.wire import to_byte_planes

# a cast or overflow warning on hostile input is a defect, not a pass
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_LIMIT = 1 << 30


def outcome_under_rlimit(call: str) -> str:
    """Run ``call`` in a fresh interpreter under RLIMIT_AS.

    Returns "ok", or "<name>: <message>" of the exception the call raised.
    """
    code = "\n".join([
        "import resource",
        f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_LIMIT}, {ADDRESS_LIMIT}))",
        "try:",
        f"    {call}",
        "    print('ok')",
        "except BaseException as exc:",
        "    print(f'{type(exc).__name__}: {exc}')",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


VARINT_2_TO_40 = bytes([0x80, 0x80, 0x80, 0x80, 0x80, 0x20])


@pytest.mark.parametrize("mode", [0, 1], ids=["raw", "zlib"])
def test_segment_of_max_len_bytes(mode):
    # a payload of max_len bytes comes back, one of max_len + 1 is rejected, in either mode
    for max_len in (0, 1, RECORD.size, MAX_PAYLOAD[TAG_FIRST_BAND]):
        data = bytes(max_len + 1)
        fits, over = (bytes([mode]) + (zlib.compress(d) if mode else d) for d in (data[:-1], data))
        assert segment_from_bytes(fits, max_len) == data[:-1]
        with pytest.raises(CorruptStreamError, match=f"over its cap of {max_len}"):
            segment_from_bytes(over, max_len)


def test_offsets_payload_with_2_to_40_varint_count():
    call = (
        "import numpy as np; from hsicodec.compensate import apply_offsets; "
        f"apply_offsets(np.zeros((256, 256)), {VARINT_2_TO_40!r})"
    )
    assert outcome_under_rlimit(call) == "CorruptStreamError: offset payload of 6 bytes is not 8 per entry"


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


def plain_header(bands: int) -> BitstreamHeader:
    """The header of a stream of ``bands`` full-size bands with compensation off."""
    return BitstreamHeader(
        rows=256, cols=256, coded_bands=bands, exclusions=(),
        compensation=CompensationConfig(enabled=False),
    )


def test_first_band_bomb_rejected_before_inflating(tmp_path):
    # a 1.25 GiB inflation as a first band: the band's cap stops it one byte past 128 KiB
    seg = bytes([1]) + zlib_bomb(80)
    stream = tmp_path / "bomb.bip"
    stream.write_bytes(Bitstream(header=plain_header(1), segments=[(TAG_FIRST_BAND, seg)]).to_bytes())
    call = (
        "from pathlib import Path; from hsicodec.codec import Bitstream, decode_cube; "
        f"decode_cube(Bitstream.from_bytes(Path({str(stream)!r}).read_bytes()))"
    )
    assert outcome_under_rlimit(call) == "CorruptStreamError: zlib payload inflates over its cap of 131072 bytes"


def test_bomb_with_a_cap_of_0_is_bounded(tmp_path):
    # zlib reads max_length 0 as "no limit", so a cap of 0 must still bound the inflation
    seg = tmp_path / "bomb.seg"
    seg.write_bytes(bytes([1]) + zlib_bomb(80))
    call = (
        "from pathlib import Path; from hsicodec.entropy import segment_from_bytes; "
        f"segment_from_bytes(Path({str(seg)!r}).read_bytes(), 0)"
    )
    assert outcome_under_rlimit(call) == "CorruptStreamError: zlib payload inflates over its cap of 0 bytes"


def minimal_stream(bands: int) -> bytes:
    """The smallest valid stream of ``bands`` bands: compensation off, every payload zero."""
    band = (TAG_PARAMS, segment_to_bytes(bytes(RECORD.size)))
    first = (TAG_FIRST_BAND, segment_to_bytes(bytes(MAX_PAYLOAD[TAG_FIRST_BAND])))
    return Bitstream(header=plain_header(bands), segments=[first] + [band] * (bands - 1)).to_bytes()


@pytest.mark.parametrize("framing, error", [
    (bytes([0x03, 0x00]), "unknown segment tag 0x3"),
    (bytes([TAG_FIRST_BAND, 0x80]), "truncated varint"),
    (bytes([TAG_FIRST_BAND]) + b"\x80" * 10 + b"\x01", "varint too long"),
], ids=["unknown-tag", "truncated-length", "length-past-63-bits"])
def test_bad_segment_framing(framing, error):
    # the container's varint is the only length a segment has on the wire
    with pytest.raises(CorruptStreamError, match=error):
        Bitstream.from_bytes(Bitstream(header=plain_header(1), segments=[]).to_bytes() + framing)


@pytest.mark.parametrize("change", [-2, -1])
def test_first_band_of_a_wrong_length(change):
    # under the cap, so the first band's own length check is what rejects it
    first = segment_to_bytes(bytes(MAX_PAYLOAD[TAG_FIRST_BAND] + change))
    blob = Bitstream(header=plain_header(1), segments=[(TAG_FIRST_BAND, first)]).to_bytes()
    with pytest.raises(CorruptStreamError, match="first-band payload does not match"):
        decode_cube(Bitstream.from_bytes(blob))


@pytest.mark.parametrize("decode", [
    "decode_cube(Bitstream.from_bytes(stream.read_bytes()))",
    "assert run(['decode', str(stream), str(out)]) == 0",
], ids=["library", "cli"])
def test_decode_memory_is_the_output_plus_one_band(tmp_path, decode):
    # 3,361 bytes that decode to a 25 MiB cube: the decoder may hold the
    # output and one band's working arrays, not a second copy of every band.
    # tracemalloc's peak is the decode's own: numpy reports its buffers to
    # it, while ru_maxrss starts from what the child inherits through fork
    stream = tmp_path / "zeros.bip"
    stream.write_bytes(minimal_stream(200))
    assert stream.stat().st_size == 3361
    call = "; ".join([
        "import tracemalloc",
        "from pathlib import Path",
        "from hsicodec.cli import run",
        "from hsicodec.codec import Bitstream, decode_cube",
        f"stream, out = Path({str(stream)!r}), Path({str(tmp_path / 'zeros.raw')!r})",
        "tracemalloc.start()",
        decode,
        "print(tracemalloc.get_traced_memory()[1])",
    ])
    *printed, outcome = outcome_under_rlimit(call).split()
    assert outcome == "ok"
    peak = int(printed[-1])
    output = 200 * 256 * 256 * 2
    assert peak <= output + (8 << 20), f"decode peaked at {peak >> 20} MiB for a {output >> 20} MiB cube"


@pytest.fixture(scope="module")
def cube_of_100_bands(tmp_path_factory):
    from make_synthetic_cube import make_cube

    path = tmp_path_factory.mktemp("encode") / "cube.raw"
    store_cube(make_cube(100, 256, 7), path)
    return path


@pytest.mark.parametrize("encode, slack_mib", [
    ("out.write_bytes(encode_cube_full(load_cube(cube), cfg).bitstream.to_bytes())", 6),
    ("assert run(['encode', str(cube), str(out), '--max-epochs', '0', '--lambda', '0.05']) == 0", 8),
], ids=["library", "cli"])
def test_encode_memory_is_input_recon_and_stream(cube_of_100_bands, encode, slack_mib):
    # a 12.5 MiB cube of full-size bands: the encoder may hold the input, one
    # int16 reconstruction, the stream and one band's working arrays, LM's
    # buffers among them, not a further copy of every band; the CLI's further
    # slack is for the per-band SSIM it reports after the encode
    out = cube_of_100_bands.with_name("cube.bip")
    call = "; ".join([
        "import tracemalloc",
        "from pathlib import Path",
        "from hsicodec.cli import run",
        "from hsicodec.codec import EncoderConfig, encode_cube_full",
        "from hsicodec.compensate import CompensationConfig",
        "from hsicodec.cube import load_cube",
        "from hsicodec.lm import TrainConfig",
        f"cube, out = Path({str(cube_of_100_bands)!r}), Path({str(out)!r})",
        "cfg = EncoderConfig(train=TrainConfig(max_epochs=0), compensation=CompensationConfig(lam=0.05))",
        "tracemalloc.start()",
        encode,
        "print(tracemalloc.get_traced_memory()[1])",
    ])
    *printed, outcome = outcome_under_rlimit(call).split()
    assert outcome == "ok"
    peak = int(printed[-1])
    samples = 100 * 256 * 256 * 2
    bound = 2 * samples + out.stat().st_size + (slack_mib << 20)
    assert peak <= bound, f"encode peaked at {peak >> 20} MiB, over {bound >> 20} MiB"


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=600))
def test_arbitrary_segment_bytes(blob):
    try:
        out = segment_from_bytes(blob, 1 << 41)
    except CorruptStreamError:
        return
    assert isinstance(out, bytes)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=600))
def test_arbitrary_offsets_bytes(blob):
    try:
        band = apply_offsets(np.zeros((256, 256), dtype=np.int64), blob)
    except CorruptStreamError:
        return
    # strictly increasing indices, each with a nonzero offset
    assert np.count_nonzero(band) == len(blob) // 8


@functools.lru_cache(maxsize=None)
def two_band_stream(lam: float | None = 0.02) -> Bitstream:
    """A valid 2-band stream: first band, params record, and offsets at tolerance lam.

    lam None turns compensation off, so the stream carries no offsets segment.
    Band 1 is noise that no map of band 0 predicts, so at lam 0.02 most of
    its pixels carry an offset and it takes the dense layout whatever the
    network learns.
    """
    i, j = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
    base = 110 + 75 * np.sin(i / 9.0) * np.cos(j / 11.0) + 30 * np.sin((i + 2 * j) / 15.0)
    noise = np.random.default_rng(5).integers(0, 256, (64, 64))
    cube = HyperCube(data=np.stack([np.round(base), noise]).astype(np.int16))
    cfg = EncoderConfig(
        train=TrainConfig(max_epochs=2, seed=1),
        compensation=CompensationConfig(lam=lam or 0.0, enabled=lam is not None),
    )
    return encode_cube_full(cube, cfg).bitstream


@settings(max_examples=300, deadline=None)
@given(
    index=st.sampled_from([1, 2]),  # the params record and offsets segments
    flips=st.lists(st.integers(min_value=0), max_size=4),
    cut=st.none() | st.integers(min_value=0),
)
def test_mutated_band_payload(index, flips, cut):
    # mutate one payload before entropy coding, so the segment itself stays well formed
    bs = two_band_stream()
    tag, body = bs.segments[index]
    payload = bytearray(segment_from_bytes(body, MAX_PAYLOAD[tag]))
    for bit in flips if payload else []:
        payload[bit // 8 % len(payload)] ^= 1 << bit % 8
    if cut is not None:
        del payload[cut % (len(payload) + 1):]
    segments = list(bs.segments)
    segments[index] = (tag, segment_to_bytes(bytes(payload)))
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


def test_offsets_past_int16_saturate():
    # offsets of +-2**31 on the first two pixels: the band is stored as int16,
    # so the decoder must clip them to the int16 range, not let them wrap
    bs = two_band_stream()
    decoded = decode_cube(bs).data.astype(np.int64)
    record = segment_from_bytes(bs.segments[1][1], MAX_PAYLOAD[TAG_PARAMS])
    offsets = decoded[1] - _decode_band(_band_blocks(decoded[0])[0], record)
    # the layout rule: dense when over a quarter of the pixels carry an offset, each within int16
    dense = 4 * np.count_nonzero(offsets) > offsets.size and -(2**15) <= offsets.min() <= offsets.max() < 2**15
    assert bs.segments[2][0] == (TAG_RESIDUAL if dense else TAG_OFFSETS)
    zigzags = np.array([2 * (2**31 - 1), 2 * 2**31 - 1])
    payload = to_byte_planes(np.array([0, 1]), "<u4") + to_byte_planes(zigzags, "<u4")
    segments = bs.segments[:2] + [(TAG_OFFSETS, segment_to_bytes(payload))]
    band = decode_cube(Bitstream(header=bs.header, segments=segments)).band(1)
    assert band[0, 0] == 32767 and band[0, 1] == -32768


def residual_segment(bs: Bitstream) -> bytes:
    """The dense residual payload of band 1 of ``bs``."""
    tag, body = bs.segments[2]
    assert tag == TAG_RESIDUAL
    return segment_from_bytes(body, MAX_PAYLOAD[tag])


# a plane one byte longer is already over the tag's cap of 2 bytes per pixel
@pytest.mark.parametrize("change, error", [(-1, "residual payload"), (1, "over its cap")], ids=["short", "long"])
def test_residual_payload_one_byte_off(change, error):
    bs = two_band_stream()
    payload = residual_segment(bs)
    payload = payload[:-1] if change < 0 else payload + b"\x00"
    segments = bs.segments[:2] + [(TAG_RESIDUAL, segment_to_bytes(payload))]
    with pytest.raises(CorruptStreamError, match=error):
        decode_cube(Bitstream(header=bs.header, segments=segments))


def test_residual_bomb_rejected_before_inflating(tmp_path):
    # a 1.25 GiB inflation as a residual plane: the plane's cap stops it one byte past 128 KiB
    bs = two_band_stream()
    seg = bytes([1]) + zlib_bomb(80)
    stream = tmp_path / "bomb.bip"
    stream.write_bytes(Bitstream(header=bs.header, segments=bs.segments[:2] + [(TAG_RESIDUAL, seg)]).to_bytes())
    call = (
        "from pathlib import Path; from hsicodec.codec import Bitstream, decode_cube; "
        f"decode_cube(Bitstream.from_bytes(Path({str(stream)!r}).read_bytes()))"
    )
    assert outcome_under_rlimit(call) == "CorruptStreamError: zlib payload inflates over its cap of 131072 bytes"


def test_residual_segment_with_compensation_off():
    bs = two_band_stream(None)
    residual = (TAG_RESIDUAL, segment_to_bytes(residual_segment(two_band_stream())))
    with pytest.raises(CorruptStreamError, match="compensation off"):
        decode_cube(Bitstream(header=bs.header, segments=bs.segments + [residual]))


def test_sparse_only_stream_still_decodes():
    # the same offsets as index deltas and values: the sparse layout decodes to the same cube
    bs = two_band_stream()
    offsets = apply_residual(np.zeros(256 * 256, np.int64), residual_segment(bs))
    idx = np.flatnonzero(offsets)
    zigzag = (offsets[idx] << 1) ^ (offsets[idx] >> 63)
    sparse = to_byte_planes(np.diff(idx, prepend=0), "<u4") + to_byte_planes(zigzag, "<u4")
    segments = bs.segments[:2] + [(TAG_OFFSETS, segment_to_bytes(sparse))]
    old = Bitstream.from_bytes(Bitstream(header=bs.header, segments=segments).to_bytes())
    assert [tag for tag, _ in old.segments] == [TAG_FIRST_BAND, TAG_PARAMS, TAG_OFFSETS]
    assert np.array_equal(decode_cube(old).data, decode_cube(bs).data)


def test_huge_parameter_ranges():
    # every parameter range widened to float32 +-3e38: the prediction reaches
    # about 1e39, which the band scaling used to cast to int64 out of range
    bs = two_band_stream()
    segments = list(bs.segments)
    tag, body = segments[1]
    param_bytes, *_, src_min, src_max = RECORD.unpack(segment_from_bytes(body, MAX_PAYLOAD[tag]))
    payload = RECORD.pack(param_bytes, *[-3e38, 3e38] * 4, src_min, src_max)
    segments[1] = (tag, segment_to_bytes(payload))
    try:
        decode_cube(Bitstream(header=bs.header, segments=segments))
    except CorruptStreamError:
        return
    x = _band_blocks(decode_cube(bs).data[0])[0]
    pred = _decode_band(x, payload)
    assert src_min <= pred.min() and pred.max() <= src_max
