import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsicodec.entropy import (
    CodedSegment,
    decode_bytes,
    encode_bytes,
    segment_from_bytes,
    segment_to_bytes,
)
from hsicodec.errors import CorruptStreamError


def round_trip(data: bytes) -> bytes:
    seg = segment_from_bytes(segment_to_bytes(encode_bytes(data)))
    return decode_bytes(seg)


def test_empty_input():
    seg = encode_bytes(b"")
    assert seg.original_len == 0
    assert seg.payload == b""
    assert decode_bytes(seg) == b""


def test_random_bytes_fall_back_to_raw():
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
    seg = encode_bytes(data)
    assert seg.mode == "raw"
    assert decode_bytes(seg) == data


def test_compressible_data_uses_zlib():
    data = b"aaaaabbbbbccc" * 200
    seg = encode_bytes(data)
    assert seg.mode == "zlib"
    assert len(segment_to_bytes(seg)) < len(data)
    assert round_trip(data) == data


def test_determinism():
    data = bytes(np.random.default_rng(1).integers(0, 8, 5000, dtype=np.uint8))
    assert segment_to_bytes(encode_bytes(data)) == segment_to_bytes(encode_bytes(data))


def test_truncated_payload_detected():
    data = bytes(np.random.default_rng(2).integers(0, 16, 1000, dtype=np.uint8))
    seg = encode_bytes(data)
    assert seg.mode == "zlib"
    bad = CodedSegment(
        mode=seg.mode,
        original_len=seg.original_len,
        payload=seg.payload[:-1],
    )
    with pytest.raises(CorruptStreamError):
        decode_bytes(bad)


def test_corrupt_zlib_payload_detected():
    seg = encode_bytes(b"aaabbbccc" * 100)
    assert seg.mode == "zlib"
    flipped = bytearray(seg.payload)
    flipped[len(flipped) // 2] ^= 0xFF
    bad_segments = [
        CodedSegment(mode="zlib", original_len=seg.original_len, payload=bytes(flipped)),
        CodedSegment(mode="zlib", original_len=seg.original_len - 1, payload=seg.payload),
        CodedSegment(mode="zlib", original_len=seg.original_len + 1, payload=seg.payload),
        CodedSegment(mode="zlib", original_len=seg.original_len, payload=seg.payload + b"\0"),
        CodedSegment(mode="zlib", original_len=0, payload=seg.payload),
    ]
    for bad in bad_segments:
        with pytest.raises(CorruptStreamError):
            decode_bytes(bad)


def test_wire_round_trip_all_modes():
    cases = [b"", bytes([9]) * 50, b"abcabcabd" * 300,
             bytes(np.random.default_rng(3).integers(0, 256, 2000, dtype=np.uint8))]
    for data in cases:
        seg = encode_bytes(data)
        back = segment_from_bytes(segment_to_bytes(seg))
        assert back == seg
        assert decode_bytes(back) == data


def test_length_limit_on_skewed_frequencies():
    # Fibonacci frequencies: the worst case for a length-limited prefix code
    freqs = [1, 1]
    while len(freqs) < 24:
        freqs.append(freqs[-1] + freqs[-2])
    data = b"".join(bytes([s]) * f for s, f in enumerate(freqs))
    assert round_trip(data) == data


def test_coded_size_bound():
    rng = np.random.default_rng(5)
    for trial in range(50):
        n = int(rng.integers(0, 5000))
        data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
        wire = segment_to_bytes(encode_bytes(data))
        assert len(wire) <= n + 64


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=3000))
def test_lossless_round_trip_property(data):
    assert round_trip(data) == data


def test_adversarial_round_trips():
    cases = [
        b"",
        b"\x00",
        b"\xff" * 1,
        b"\x00" * 65536,
        bytes([0, 255]) * 10000,
        bytes(range(256)) * 4,
        bytes([0] * 9999 + [1]),
    ]
    for data in cases:
        assert round_trip(data) == data
