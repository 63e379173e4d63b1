import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsicodec.entropy import MODES, WBITS, segment_from_bytes, segment_to_bytes
from hsicodec.errors import CorruptStreamError


def round_trip(data: bytes) -> bytes:
    return segment_from_bytes(segment_to_bytes(data), len(data))


def test_empty_input():
    assert segment_to_bytes(b"") == b"\x00"
    assert round_trip(b"") == b""


def test_random_bytes_fall_back_to_raw():
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
    assert MODES[segment_to_bytes(data)[0]] == "raw"
    assert round_trip(data) == data


def test_compressible_data_uses_zlib():
    data = b"aaaaabbbbbccc" * 200
    wire = segment_to_bytes(data)
    assert MODES[wire[0]] == "zlib"
    assert len(wire) < len(data)
    assert round_trip(data) == data


def test_segment_deflated_with_a_32_kib_window_decodes():
    # version-4 streams written at zlib level 6 and its default 32 KiB window stay readable:
    # this payload repeats at a distance of 20 000 bytes, past an 8 KiB window
    block = np.random.default_rng(6).integers(0, 16, 20_000, dtype=np.uint8).tobytes()
    data = block * 3
    old = b"\x01" + zlib.compress(data, 6)
    assert old[1] == 0x78  # CMF: deflate, a 2**15-byte window
    assert len(old) < len(block)  # the repeats were coded as matches 20 000 bytes back
    assert segment_from_bytes(old, len(data)) == data


def test_segment_header_declares_the_chosen_window():
    # the zlib header's CMF byte is CINFO (log2 of the window, less 8) over CM 8 (deflate)
    wire = segment_to_bytes(b"abcabcabd" * 300)
    assert MODES[wire[0]] == "zlib"
    assert WBITS == 13 and wire[1] == 0x58 == (WBITS - 8) << 4 | zlib.DEFLATED


def test_determinism():
    data = bytes(np.random.default_rng(1).integers(0, 8, 5000, dtype=np.uint8))
    assert segment_to_bytes(data) == segment_to_bytes(data)


def test_truncated_payload_detected():
    data = bytes(np.random.default_rng(2).integers(0, 16, 1000, dtype=np.uint8))
    wire = segment_to_bytes(data)
    assert MODES[wire[0]] == "zlib"
    with pytest.raises(CorruptStreamError):
        segment_from_bytes(wire[:-1], len(data))


def test_corrupt_zlib_payload_detected():
    data = b"aaabbbccc" * 100
    wire = segment_to_bytes(data)
    assert MODES[wire[0]] == "zlib"
    flipped = bytearray(wire)
    flipped[len(flipped) // 2] ^= 0xFF
    # (segment, cap): a damaged body, a cap one byte under the payload or at 0, data after the end
    bad_segments = [
        (bytes(flipped), 2 * len(data)),
        (wire, len(data) - 1),
        (wire, 0),
        (wire + b"\0", 2 * len(data)),
    ]
    for bad, max_len in bad_segments:
        with pytest.raises(CorruptStreamError):
            segment_from_bytes(bad, max_len)


def test_declared_length_above_cap_rejected():
    # the container's framing declares each segment's length; a segment whose payload is over
    # its cap is rejected, raw ("abc") or zlib, and one at the cap comes back
    for data, mode in ((b"abc", "raw"), (b"aaabbbccc" * 100, "zlib")):
        wire = segment_to_bytes(data)
        assert MODES[wire[0]] == mode
        assert segment_from_bytes(wire, len(data)) == data
        with pytest.raises(CorruptStreamError, match=f"over its cap of {len(data) - 1}"):
            segment_from_bytes(wire, len(data) - 1)


def test_unknown_mode_byte_rejected():
    for bad in (b"", b"\x02" + b"abc", b"\xff"):
        with pytest.raises(CorruptStreamError, match="empty segment|unknown segment mode"):
            segment_from_bytes(bad, 1 << 20)


def test_wire_round_trip_all_modes():
    cases = [b"", bytes([9]) * 50, b"abcabcabd" * 300,
             bytes(np.random.default_rng(3).integers(0, 256, 2000, dtype=np.uint8))]
    for data in cases:
        wire = segment_to_bytes(data)
        back = segment_from_bytes(wire, len(data))
        assert back == data
        assert segment_to_bytes(back) == wire


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
        wire = segment_to_bytes(data)
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
