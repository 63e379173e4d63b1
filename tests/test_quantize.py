import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsicodec.errors import CorruptStreamError, DimensionError
from hsicodec.mlp import flatten, unpack
from hsicodec.quantize import dequantize_params, quantize_params
from test_mlp import random_params

# each group's slice of the flat vector and of the params payload
W1, B1, W2, B2 = slice(0, 160), slice(160, 170), slice(170, 330), slice(330, 346)

# a record is the parameter bytes, the float32 group ranges, then the band's <ii min and max
PARAM_BYTES, RANGE_BYTES, BAND_BYTES = 346, 32, 8


def split(record: bytes) -> tuple[bytes, bytes]:
    """The parameter bytes and the range bytes of a record, read at the documented offsets."""
    assert len(record) == PARAM_BYTES + RANGE_BYTES + BAND_BYTES
    return record[:PARAM_BYTES], record[PARAM_BYTES : PARAM_BYTES + RANGE_BYTES]


def record_of(param_bytes: bytes, range_bytes: bytes, src_min=0, src_max=255) -> bytes:
    return param_bytes + range_bytes + struct.pack("<ii", src_min, src_max)


def quantize(params: np.ndarray) -> tuple[bytes, bytes]:
    return split(quantize_params(params, 0, 255))


def dequantize(param_bytes: bytes, range_bytes: bytes) -> np.ndarray:
    return dequantize_params(record_of(param_bytes, range_bytes))[0]


def group_ranges(range_bytes: bytes) -> list[tuple[float, float]]:
    values = struct.unpack("<8f", range_bytes)
    return list(zip(values[::2], values[1::2]))


def test_record_layout():
    # the record's fields at their byte offsets, read with this test's own struct format
    vec = random_params(4)
    record = quantize_params(vec, -7, 4000)
    param_bytes, *ranges, src_min, src_max = struct.unpack(f"<{PARAM_BYTES}s8fii", record)
    assert len(record) == struct.calcsize(f"<{PARAM_BYTES}s8fii") == 386
    assert (src_min, src_max) == (-7, 4000)
    for group, lo, hi in zip((W1, B1, W2, B2), ranges[::2], ranges[1::2]):
        assert (lo, hi) == (np.float32(vec[group].min()), np.float32(vec[group].max()))
        q = np.frombuffer(param_bytes[group], dtype=np.uint8)
        assert q.min() == 0 and q.max() == 255
    back, back_min, back_max = dequantize_params(record)
    assert (back_min, back_max) == (-7, 4000)
    assert quantize_params(back, -7, 4000) == record


@pytest.mark.parametrize("band", [(1, 0), (2**31 - 1, -(2**31))])
def test_band_min_above_max_rejected(band):
    param_bytes, range_bytes = quantize(random_params(5))
    with pytest.raises(CorruptStreamError, match="band min exceeds max"):
        dequantize_params(record_of(param_bytes, range_bytes, *band))


def test_endpoints_map_to_0_and_255():
    vec = random_params(1)
    vec[W1] = np.linspace(-2.0, 5.0, 160)
    param_bytes, range_bytes = quantize(vec)
    q = np.frombuffer(param_bytes, dtype=np.uint8)
    assert q[0] == 0
    assert q[159] == 255
    assert group_ranges(range_bytes)[0] == (np.float32(-2.0), np.float32(5.0))


def test_constant_matrix_degenerate():
    vec = random_params(2)
    vec[W1] = 1.25
    param_bytes, range_bytes = quantize(vec)
    assert param_bytes[W1] == bytes(160)
    assert group_ranges(range_bytes)[0] == (1.25, 1.25)
    back = dequantize(param_bytes, range_bytes)
    assert np.all(back[W1] == 1.25)


def test_nonfinite_rejected():
    # quantizing refuses a vector that is not 346 finite values
    vec = random_params(3)
    for bad in (np.inf, -np.inf, np.nan):
        vec[B2.start] = bad
        with pytest.raises(DimensionError, match="finite"):
            quantize(vec)
    with pytest.raises(DimensionError):
        quantize(vec[:-1])


def test_dequantize_endpoints():
    ranges = struct.pack("<8f", -1.0, 3.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
    param_bytes = bytearray(PARAM_BYTES)
    param_bytes[1] = 255
    back = dequantize(bytes(param_bytes), ranges)
    assert back[0] == -1.0
    assert back[1] == 3.0


def test_dequantize_count_mismatch():
    for param_len, range_len in [(345, 32), (347, 32), (0, 32), (346, 31), (346, 33)]:
        with pytest.raises(CorruptStreamError):
            dequantize_params(bytes(param_len) + bytes(range_len) + bytes(BAND_BYTES))


@pytest.mark.parametrize("group", range(4))
@pytest.mark.parametrize("bad", [(1.0, 0.0), (np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, -np.inf)])
def test_range_min_above_max_rejected(group, bad):
    values = [0.0, 1.0] * 4
    values[2 * group : 2 * group + 2] = bad
    with pytest.raises(CorruptStreamError):
        dequantize(bytes(PARAM_BYTES), struct.pack("<8f", *values))


@settings(max_examples=200)
@given(st.integers(0, 2**31 - 1))
def test_half_step_error_bound(seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    vec = rng.uniform(-scale, scale, PARAM_BYTES)
    param_bytes, range_bytes = quantize(vec)
    back = dequantize(param_bytes, range_bytes)
    for group, (lo, hi) in zip((W1, B1, W2, B2), group_ranges(range_bytes)):
        # half a quantization step plus float32 slack on the extrema
        tol = (hi - lo) / 510.0 + 2.0 * np.spacing(np.float32(max(abs(lo), abs(hi), 1.0)))
        assert np.abs(back[group] - vec[group]).max() <= tol + 1e-15


@given(st.integers(0, 2**31 - 1))
def test_quantize_idempotent_on_its_own_grid(seed):
    rng = np.random.default_rng(seed)
    params = rng.uniform(-4, 4, PARAM_BYTES)
    first = quantize(params)
    assert quantize(dequantize(*first)) == first


def test_params_round_trip_and_payload_sizes():
    params = random_params(20)
    param_bytes, range_bytes = quantize(params)
    assert PARAM_BYTES == len(param_bytes) == 346
    assert RANGE_BYTES == len(range_bytes) == 32
    back = dequantize(param_bytes, range_bytes)
    assert quantize(back) == (param_bytes, range_bytes)


def test_params_quantization_error_bounded():
    params = random_params(21)
    dq = dequantize(*quantize(params))
    for orig, back in zip(unpack(params), unpack(dq)):
        span = float(orig.max() - orig.min())
        assert np.abs(orig - back).max() <= span / 510.0 + 1e-6


def test_payload_byte_order_is_w1_b1_w2_b2():
    # each group holds one distinct constant, so its bytes are zero and its
    # range names the group: the ranges come in w1, b1, w2, b2 order
    params = flatten(np.full((10, 16), 1.0), np.full(10, 2.0), np.full((16, 10), 3.0), np.full(16, 4.0))
    assert group_ranges(quantize(params)[1]) == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]
    # one extreme per group: its byte lands where that group's slice starts
    vec = np.zeros(PARAM_BYTES)
    for k, group in enumerate((W1, B1, W2, B2)):
        vec[group] = -1.0
        vec[group.start] = k + 1.0
    q = np.frombuffer(quantize(vec)[0], dtype=np.uint8)
    assert [int(i) for i in np.flatnonzero(q)] == [0, 160, 170, 330]


GOLDEN = {
    None: "0bc63a9ee023ce255de72340e824da1a3cf6a2a9c7093f53be572041a96414d3",
    0.37: "05a3781f7cb65e01a75c8f8e85d29f7a82351d649c6a372be2f2c1409375a600",
}


@pytest.mark.parametrize("b1_value", GOLDEN)
def test_payload_golden_digest(b1_value):
    # the wire bytes of a fixed parameter set; the arithmetic is elementwise
    # numpy and struct, so the digest depends on neither BLAS nor zlib
    params = random_params(20)
    if b1_value is not None:
        params[B1] = b1_value
    param_bytes, range_bytes = quantize(params)
    assert hashlib.sha256(param_bytes + range_bytes).hexdigest() == GOLDEN[b1_value]


def reference_param_bytes(vec) -> bytes:
    """Each group scaled onto [0, 255] by its float32 extrema, rounded halves away from zero, clipped."""
    q = np.zeros(PARAM_BYTES, dtype=np.uint8)
    for group in (W1, B1, W2, B2):
        lo, hi = float(np.float32(vec[group].min())), float(np.float32(vec[group].max()))
        if hi > lo:
            scaled = 255.0 * (vec[group] - lo) / (hi - lo)
            q[group] = np.clip(np.sign(scaled) * np.floor(np.abs(scaled) + 0.5), 0, 255)
    return q.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([0.0, 0.1, 0.49]))
def test_quantize_matches_the_sign_floor_reference(seed, outside):
    # each group spans 255 steps of a power of two between float32-exact extremes, so its
    # odd half-steps scale to exact halves; the extremes then move outward by up to a quarter
    # of a float32 spacing, which float32 rounds back, so they scale to just below 0 and above 255
    rng = np.random.default_rng(seed)
    vec = np.empty(PARAM_BYTES)
    for group in (W1, B1, W2, B2):
        step = 2.0 ** rng.integers(-30, 10)
        lo = rng.integers(-1000, 1000) * step
        n = group.stop - group.start
        halves = rng.integers(0, 510, n)
        halves[: n // 2] |= 1  # odd: exactly halfway between two bytes
        values = lo + halves * (step / 2)
        values[0], values[1] = lo, lo + 255 * step
        values[0] -= outside * abs(np.spacing(np.float32(values[0]))) / 2
        values[1] += outside * abs(np.spacing(np.float32(values[1]))) / 2
        vec[group] = rng.permutation(values)
    assert quantize(vec)[0] == reference_param_bytes(vec)
