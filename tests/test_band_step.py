"""The decoder's band step against its out-of-place reference, bit for bit.

``_decode_band`` and ``_finish_band`` clip, scale, round, cast, permute and
correct a band in buffers they own. The reference runs the same seams out of
place, with the earlier rounding formula (sign(v) * floor(|v| + 0.5) of the
scaled values), so a change to the clip or to the rounding of the in-place step
shows as a differing band.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsicodec import codec
from hsicodec.codec import TAG_OFFSETS, TAG_RESIDUAL, _band_blocks, _decode_band, _finish_band
from hsicodec.compensate import apply_offsets, apply_residual
from hsicodec.cube import BAND_SIZE, INT16, block_view, denormalize_band
from hsicodec.mlp import flatten, forward
from hsicodec.quantize import dequantize_params, quantize_params
from hsicodec.wire import to_byte_planes
from test_codec import block_order_bands

INT32 = np.iinfo(np.int32)
APPLY = {TAG_OFFSETS: apply_offsets, TAG_RESIDUAL: apply_residual}


def sign_floor(x):
    """Round to the nearest integer, halves away from zero."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def blocks_to_band(blocks, shape):
    """The band whose pixel (i, j) is row 4 (i mod 4) + (j mod 4) of column
    (cols / 4)(i div 4) + (j div 4) of ``blocks``, gathered into a new array."""
    i, j = np.indices(shape)
    return blocks[4 * (i % 4) + j % 4, shape[1] // 4 * (i // 4) + j // 4]


def reference_denormalize(values, src_min, src_max):
    scaled = np.clip(values, 0.0, 1.0) * float(src_max - src_min)
    return sign_floor(scaled).astype(np.int64) + src_min


def reference_step(pred, record, offsets, shape):
    """clip(apply(blocks_to_band(denormalize_band(pred)))), each step in a new array but apply,
    which adds into the band blocks_to_band built."""
    _, src_min, src_max = dequantize_params(record)
    band = blocks_to_band(reference_denormalize(pred, src_min, src_max), shape)
    if offsets is not None:
        tag, payload = offsets
        band = APPLY[tag](band, payload)
    return np.clip(band, INT16.min, INT16.max).astype(np.int16)


def run_step(x, record, offsets):
    """The codec's band step on one band: the int16 band, checking that x is left alone."""
    kept = x.copy()
    pred = _decode_band(x, record)
    assert pred.dtype == np.int64
    got = np.empty((BAND_SIZE, BAND_SIZE), np.int16)
    _finish_band(pred, offsets, out=got)
    assert x.tobytes() == kept.tobytes()
    return got


def record(rng, src_min, src_max, w2_scale=1.0, b2=None):
    """A params record of random first-layer weights, output weights in +-w2_scale, and b2."""
    return quantize_params(
        flatten(
            rng.uniform(-2, 2, (10, 16)),
            rng.uniform(-1, 1, 10),
            rng.uniform(-w2_scale, w2_scale, (16, 10)),
            rng.uniform(-0.3, 1.3, 16) if b2 is None else np.full(16, b2),
        ),
        src_min,
        src_max,
    )


def records():
    rng = np.random.default_rng(5)
    yield "plain", record(rng, -300, 4000)
    yield "int32 extremes", record(rng, INT32.min, INT32.max)
    yield "int32 extremes, point range", record(rng, INT32.max, INT32.max)
    # output weights near the float32 limit predict values of order 1e39
    yield "predictions of 1e39", record(rng, -5, 70000, w2_scale=3e38)
    yield "predictions of 1e39, int32 range", record(rng, INT32.min, INT32.max, w2_scale=3e38)
    # zero output weights predict b2 exactly: halves that round away from zero
    # where np.rint rounds to even
    yield "predictions of 0.5, range 1", record(rng, 0, 1, w2_scale=0.0, b2=0.5)
    yield "predictions of 0.5, range 5", record(rng, -9, -4, w2_scale=0.0, b2=0.5)
    yield "constant band", record(rng, 7, 7)


def offsets_segments(rng, n_pixels):
    """None, a sparse offsets payload and a residual plane, each with offsets past int16."""
    idx = np.sort(rng.choice(n_pixels, n_pixels // 5, replace=False))
    offs = rng.integers(-(2**31), 2**31, idx.size)
    offs[offs == 0] = 1
    zigzag = (offs << 1) ^ (offs >> 63)
    sparse = to_byte_planes(np.diff(idx, prepend=0), "<u4") + to_byte_planes(zigzag, "<u4")
    residual = rng.integers(0, 2**16, n_pixels).astype("<u2").tobytes()
    return [None, (TAG_OFFSETS, sparse), (TAG_RESIDUAL, residual)]


def square_inputs():
    bands = [band for band in block_order_bands() if band.shape == (BAND_SIZE, BAND_SIZE)]
    return [_band_blocks(band)[0] for band in bands]


@pytest.mark.parametrize("name, rec", list(records()), ids=[name for name, _ in records()])
def test_band_step_matches_out_of_place_reference(name, rec):
    rng = np.random.default_rng(9)
    for x in square_inputs():
        pred = forward(dequantize_params(rec)[0], x)
        for offsets in offsets_segments(rng, BAND_SIZE * BAND_SIZE):
            expected = reference_step(pred, rec, offsets, (BAND_SIZE, BAND_SIZE))
            assert run_step(x, rec, offsets).tobytes() == expected.tobytes()


def test_records_predict_the_named_cases():
    by_name = dict(records())
    x = square_inputs()[0]

    def prediction(name):
        return forward(dequantize_params(by_name[name])[0], x)

    assert np.abs(prediction("predictions of 1e39")).max() > 1e39
    assert np.all(prediction("predictions of 0.5, range 1") == 0.5)
    assert prediction("plain").min() < 0 and prediction("plain").max() > 1


@pytest.mark.parametrize("src_min, src_max", [(0, 1), (-9, -4), (INT32.min, INT32.max), (7, 7)])
def test_band_step_on_chosen_predictions(monkeypatch, src_min, src_max):
    # the forward pass cannot be steered to every value, so the step is given its prediction
    rng = np.random.default_rng(6)
    special = [-0.0, 0.0, 0.5, 1.0, 1e39, -1e39, 1e-300, 0.5 - 2.0**-54, 1.0 - 2.0**-53, 1.5, -0.5]
    pred = rng.choice(special + list(rng.uniform(-0.2, 1.2, 20)), (16, BAND_SIZE * BAND_SIZE // 16))
    monkeypatch.setattr(codec, "forward", lambda params, x: pred.copy())
    rec = record(rng, src_min, src_max)
    x = square_inputs()[0]
    for offsets in offsets_segments(rng, BAND_SIZE * BAND_SIZE):
        expected = reference_step(pred, rec, offsets, (BAND_SIZE, BAND_SIZE))
        assert run_step(x, rec, offsets).tobytes() == expected.tobytes()


def test_non_square_band_step_matches_reference():
    # the seams of the band step, as _decode_band and _finish_band compose them, on an 8 x 12 band
    (band,) = [band for band in block_order_bands() if band.shape == (8, 12)]
    x = _band_blocks(band)[0]
    rng = np.random.default_rng(4)
    for _, rec in records():
        for offsets in offsets_segments(rng, band.size):
            params, src_min, src_max = dequantize_params(rec)
            prediction = forward(params, x)
            expected = reference_step(prediction, rec, offsets, band.shape)
            pred = np.empty(band.shape, np.int64)
            denormalize_band(prediction, src_min, src_max, out=block_view(pred))
            if offsets is not None:
                tag, payload = offsets
                APPLY[tag](pred, payload)
            got = np.empty(band.shape, np.int16)
            np.clip(pred, INT16.min, INT16.max, out=got)
            assert got.tobytes() == expected.tobytes()


INT32_VALUES = st.integers(INT32.min, INT32.max)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.floats(-1e300, 1e300), st.floats(-2.0, 3.0), st.sampled_from([np.inf, -np.inf])),
             min_size=1, max_size=32),
    INT32_VALUES,
    INT32_VALUES,
)
def test_denormalize_stays_in_range(values, a, b):
    src_min, src_max = min(a, b), max(a, b)
    x = np.array(values)
    ints = denormalize_band(x.copy(), src_min, src_max, np.empty(x.shape, np.int64))
    assert ints.dtype == np.int64
    assert ints.min() >= src_min and ints.max() <= src_max
    assert np.array_equal(ints, reference_denormalize(x, src_min, src_max))


@pytest.mark.parametrize("values", [[-1e39, 0.0, 0.5, 1.0, 1e39], [0.9999999999999999, 1e-300, -0.0]])
def test_denormalize_int32_extreme_range(values):
    lo, hi = INT32.min, INT32.max
    ints = denormalize_band(np.array(values), lo, hi, np.empty(len(values), np.int64))
    assert ints.min() >= lo and ints.max() <= hi
    assert np.array_equal(ints, reference_denormalize(np.array(values), lo, hi))
    assert denormalize_band(np.array([0.0, 1.0]), lo, hi, np.empty(2, np.int64)).tolist() == [lo, hi]
