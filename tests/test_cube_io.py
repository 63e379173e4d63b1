import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsicodec.cube import (
    HyperCube,
    denormalize_band,
    load_cube,
    normalize_band,
    pad_band,
    padded_shape,
    read_header,
    store_cube,
)
from hsicodec.errors import CorruptInputError, FormatError, WriteError


def test_load_smallest_cube(tmp_path):
    raw = tmp_path / "one.raw"
    raw.write_bytes(np.array([7], dtype="<i2").tobytes())
    (tmp_path / "one.hdr").write_text("rows=1\ncols=1\nbands=1\ndtype=i16le\norder=bsq\n")
    cube = load_cube(raw)
    assert cube.data.shape == (1, 1, 1)
    assert cube.data[0, 0, 0] == 7


def test_store_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.integers(-3000, 3000, (4, 8, 8), dtype=np.int16)
    cube = HyperCube(data=data)
    store_cube(cube, tmp_path / "rt.raw")
    back = load_cube(tmp_path / "rt.raw")
    assert np.array_equal(back.data, data)


@pytest.mark.parametrize("sample", [40000, 70000, 1.7])
def test_cube_rejects_sample_int16_cannot_hold(sample):
    # a bare cast would wrap 40000 to -25536 and 70000 to 4464, and truncate 1.7 to 1
    data = np.full((1, 2, 2), 7, dtype=np.asarray(sample).dtype)
    data[0, 1, 1] = sample
    with pytest.raises(ValueError, match="int16"):
        HyperCube(data=data)


def test_load_size_mismatch(tmp_path):
    raw = tmp_path / "bad.raw"
    raw.write_bytes(bytes(10))
    (tmp_path / "bad.hdr").write_text("rows=2\ncols=2\nbands=2\n")
    with pytest.raises(CorruptInputError):
        load_cube(raw)


def test_store_zero_cube_byte_layout(tmp_path):
    cube = HyperCube(data=np.zeros((1, 2, 2), dtype=np.int16))
    store_cube(cube, tmp_path / "z.raw")
    assert (tmp_path / "z.raw").read_bytes() == bytes(8)


def test_store_unwritable_path(tmp_path):
    cube = HyperCube(data=np.zeros((1, 2, 2), dtype=np.int16))
    with pytest.raises(WriteError):
        store_cube(cube, tmp_path / "missing_dir" / "x.raw")


def test_store_refuses_hdr_path(tmp_path):
    # the sidecar of x.hdr is x.hdr itself: its text would overwrite the samples
    cube = HyperCube(data=np.ones((1, 2, 2), dtype=np.int16))
    with pytest.raises(WriteError, match="sidecar"):
        store_cube(cube, tmp_path / "x.hdr")
    assert not (tmp_path / "x.hdr").exists()


def test_bad_header_rejected(tmp_path):
    hdr = tmp_path / "bad.hdr"
    hdr.write_text("rows=abc\ncols=2\nbands=2\n")
    with pytest.raises(FormatError):
        read_header(hdr)
    hdr.write_text("rows=2\ncols=2\nbands=2\ndtype=f32\n")
    with pytest.raises(FormatError):
        read_header(hdr)


def test_aligned_band_is_not_padded():
    band = np.arange(8 * 12).reshape(8, 12)
    assert pad_band(band) is band
    assert padded_shape(8, 12) == (8, 12)


@pytest.mark.parametrize("rows, cols", [(1, 1), (5, 7), (4, 9), (250, 301)])
def test_pad_replicates_the_right_and_bottom_edges(rows, cols):
    band = np.random.default_rng(rows * cols).integers(-500, 500, (rows, cols))
    padded = pad_band(band)
    assert padded.shape == padded_shape(rows, cols) == (-(-rows // 4) * 4, -(-cols // 4) * 4)
    assert np.array_equal(padded[:rows, :cols], band)
    # every pad pixel repeats the nearest edge pixel of the band
    i = np.minimum(np.arange(padded.shape[0]), rows - 1)
    j = np.minimum(np.arange(padded.shape[1]), cols - 1)
    assert np.array_equal(padded, band[np.ix_(i, j)])


def test_normalize_endpoints():
    band = np.zeros((4, 4), dtype=np.int64)
    band[0, 0] = 255
    values, src_min, src_max = normalize_band(band)
    assert values[0, 0] == 1.0
    assert values[1, 1] == 0.0
    assert (src_min, src_max) == (0, 255)


def test_normalize_constant_band():
    values, src_min, src_max = normalize_band(np.full((4, 4), 42))
    assert np.all(values == 0.0)
    assert src_min == src_max == 42


def test_denormalize_endpoints():
    lo = denormalize_band(np.zeros((2, 2)), 10, 99, np.empty((2, 2), np.int64))
    hi = denormalize_band(np.ones((2, 2)), 10, 200, np.empty((2, 2), np.int64))
    assert np.all(lo == 10)
    assert np.all(hi == 200)


def test_denormalize_rounds_half_away_from_zero():
    # 0.5 * 255 = 127.5 -> 128
    assert denormalize_band(np.full((1, 1), 0.5), 0, 255, np.empty((1, 1), np.int64))[0, 0] == 128


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1), st.sampled_from([np.int16, np.int64, np.float64]))
def test_normalize_matches_out_of_place_formula(seed, dtype):
    rng = np.random.default_rng(seed)
    band = rng.integers(-32768, 32768, (8, 8)).astype(dtype)
    kept = band.copy()
    values, lo, hi = normalize_band(band)
    expected = (band.astype(np.float64) - lo) / float(hi - lo)
    assert np.array_equal(values.view(np.int64), expected.view(np.int64))
    assert np.array_equal(band, kept)  # scaled in its own copy, even of a float64 band


@given(st.integers(0, 255), st.integers(0, 255))
def test_normalize_round_trip_8bit(lo, hi):
    rng = np.random.default_rng(abs(hash((lo, hi))) % 2**32)
    band = rng.integers(min(lo, hi), max(lo, hi) + 1, (8, 8))
    assert np.array_equal(denormalize_band(*normalize_band(band), np.empty(band.shape, np.int64)), band)


@settings(max_examples=50)
@given(st.integers(-32768, 32767), st.integers(0, 4000))
def test_normalize_output_in_unit_interval(base, spread):
    rng = np.random.default_rng(abs(hash((base, spread))) % 2**32)
    hi = min(base + spread, 32767)
    band = rng.integers(base, hi + 1, (6, 6))
    values, src_min, src_max = normalize_band(band)
    assert values.min() >= 0.0
    assert values.max() <= 1.0
    assert np.array_equal(denormalize_band(values, src_min, src_max, np.empty(band.shape, np.int64)), band)
