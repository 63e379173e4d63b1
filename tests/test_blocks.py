import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsicodec.cube import BLOCK, block_view
from hsicodec.errors import DimensionError


def block_columns(band):
    """The 16 x M block columns of a band, C-contiguous."""
    return block_view(band).reshape(BLOCK * BLOCK, -1)


def written_band(blocks, shape):
    """The band of ``shape`` that 16 x M block columns fill through ``block_view``, as the decoder
    writes its prediction."""
    band = np.empty(shape, blocks.dtype)
    view = block_view(band)
    view[...] = blocks.reshape(view.shape)
    return band


def test_round_trip_identity():
    rng = np.random.default_rng(0)
    band = rng.uniform(0, 1, (256, 256))
    assert np.array_equal(written_band(block_columns(band), band.shape), band)


def test_toy_8x8_index_oracle():
    # 8x8 band: 2x2 grid of 4x4 blocks. pixel (0,5): block col 1, in-block (0,1)
    band = np.zeros((8, 8))
    band[0, 5] = 1.0
    blocks = block_columns(band)
    assert blocks.shape == (16, 4)
    assert blocks[1, 1] == 1.0
    assert blocks.sum() == 1.0


def test_constant_band_gives_identical_columns():
    blocks = block_columns(np.full((256, 256), 3.5))
    assert np.all(blocks == blocks[:, :1])


def test_column_zero_maps_to_top_left_block():
    data = np.zeros((16, 4096))
    data[:, 0] = np.arange(1, 17)
    band = written_band(data, (256, 256))
    assert np.array_equal(band[:4, :4], np.arange(1, 17).reshape(4, 4))
    assert band[4:, :].sum() == 0
    assert band[:, 4:].sum() == 0


def test_zero_matrix_round_trip():
    band = written_band(np.zeros((16, 4096)), (256, 256))
    assert band.shape == (256, 256)
    assert not band.any()


def test_dimension_errors():
    with pytest.raises(DimensionError):
        block_columns(np.zeros((10, 8)))
    with pytest.raises(DimensionError):
        block_view(np.zeros((8, 10)))


@settings(max_examples=30)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_bijection_property(block_rows, block_cols, seed):
    rng = np.random.default_rng(seed)
    band = rng.uniform(-5, 5, (4 * block_rows, 4 * block_cols))
    blocks = block_columns(band)
    assert blocks.shape == (16, block_rows * block_cols)
    assert np.array_equal(written_band(blocks, band.shape), band)
    assert blocks.sum() == pytest.approx(band.sum(), rel=1e-12)
