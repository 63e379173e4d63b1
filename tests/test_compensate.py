import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsicodec.compensate import (
    CompensationConfig,
    OffsetMap,
    apply_offsets,
    compute_offsets,
    offsets_from_bytes,
    offsets_to_bytes,
)
from hsicodec.entropy import decode_bytes, encode_bytes
from hsicodec.errors import CorruptStreamError, DimensionError


def test_perfect_prediction_gives_empty_map():
    band = np.arange(64).reshape(8, 8)
    off = compute_offsets(band, band, CompensationConfig(lam=0.0, q_step=1))
    assert len(off) == 0


def test_lossless_limit_is_exact_residual():
    rng = np.random.default_rng(0)
    target = rng.integers(0, 256, (8, 8))
    recon = rng.integers(0, 256, (8, 8))
    cfg = CompensationConfig(lam=0.0, q_step=1)
    off = compute_offsets(target, recon, cfg)
    fixed = apply_offsets(recon, off)
    assert np.array_equal(fixed, target)
    flat_t, flat_r = target.ravel(), recon.ravel()
    for idx, val in zip(off.indices, off.offsets):
        assert val == flat_t[idx] - flat_r[idx]


def test_hand_worked_example():
    # target 100, recon 90, lam 0.05: violation (10/100 > 0.05);
    # the offset is the residual itself, so the pixel lands on its target
    target = np.full((1, 1), 100)
    recon = np.full((1, 1), 90)
    off = compute_offsets(target, recon, CompensationConfig(lam=0.05, q_step=1))
    assert len(off) == 1
    assert off.offsets[0] == 10
    fixed = apply_offsets(recon, off)
    assert fixed[0, 0] == 100


def test_within_tolerance_pixels_untouched():
    target = np.full((2, 2), 100)
    recon = np.full((2, 2), 98)  # rel err 0.02
    off = compute_offsets(target, recon, CompensationConfig(lam=0.05, q_step=1))
    assert len(off) == 0


def test_apply_empty_map_is_identity():
    band = np.arange(16).reshape(4, 4)
    assert np.array_equal(apply_offsets(band, OffsetMap()), band)


def test_apply_single_entry():
    band = np.zeros((4, 4), dtype=np.int64)
    out = apply_offsets(band, OffsetMap(indices=[0], offsets=[5]))
    assert out[0, 0] == 5
    assert out.sum() == 5


def test_apply_out_of_range_index():
    band = np.zeros((4, 4), dtype=np.int64)
    with pytest.raises(CorruptStreamError):
        apply_offsets(band, OffsetMap(indices=[16], offsets=[1]))


def test_offset_map_invariants():
    with pytest.raises(DimensionError):
        OffsetMap(indices=[3, 3], offsets=[1, 2])
    with pytest.raises(DimensionError):
        OffsetMap(indices=[1, 2], offsets=[1, 0])


def test_serialization_round_trip():
    off = OffsetMap(indices=[0, 5, 65535], offsets=[-300, 7, 12345])
    back = offsets_from_bytes(offsets_to_bytes(off))
    assert np.array_equal(back.indices, off.indices)
    assert np.array_equal(back.offsets, off.offsets)


def test_serialization_through_entropy_coder():
    rng = np.random.default_rng(1)
    idx = np.sort(rng.choice(65536, 500, replace=False))
    offs = rng.integers(-1000, 1000, 500)
    offs[offs == 0] = 1
    off = OffsetMap(indices=idx, offsets=offs)
    blob = offsets_to_bytes(off)
    back = offsets_from_bytes(decode_bytes(encode_bytes(blob)))
    assert np.array_equal(back.indices, off.indices)
    assert np.array_equal(back.offsets, off.offsets)


def test_corrupt_offset_bytes():
    off = OffsetMap(indices=[1, 2], offsets=[3, 4])
    blob = offsets_to_bytes(off)
    with pytest.raises(CorruptStreamError):
        offsets_from_bytes(blob + b"\x00")
    with pytest.raises(CorruptStreamError):
        offsets_from_bytes(blob[:-1])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.floats(0.0, 0.2),
    st.integers(1, 4),
)
def test_near_lossless_guarantee(seed, lam, q_step):
    rng = np.random.default_rng(seed)
    target = rng.integers(-500, 2000, (8, 8))
    recon = target + rng.integers(-300, 300, (8, 8))
    cfg = CompensationConfig(lam=lam, q_step=q_step)
    fixed = apply_offsets(recon, compute_offsets(target, recon, cfg))
    t, r, c = target.ravel(), recon.ravel(), fixed.ravel()
    flagged = np.abs(t - r) / np.maximum(np.abs(t), 1) > lam
    # a pixel over lam ends within q_step/2 of its target; every other pixel is untouched
    assert np.all(2 * np.abs(t - c)[flagged] <= q_step)
    assert np.array_equal(c[~flagged], r[~flagged])


def test_config_validation():
    with pytest.raises(ValueError):
        CompensationConfig(lam=-0.1)
    with pytest.raises(ValueError):
        CompensationConfig(q_step=0)
