import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsicodec.compensate import (
    CompensationConfig,
    _zigzag_offsets,
    apply_offsets,
    apply_residual,
    compensation_payload,
)
from hsicodec.entropy import segment_from_bytes, segment_to_bytes
from hsicodec.errors import CorruptStreamError
from hsicodec.wire import from_byte_planes, to_byte_planes


def payload(deltas, zigzags) -> bytes:
    """An offsets payload built entry by entry, valid or not."""
    return to_byte_planes(np.asarray(deltas), "<u4") + to_byte_planes(np.asarray(zigzags), "<u4")


def corrected(target, recon, cfg):
    """recon corrected by the payload ``compensation_payload`` builds, parsed as its layout."""
    dense, blob = compensation_payload(target, recon, cfg)
    return (apply_residual if dense else apply_offsets)(np.array(recon, np.int64), blob)


def test_perfect_prediction_gives_empty_map():
    band = np.arange(64).reshape(8, 8)
    assert compensation_payload(band, band, CompensationConfig(lam=0.0, q_step=1)) == (False, b"")


def test_lossless_limit_is_exact_residual():
    rng = np.random.default_rng(0)
    target = rng.integers(0, 256, (8, 8))
    cfg = CompensationConfig(lam=0.0, q_step=1)
    # every pixel mispredicted takes the residual plane, about one in seven the sparse payload
    for wrong in (np.ones((8, 8), bool), rng.random((8, 8)) < 0.15):
        recon = np.where(wrong, rng.integers(0, 256, (8, 8)), target)
        dense, blob = compensation_payload(target, recon, cfg)
        assert dense == wrong.all()
        assert np.array_equal(corrected(target, recon, cfg), target)
        # 2 bytes per pixel, or one 8-byte entry per pixel whose residual is nonzero
        assert len(blob) == (2 * target.size if dense else 8 * np.count_nonzero(target - recon))


def test_hand_worked_example():
    # target 100, recon 90, lam 0.05: violation (10/100 > 0.05);
    # the offset is the residual itself, so the pixel lands on its target;
    # one pixel in four carries an offset, so the payload is sparse
    target = np.full((2, 2), 100)
    recon = np.array([[90, 100], [100, 100]])
    dense, blob = compensation_payload(target, recon, CompensationConfig(lam=0.05, q_step=1))
    assert (dense, blob) == (False, payload([0], [20]))  # zigzag(10) = 20
    fixed = apply_offsets(recon, blob)
    assert fixed[0, 0] == 100


def test_within_tolerance_pixels_untouched():
    target = np.full((2, 2), 100)
    recon = np.full((2, 2), 98)  # rel err 0.02
    assert compensation_payload(target, recon, CompensationConfig(lam=0.05, q_step=1)) == (False, b"")


# fixed integer bands (no RNG), so the payload digests hold on any machine
_K = np.arange(64 * 64, dtype=np.int64).reshape(64, 64)
GOLDEN_TARGET = (_K * 7919) % 3001 - 500
GOLDEN_RECON = GOLDEN_TARGET + (_K * 104729) % 401 - 200


@pytest.mark.parametrize(
    "lam, q_step, entries, digest",
    [
        (0.0, 1, 4086, "fef10e838c9ad7150a38e9e55e4fb989db9d3a2ac95fc3889ecff4cb24eb5239"),
        (0.05, 1, 2986, "9d65ba2bab0e8bf24fb2e12c1b71206f3e697cbe067e777c0f4fa245c4aac19e"),
        (0.01, 3, 3871, "11c93c1cb9d5e4f035d390150a2ed40cd5d38f7f6bea3e0bb05ceb563bb63fa4"),
    ],
)
def test_offsets_payload_golden_digest(lam, q_step, entries, digest):
    # at these shares the codec writes the residual plane: it must correct the band as the
    # pinned sparse payload does
    cfg = CompensationConfig(lam=lam, q_step=q_step)
    blob = reference_offsets_to_bytes(GOLDEN_TARGET, GOLDEN_RECON, cfg)
    assert len(blob) == 8 * entries
    assert hashlib.sha256(blob).hexdigest() == digest
    assert np.array_equal(
        corrected(GOLDEN_TARGET, GOLDEN_RECON, cfg), apply_offsets(GOLDEN_RECON.copy(), blob)
    )


def reference_offsets_to_bytes(target, recon, cfg):
    """The sparse payload by the first, all-pixel formula: the oracle for the sparse layout."""
    t = np.asarray(target, dtype=np.int64).ravel()
    r = np.asarray(recon, dtype=np.int64).ravel()
    violating = np.abs(t - r) / np.maximum(np.abs(t), 1) > cfg.lam
    scaled = (t - r) / cfg.q_step
    # the nearest integer, halves away from zero, in floating point
    offs = cfg.q_step * (np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)).astype(np.int64)
    idx = np.nonzero(violating & (offs != 0))[0]
    offs = offs[idx]
    deltas = np.diff(idx, prepend=0)
    zigzag = (offs << 1) ^ (offs >> 63)
    if np.any((deltas >> 32) | (zigzag >> 32)):
        raise ValueError("offset entry does not fit 32 bits")
    return to_byte_planes(deltas, "<u4") + to_byte_planes(zigzag, "<u4")


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1e-3, 0.05, 2.0]),
    st.sampled_from([1, 2, 7, 32767]),
    st.sampled_from([40, 2**20, 2**40]),  # prediction spread; 2**40 overflows 32 bits
    st.booleans(),
)
@example(seed=0, lam=0.0, q_step=1, spread=2**40, ties=False)
# exact ties: 16 pixels whose difference is -3q/2, -q/2, q/2 or 3q/2
@example(seed=1, lam=0.0, q_step=2, spread=40, ties=True)
@example(seed=2, lam=0.0, q_step=32766, spread=40, ties=True)
@example(seed=3, lam=0.05, q_step=32766, spread=2**20, ties=True)
def test_offsets_payload_matches_reference(seed, lam, q_step, spread, ties):
    rng = np.random.default_rng(seed)
    target = rng.integers(-32768, 32768, 96).astype(np.int16)
    target[rng.integers(0, 96, 8)] = rng.choice([-32768, 32767], 8)
    recon = target + rng.integers(-spread, spread + 1, 96)
    recon[rng.integers(0, 96, 8)] = rng.choice([-32768, 32767], 8)
    exact = rng.random(96) < 0.3
    recon[exact] = target[exact]
    if ties:
        tied = rng.choice(96, 16, replace=False)
        recon[tied] = target[tied] - np.tile([-3, -1, 1, 3], 4) * (q_step // 2)
    cfg = CompensationConfig(lam=lam, q_step=q_step)
    want = outcome(reference_offsets_to_bytes, target, recon, cfg)
    got = outcome(compensation_payload, target, recon, cfg)
    if got[0] is True:
        # the residual plane carries the reference's corrections
        assert np.array_equal(apply_residual(recon.copy(), got[1]), reference_apply_offsets(recon, want))
    else:
        assert got == ((False, want) if isinstance(want, bytes) else want)


def out_of_place_zigzag_offsets(target, recon, cfg):
    """_zigzag_offsets with every step in a fresh array, as the in-place version must equal."""
    diff = np.subtract(target, recon, dtype=np.int64).ravel()
    q = cfg.q_step
    offs = diff if q == 1 else np.sign(diff) * ((np.abs(diff) + q // 2) // q * q)
    if cfg.lam > 0:
        t = np.abs(np.asarray(target, dtype=np.int64).ravel())
        offs = np.where(np.abs(diff) / np.maximum(t, 1) > cfg.lam, offs, 0)
    return (offs << 1) ^ (offs >> 63)


@pytest.mark.parametrize("lam", [0.0, 0.01, 0.05, 0.2])
@pytest.mark.parametrize("q_step", [1, 3, 17])
def test_zigzag_offsets_in_place_match_out_of_place(lam, q_step):
    rng = np.random.default_rng(int(1000 * lam) + q_step)
    cfg = CompensationConfig(lam=lam, q_step=q_step)
    for _ in range(4):
        # bands around 0, where max(|t|, 1) clamps, and up to the int16 extremes
        target = rng.integers(-40, 4000, (256, 256)).astype(np.int16)
        picked = rng.random(target.shape) < 0.05
        target[picked] = rng.choice([-32768, 0, 1, 32767], np.count_nonzero(picked))
        recon = target + np.rint(rng.normal(0, 80, target.shape)).astype(np.int64)
        exact = rng.random(target.shape) < 0.3
        recon[exact] = target[exact]
        kept = (target.copy(), recon.copy())
        # the offsets, and so the flags and payload bytes, of a row-major and a transposed band
        for t, r in ((target, recon), (target.T, recon.T)):
            got = _zigzag_offsets(t, r, cfg)
            assert got.dtype == np.int64
            assert np.array_equal(got, out_of_place_zigzag_offsets(t, r, cfg))
        # the inputs are read, never written
        assert np.array_equal(target, kept[0]) and np.array_equal(recon, kept[1])


def test_apply_empty_map_is_identity():
    band = np.arange(16).reshape(4, 4)
    assert np.array_equal(apply_offsets(band.copy(), b""), band)


def test_apply_single_entry():
    band = np.zeros((4, 4), dtype=np.int64)
    out = apply_offsets(band, payload([0], [10]))  # zigzag(5) = 10
    assert out[0, 0] == 5
    assert out.sum() == 5


def test_apply_into_a_band_that_is_not_c_contiguous():
    # index 6 is row 1, column 2 of the band as it is indexed, not as it is stored
    band = np.zeros((4, 4), dtype=np.int64).T
    out = apply_offsets(band, payload([6], [10]))
    assert out is band
    assert out[1, 2] == 5
    assert out.sum() == 5


def test_apply_out_of_range_index():
    band = np.zeros((4, 4), dtype=np.int64)
    with pytest.raises(CorruptStreamError):
        apply_offsets(band, payload([16], [2]))


def test_offsets_payload_invariants():
    band = np.zeros((4, 4), dtype=np.int64)
    with pytest.raises(CorruptStreamError):
        apply_offsets(band, payload([3, 0], [2, 4]))  # index 3 twice
    with pytest.raises(CorruptStreamError):
        apply_offsets(band, payload([1, 1], [2, 0]))  # a zero offset


def test_serialization_round_trip():
    recon = np.zeros((256, 256), dtype=np.int64)
    target = recon.copy()
    target.ravel()[[0, 5, 65535]] = [-300, 7, 12345]
    dense, blob = compensation_payload(target, recon, CompensationConfig())
    assert not dense
    assert len(blob) == 3 * 8
    assert np.array_equal(apply_offsets(recon, blob), target)


def test_serialization_through_entropy_coder():
    rng = np.random.default_rng(1)
    idx = np.sort(rng.choice(65536, 500, replace=False))
    offs = rng.integers(-1000, 1000, 500)
    offs[offs == 0] = 1
    recon = np.zeros((256, 256), dtype=np.int64)
    target = recon.copy()
    target.ravel()[idx] = offs
    dense, blob = compensation_payload(target, recon, CompensationConfig())
    assert not dense
    back = segment_from_bytes(segment_to_bytes(blob), len(blob))
    assert np.array_equal(apply_offsets(recon, back), target)


def test_corrupt_offset_bytes():
    band = np.zeros((4, 4), dtype=np.int64)
    blob = payload([1, 1], [6, 8])
    with pytest.raises(CorruptStreamError):
        apply_offsets(band, blob + b"\x00")
    with pytest.raises(CorruptStreamError):
        apply_offsets(band, blob[:-1])


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
    fixed = corrected(target, recon, cfg)
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
    for q_step in (1.5, 2.0):
        with pytest.raises(ValueError, match="q_step"):
            CompensationConfig(q_step=q_step)


def reference_apply_offsets(recon, blob):
    """The earlier int64 formulation of apply_offsets, kept as an oracle."""
    if len(blob) % 8:
        raise CorruptStreamError("length")

    def planes(part):  # byte planes gathered by a transposed copy
        return np.ascontiguousarray(np.frombuffer(part, np.uint8).reshape(4, -1).T).view("<u4").ravel()

    half = len(blob) // 2
    deltas = planes(blob[:half])
    zigzag = planes(blob[half:]).astype(np.int64)
    if np.any(deltas[1:] == 0) or np.any(zigzag == 0):
        raise CorruptStreamError("repeat or zero")
    idx = np.cumsum(deltas, dtype=np.int64)
    out = np.asarray(recon).astype(np.int64).ravel()
    if idx.size and idx[-1] >= out.size:
        raise CorruptStreamError("past the band")
    out[idx] += (zigzag >> 1) ^ -(zigzag & 1)
    return out.reshape(np.shape(recon))


U32_EXTREMES = [0xFFFFFFFF, 0xFFFFFFFE, 0x80000000, 0x7FFFFFFF, 1, 2]


@st.composite
def offset_cases(draw):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    recon = np.random.default_rng(seed).integers(-(2**31), 2**31, (rows, cols))
    n = draw(st.integers(0, 12))
    # mostly small deltas, so many payloads stay inside the band; 0 repeats an index
    deltas = draw(st.lists(st.one_of(st.integers(0, 6), st.integers(0, 2**32 - 1)), min_size=n, max_size=n))
    zigzags = draw(
        st.lists(st.one_of(st.integers(0, 2**32 - 1), st.sampled_from(U32_EXTREMES + [0])), min_size=n, max_size=n)
    )
    cut = draw(st.sampled_from([0, 0, 0, 1, 3, 7]))  # bytes dropped from the end
    blob = payload(np.array(deltas, np.uint32), np.array(zigzags, np.uint32))
    return recon, blob[: len(blob) - cut]


def corrupt_case(deltas, zigzags, cut=0):
    blob = payload(np.array(deltas, np.uint32), np.array(zigzags, np.uint32))
    return np.zeros((4, 4), np.int64), blob[: len(blob) - cut]


@settings(max_examples=400, deadline=None)
@given(offset_cases())
@example(corrupt_case([0, 15], U32_EXTREMES[:2]))  # the two int32 extremes, in band
@example(corrupt_case([2, 3, 4], U32_EXTREMES[:3]))
@example(corrupt_case([3, 0], [2, 4]))  # a repeated index
@example(corrupt_case([1, 1], [2, 0]))  # a zero offset
@example(corrupt_case([16], [2]))  # an index past the band
@example(corrupt_case([0xFFFFFFFF, 0xFFFFFFFF], [2, 2]))  # past the band via a large sum
@example(corrupt_case([1, 1], [6, 8], cut=1))  # a length that is not 8 per entry
def test_apply_offsets_matches_int64_reference(case):
    recon, blob = case
    try:
        expected = reference_apply_offsets(recon, blob)
    except CorruptStreamError:
        with pytest.raises(CorruptStreamError):
            apply_offsets(recon, blob)
        return
    got = apply_offsets(recon.copy(), blob)
    assert got.dtype == expected.dtype == np.int64
    assert got.shape == recon.shape
    assert np.array_equal(got, expected)


def test_residual_payload_golden_digest():
    # 4,086 of the 4,096 pixels carry an offset, all within int16, so the dense layout is chosen
    dense, blob = compensation_payload(GOLDEN_TARGET, GOLDEN_RECON, CompensationConfig(lam=0.0, q_step=1))
    assert dense
    assert len(blob) == 2 * GOLDEN_TARGET.size
    assert hashlib.sha256(blob).hexdigest() == "d4da30f6f64a2485e4ff65cb4e1fd095018868607b29e2461b3d843f1f7adf46"
    assert np.array_equal(apply_residual(GOLDEN_RECON.copy(), blob), GOLDEN_TARGET)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 16),
    st.integers(1, 16),
    st.integers(0, 2**32 - 1),
    st.sampled_from([3, 40, 2**15, 2**16, 2**20]),  # prediction spread; past 2**15 an offset can miss int16
    st.floats(0.0, 1.0),  # share of exactly predicted pixels, which moves the count across a quarter
    st.sampled_from([0.0, 1e-3, 0.05, 2.0]),
    st.sampled_from([1, 2, 7, 32767]),
)
@example(rows=2, cols=2, seed=0, spread=40, exact=0.0, lam=0.0, q_step=1)
def test_compensation_payload_layouts(rows, cols, seed, spread, exact, lam, q_step):
    rng = np.random.default_rng(seed)
    target = rng.integers(-32768, 32768, (rows, cols))
    recon = target + rng.integers(-spread, spread + 1, (rows, cols))
    same = rng.random((rows, cols)) < exact
    recon[same] = target[same]
    cfg = CompensationConfig(lam=lam, q_step=q_step)
    sparse = reference_offsets_to_bytes(target, recon, cfg)
    zigzag = from_byte_planes(sparse[len(sparse) // 2 :], "<u4")
    dense, blob = compensation_payload(target, recon, cfg)
    # the rule: dense exactly when over a quarter of the pixels carry an offset, each below 2**16 zigzagged
    assert dense == (4 * zigzag.size > target.size and zigzag.max(initial=0) < 2**16)
    assert len(blob) == 2 * target.size if dense else blob == sparse
    got = (apply_residual if dense else apply_offsets)(recon.copy(), blob)
    assert np.array_equal(got, reference_apply_offsets(recon, sparse))


@pytest.mark.parametrize(
    "offsets, dense",
    [
        ([5, -5, 0, 0, 0, 0, 0, 0], False),  # a quarter of the pixels: the plane is no smaller
        ([5, -5, 1, 0, 0, 0, 0, 0], True),
        ([5, -5, 32767, -32768, 0, 0, 0, 0], True),  # the int16 extremes
        ([5, -5, 32768, 0, 0, 0, 0, 0], False),  # zigzag 65536 does not fit the plane
    ],
)
def test_layout_rule_boundaries(offsets, dense):
    recon = np.zeros((2, 4), np.int64)
    target = np.array(offsets).reshape(2, 4)
    got_dense, blob = compensation_payload(target, recon, CompensationConfig())
    assert got_dense == dense
    assert np.array_equal((apply_residual if dense else apply_offsets)(recon, blob), target)


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_apply_adds_into_the_band_it_is_given(dense):
    # the band step corrects its prediction in the buffer it holds: no new array comes back
    rng = np.random.default_rng(6)
    recon = rng.integers(-1000, 1000, (16, 16))
    target = recon + (rng.integers(-50, 51, recon.shape) if dense else 0)
    target[3, 4] += 7
    got_dense, blob = compensation_payload(target, recon, CompensationConfig())
    assert got_dense == dense
    band = recon.copy()
    got = (apply_residual if dense else apply_offsets)(band, blob)
    assert got is band
    assert np.array_equal(band, target)


def test_every_residual_payload_of_the_band_size_is_valid():
    recon = np.zeros((2, 3), np.int64)
    # zigzag 0xFFFF and 0xFFFE are the int16 extremes -32768 and 32767
    blob = to_byte_planes(np.array([0, 1, 2, 0xFFFE, 0xFFFF, 7]), "<u2")
    assert apply_residual(recon, blob).tolist() == [[0, -1, 1], [32767, -32768, -4]]
    for bad in (blob[:-1], blob + b"\x00", b""):
        with pytest.raises(CorruptStreamError):
            apply_residual(recon, bad)
