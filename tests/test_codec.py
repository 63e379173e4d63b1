import ctypes
import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from hsicodec.codec import (
    Bitstream,
    BitstreamHeader,
    EncoderConfig,
    TAG_FIRST_BAND,
    TAG_OFFSETS,
    TAG_PARAMS,
    TAG_RESIDUAL,
    _band_blocks,
    _decode_band,
    _unpack_band,
    _fit_band,
    bitrate,
    decode_cube,
    encode_cube_full,
    max_payload,
)
from hsicodec.compensate import CompensationConfig, apply_offsets, apply_residual
from hsicodec.cube import BLOCK, HyperCube, normalize_band
from hsicodec.entropy import segment_from_bytes, segment_to_bytes
from hsicodec.errors import CorruptStreamError, DimensionError, NoContentError
from hsicodec.lm import TrainConfig, train
from hsicodec.metrics import psnr, psnr_db
from hsicodec.mlp import GROUPS, N_INPUT, layers, unpack
from hsicodec.quantize import RECORD, dequantize_params, quantize_params
from hsicodec.wire import from_byte_planes, to_byte_planes
from test_blocks import block_columns
from test_compensate import reference_offsets_to_bytes
from test_mlp import random_params

# the bench cubes' band size
BAND_SIZE = 256


def fast_cfg(lam=0.0, enabled=True, seed=1, epochs=2):
    return EncoderConfig(
        train=TrainConfig(max_epochs=epochs, seed=seed),
        compensation=CompensationConfig(lam=lam, q_step=1, enabled=enabled),
    )


def smooth_cube(seed=0, bands=3, size=64, scale=1.0):
    rng = np.random.default_rng(seed)
    i, j = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    base = 110 + 75 * np.sin(i / 9.0) * np.cos(j / 11.0) + 30 * np.sin((i + 2 * j) / 15.0)
    stack = []
    for b in range(bands):
        factor = 1.0 + 0.08 * b * scale
        stack.append(np.round(base * factor + 5 * b).astype(np.int16))
    return HyperCube(data=np.stack(stack))


def rule_tags(result, comp) -> list[int]:
    """Each predicted band's offsets tag as the layout rule picks it, read from its sparse payload."""
    segments = result.bitstream.segments
    shape = result.recon_bands.shape[1:]
    tags = []
    for k in range(1, len(result.recon_bands)):
        record = segment_from_bytes(segments[2 * k - 1][1], RECORD.size)
        pred = _decode_band(_band_blocks(result.recon_bands[k - 1])[0], record, shape)
        sparse = reference_offsets_to_bytes(result.resized_bands[k], pred, comp)
        zigzag = from_byte_planes(sparse[len(sparse) // 2 :], "<u4")
        dense = 4 * zigzag.size > pred.size and zigzag.max(initial=0) < 2**16
        tags.append(TAG_RESIDUAL if dense else TAG_OFFSETS)
    return tags


def test_pack_band_round_trip():
    rng = np.random.default_rng(3)
    for lo, hi in [(0, 0), (5, 6), (0, 255), (-1000, 4000), (-32768, 32767)]:
        band = rng.integers(lo, hi + 1, (16, 16)).astype(np.int64)
        packed = to_byte_planes(band, "<i2")
        assert len(packed) == 2 * band.size
        back = _unpack_band(packed, band.shape)
        assert np.array_equal(back, band)


def block_order_bands():
    rng = np.random.default_rng(11)
    yield from (rng.integers(lo, hi + 1, (256, 256)).astype(np.int16) for lo, hi in [(0, 4095), (-300, 300)])
    yield np.full((256, 256), -7, np.int16)
    full = rng.integers(-32768, 32768, (256, 256)).astype(np.int16)
    full[0, 0], full[-1, -1] = -32768, 32767
    yield full
    yield rng.integers(0, 2, (8, 12)).astype(np.int16)


@pytest.mark.parametrize("band", block_order_bands())
def test_band_blocks_match_normalize_then_permute(band):
    # blocks are permuted as int16 and then scaled; the order must not change a bit
    got = _band_blocks(band)[0]
    expected = block_columns(normalize_band(band)[0])
    assert got.dtype == expected.dtype == np.float64
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_network_input_is_a_contiguous_array_of_its_own():
    # forward rounds w1 @ x by x's memory order, so both sides must hand it the same layout
    assert N_INPUT == BLOCK * BLOCK
    result = encode_cube_full(smooth_cube(bands=2), fast_cfg())
    decoded = decode_cube(result.bitstream).data
    for band in (result.recon_bands[1], decoded[1]):
        x = _band_blocks(band)[0]
        assert x.dtype == np.float64
        assert x.shape == (N_INPUT, 64 * 64 // N_INPUT)
        assert x.flags.c_contiguous
        assert x.flags.owndata


def test_single_band_cube_is_exact():
    cube = smooth_cube(bands=1)
    result = encode_cube_full(cube, fast_cfg())
    assert len(result.bitstream.segments) == 1
    assert result.bitstream.segments[0][0] == TAG_FIRST_BAND
    decoded = decode_cube(result.bitstream)
    assert np.array_equal(decoded.band(0), result.resized_bands[0])


def test_closed_loop_bitwise_equality():
    cube = smooth_cube(bands=3)
    result = encode_cube_full(cube, fast_cfg(lam=0.02))
    decoded = decode_cube(Bitstream.from_bytes(result.bitstream.to_bytes()))
    assert decoded.bands == 3
    for k in range(3):
        assert np.array_equal(decoded.band(k), result.recon_bands[k])
    # both codec sides hold one int16 array per cube, not a list of wider bands
    for cube_data in (result.recon_bands, result.resized_bands, decoded.data):
        assert cube_data.dtype == np.int16 and cube_data.shape == (3, 64, 64)


def test_lossless_limit_round_trip():
    cube = smooth_cube(bands=3)
    result = encode_cube_full(cube, fast_cfg(lam=0.0))
    decoded = decode_cube(result.bitstream)
    for k in range(3):
        assert np.array_equal(decoded.band(k), result.resized_bands[k])
    assert decoded.data.tobytes() == cube.data.tobytes()


@pytest.mark.parametrize("lam", [0.01, 0.05, 0.2])
def test_offset_pixels_decode_to_their_target(lam):
    # noise the network cannot predict, so every tolerance flags some pixels
    rng = np.random.default_rng(5)
    noisy = smooth_cube(bands=3).data + rng.normal(0, 25, (3, 64, 64))
    cube = HyperCube(data=np.round(noisy).astype(np.int16))
    cfg = fast_cfg(lam=lam)
    result = encode_cube_full(cube, cfg)
    decoded = decode_cube(Bitstream.from_bytes(result.bitstream.to_bytes()))
    apply = {TAG_OFFSETS: apply_offsets, TAG_RESIDUAL: apply_residual}
    offset_segments = [(tag, body) for tag, body in result.bitstream.segments if tag in apply]
    assert [tag for tag, _ in offset_segments] == rule_tags(result, cfg.compensation)
    for k, (tag, body) in enumerate(offset_segments, start=1):
        payload = segment_from_bytes(body, max_payload(64, 64)[tag])
        # offsets are nonzero, so the corrected pixels are the nonzero ones
        indices = np.flatnonzero(apply[tag](np.zeros((64, 64), np.int64), payload))
        assert len(indices) > 0
        got = decoded.band(k).ravel()[indices]
        assert np.array_equal(got, result.resized_bands[k].ravel()[indices])


def test_serialization_round_trip():
    cube = smooth_cube(bands=2)
    bs = encode_cube_full(cube, fast_cfg()).bitstream
    back = Bitstream.from_bytes(bs.to_bytes())
    assert back.header == bs.header
    assert back.segments == bs.segments


def test_deterministic_bitstream():
    cube = smooth_cube(bands=3)
    a = encode_cube_full(cube, fast_cfg(seed=7)).bitstream.to_bytes()
    b = encode_cube_full(cube, fast_cfg(seed=7)).bitstream.to_bytes()
    assert a == b


def test_repeated_encodes_in_one_process_are_identical():
    cube = smooth_cube(bands=4)
    a = encode_cube_full(cube, fast_cfg(lam=0.01, seed=7))
    b = encode_cube_full(cube, fast_cfg(lam=0.01, seed=7))
    assert a.bitstream.to_bytes() == b.bitstream.to_bytes()
    assert np.array_equal(a.recon_bands, b.recon_bands)
    assert a.train_reports == b.train_reports


def test_bitstream_identical_across_processes():
    # the same cube and seed, encoded by two fresh interpreters
    code = (
        "import hashlib, sys; sys.path.insert(0, 'tests'); "
        "from test_codec import encode_cube_full, fast_cfg, smooth_cube; "
        "print(hashlib.sha256(encode_cube_full(smooth_cube(bands=3), fast_cfg(lam=0.01, seed=7))"
        ".bitstream.to_bytes()).hexdigest())"
    )
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    digests = [
        subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env,
            capture_output=True, text=True, check=True, timeout=300,
        ).stdout.strip()
        for _ in range(2)
    ]
    here = encode_cube_full(smooth_cube(bands=3), fast_cfg(lam=0.01, seed=7)).bitstream
    here = hashlib.sha256(here.to_bytes())
    assert digests == [here.hexdigest()] * 2, f"zlib {zlib.ZLIB_RUNTIME_VERSION}"


def openblas_build() -> str | None:
    """Core name and thread count of the OpenBLAS loaded in this process, or None."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            if hasattr(lib, f"{prefix}get_corename{suffix}"):
                core = getattr(lib, f"{prefix}get_corename{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                core.restype, core.argtypes = ctypes.c_char_p, []
                threads.restype, threads.argtypes = ctypes.c_int, []
                return f"{core().decode()}, threads={threads()}"
    return None


# Streams depend on numpy's arithmetic, the OpenBLAS kernels and thread count LM training runs
# on and zlib's deflate as well as on this code, so their digests hold on the recorded build only.
DIGEST_BUILD = ("numpy 2.4.6", "zlib 1.2.13", "OpenBLAS SkylakeX, threads=1")
STREAM_DIGESTS = {
    0.0: "e09f3785262067dbfe9a69062aef2249f704c3d535980a87805d2bfe039edf63",
    0.2: "ca2e153368413239a7f41c691ca2db64f50d4ae2a5e0444ff853acaf98006a9c",
}


@pytest.mark.parametrize("lam, tag", [(0.0, TAG_RESIDUAL), (0.2, TAG_OFFSETS)], ids=["dense", "sparse"])
def test_stream_digest_on_the_recorded_build(lam, tag):
    build = (f"numpy {np.__version__}", f"zlib {zlib.ZLIB_RUNTIME_VERSION}", f"OpenBLAS {openblas_build()}")
    if build != DIGEST_BUILD:
        pytest.skip(f"digests recorded on {', '.join(DIGEST_BUILD)}; this build is {', '.join(build)}")
    bs = encode_cube_full(smooth_cube(bands=3), fast_cfg(lam=lam)).bitstream
    assert [t for t, _ in bs.segments] == [TAG_FIRST_BAND] + [TAG_PARAMS, tag] * 2
    assert hashlib.sha256(bs.to_bytes()).hexdigest() == STREAM_DIGESTS[lam]


# the sha256 of the decoded cube below; recorded on numpy 2.4.6, OpenBLAS SkylakeX, 1 thread
DECODED_DIGEST = "caf73547909727e4c3c50194d12c1e72ad93f22a5d50a7aea63366d78cff1159"


def test_decoded_cube_digest():
    # a compensation-off stream built without training: band 0 of a synthetic cube and two
    # initial networks' records. Its decode rests on the first band, the records and the
    # decoder's arithmetic only, not on zlib's bytes or on LM, so the digest holds on any build
    # whose rounded predictions agree
    from make_synthetic_cube import make_cube

    cube = make_cube(3, BAND_SIZE, 7, 3.0)
    segments = [(TAG_FIRST_BAND, segment_to_bytes(to_byte_planes(cube.band(0), "<i2")))]
    for s in (1, 2):
        params = random_params(s, 0.3)
        record = quantize_params(params, int(cube.band(s).min()), int(cube.band(s).max()))
        segments.append((TAG_PARAMS, segment_to_bytes(record)))
    header = BitstreamHeader(
        rows=BAND_SIZE, cols=BAND_SIZE, coded_bands=3, exclusions=(),
        compensation=CompensationConfig(enabled=False),
    )
    decoded = decode_cube(Bitstream(header=header, segments=segments))
    assert decoded.data.shape == (3, BAND_SIZE, BAND_SIZE)
    assert hashlib.sha256(decoded.data.astype("<i2").tobytes()).hexdigest() == DECODED_DIGEST


def test_segment_grammar():
    cube = smooth_cube(bands=3)
    # a smooth first band, then bands of noise that no map of the band before can predict
    noise = np.random.default_rng(5).integers(0, 256, (2, 64, 64))
    noisy = HyperCube(data=np.concatenate([cube.data[:1], noise]).astype(np.int16))
    layouts = set()
    # most noise pixels miss lambda 0.01, so those bands are dense; few smooth pixels miss 0.2,
    # so those bands are sparse
    for case, lam in ((noisy, 0.01), (cube, 0.2)):
        cfg = fast_cfg(lam=lam, enabled=True)
        with_comp = encode_cube_full(case, cfg)
        offsets_tags = rule_tags(with_comp, cfg.compensation)
        tags = [tag for tag, _ in with_comp.bitstream.segments]
        assert tags == [TAG_FIRST_BAND] + [t for o in offsets_tags for t in (TAG_PARAMS, o)]
        layouts.update(offsets_tags)
    assert layouts == {TAG_OFFSETS, TAG_RESIDUAL}
    without = encode_cube_full(cube, fast_cfg(enabled=False)).bitstream
    tags = [tag for tag, _ in without.segments]
    assert tags == [TAG_FIRST_BAND] + [TAG_PARAMS] * 2


def test_params_record_layout():
    # a predicted band's one 0x02 payload is the record the encoder's band fit returns
    cfg = fast_cfg(enabled=False)
    result = encode_cube_full(smooth_cube(bands=2), cfg)
    [_, (tag, body)] = result.bitstream.segments
    assert tag == TAG_PARAMS
    x = _band_blocks(result.resized_bands[0])[0]
    expected, _ = _fit_band(x, result.resized_bands[1], cfg.train)
    assert segment_from_bytes(body, RECORD.size) == expected


def lm_record(x, band, cfg):
    """The record of LM's own trained network for ``band``: no output-layer solve."""
    target, src_min, src_max = _band_blocks(band)
    return quantize_params(train(x, target, cfg)[0], src_min, src_max)


def band_pairs(kind):
    """The (previous, current) 64x64 band pairs of a smooth or a textured cube."""
    from make_synthetic_cube import make_cube

    cube = smooth_cube() if kind == "smooth" else make_cube(3, 64, 7, 12.0)
    return list(zip(cube.data, cube.data[1:]))


@pytest.mark.parametrize("kind", ["smooth", "textured"])
def test_fit_band_keeps_the_hidden_layer_and_solves_the_output_layer(kind):
    # the record ships LM's own 8-bit w1 and b1, and the ridge least-squares output
    # layer for that hidden layer over every column, to within its 8-bit step
    cfg = TrainConfig(max_epochs=2, seed=1)
    w1_end = GROUPS[1][1]
    for prev, band in band_pairs(kind):
        x = _band_blocks(prev)[0]
        record = _fit_band(x, band, cfg)[0]
        lm_bytes, *lm_ranges = RECORD.unpack(lm_record(x, band, cfg))[:9]
        bytes_, *ranges = RECORD.unpack(record)[:9]
        assert bytes_[:w1_end] == lm_bytes[:w1_end]
        assert ranges[:4] == lm_ranges[:4]

        params = dequantize_params(record)[0]
        h1 = np.vstack([layers(params, x)[0], np.ones((1, x.shape[1]))])
        ridge = np.sqrt(1e-6 * np.trace(h1 @ h1.T) / len(h1)) * np.eye(len(h1))
        rhs = np.vstack([_band_blocks(band)[0].T, np.zeros((len(h1), N_INPUT))])
        solved = np.linalg.lstsq(np.vstack([h1.T, ridge]), rhs)[0].T
        for shipped, exact in zip(unpack(params)[2:], (solved[:, :-1], solved[:, -1])):
            step = (shipped.max() - shipped.min()) / 255
            assert np.abs(shipped - exact).max() <= 0.5 * step + 1e-6 * np.abs(exact).max()


def test_fit_band_predicts_better_than_lm_alone():
    # the solved output layer beats LM's own, which was fit in float on a sample of the columns
    cfg = TrainConfig(max_epochs=2, seed=1)
    for prev, band in band_pairs("smooth"):
        x = _band_blocks(prev)[0]
        records = _fit_band(x, band, cfg)[0], lm_record(x, band, cfg)
        solved, alone = (np.mean((_decode_band(x, r, band.shape) - band) ** 2) for r in records)
        assert solved < alone


def test_header_holds_its_own_compensation_config():
    cfg = fast_cfg(lam=0.02)
    header = encode_cube_full(smooth_cube(bands=2), cfg).bitstream.header
    assert header.compensation == cfg.compensation
    assert header.compensation is not cfg.compensation


def test_band_count_past_the_header_fields_rejected():
    # 65,536 exclusions do not fit the header's u16 count: refused before training, not at to_bytes
    cube = HyperCube(data=np.ones((65537, 1, 1), np.int16))
    with pytest.raises(DimensionError, match="u16 header fields"):
        encode_cube_full(cube, dataclasses.replace(fast_cfg(), band_exclusions=tuple(range(65536))))


def test_all_zero_cube_rejected():
    cube = HyperCube(data=np.zeros((2, 8, 8), dtype=np.int16))
    with pytest.raises(NoContentError):
        encode_cube_full(cube, fast_cfg())


def test_leading_zero_bands_become_exclusions():
    cube = smooth_cube(bands=2)
    data = np.concatenate([np.zeros((1, 64, 64), dtype=np.int16), cube.data])
    result = encode_cube_full(HyperCube(data=data), fast_cfg())
    assert result.band_indices == [1, 2]
    assert 0 in result.bitstream.header.exclusions
    decoded = decode_cube(result.bitstream)
    assert decoded.bands == 2


def reference_cases():
    """name -> (cube samples, exclusions, whether the reference can be a view of the cube)."""
    data = smooth_cube(bands=4, size=256).data
    zero_first = data.copy()
    zero_first[0] = 0
    return {
        "full size": (data, (), True),
        "leading all-zero band": (zero_first, (), True),
        "trailing excluded band": (data, (3,), True),
        "excluded middle band": (data, (1,), False),
        "Fortran order": (np.asfortranarray(data), (), False),
        "200x200": (smooth_cube(bands=3, size=200).data, (), True),
        "250x301": (np.ascontiguousarray(smooth_cube(bands=3, size=301).data[:, :250]), (), True),
    }


@pytest.mark.parametrize("case", list(reference_cases()))
def test_reference_is_the_resized_coded_bands(case):
    # the reference keeps its old name, and holds the input's coded bands at their own size
    data, exclusions, view = reference_cases()[case]
    cube = HyperCube(data=data)
    before = cube.data.copy()
    cfg = dataclasses.replace(fast_cfg(lam=0.02, epochs=0), band_exclusions=exclusions)
    result = encode_cube_full(cube, cfg)
    resized, recon = result.resized_bands, result.recon_bands
    assert np.array_equal(resized, np.stack([cube.band(b) for b in result.band_indices]))
    assert resized.dtype == np.int16 and resized.flags.c_contiguous
    assert not resized.flags.writeable
    assert np.shares_memory(resized, cube.data) == view
    # encoding neither writes the caller's cube nor takes its write access away
    assert np.array_equal(cube.data, before) and cube.data.flags.writeable
    # recon is cropped from padded bands, so it is C-contiguous where no pad was needed
    assert recon.dtype == np.int16 and recon.flags.writeable and recon.shape == resized.shape
    assert recon.flags.c_contiguous == (cube.rows % 4 == cube.cols % 4 == 0)
    assert not np.shares_memory(recon, cube.data)
    assert np.array_equal(decode_cube(result.bitstream).data, recon)


def test_memory_order_leaves_the_stream_alone():
    # the same samples as a C-ordered cube (the view path) and a Fortran-ordered one (the copy path)
    data = smooth_cube(bands=3, size=256).data
    c_order = encode_cube_full(HyperCube(data=data), fast_cfg(lam=0.02, seed=7))
    fortran = encode_cube_full(HyperCube(data=np.asfortranarray(data)), fast_cfg(lam=0.02, seed=7))
    assert fortran.bitstream.to_bytes() == c_order.bitstream.to_bytes()
    assert fortran.recon_bands.tobytes() == c_order.recon_bands.tobytes()


def test_excluded_bands_absent_from_stream():
    cube = smooth_cube(bands=4)
    cfg = fast_cfg()
    cfg = EncoderConfig(
        train=cfg.train, compensation=cfg.compensation, band_exclusions=(1, 3)
    )
    result = encode_cube_full(cube, cfg)
    assert result.band_indices == [0, 2]
    assert result.bitstream.header.exclusions == (1, 3)
    assert decode_cube(result.bitstream).bands == 2


def test_exclusion_out_of_range():
    # a band index that is not an integer of the cube is named as such, not as a header overflow
    cube = smooth_cube(bands=2)
    for band in (5, 2, -1, 1.5, 1.0, "1"):
        cfg = EncoderConfig(
            train=TrainConfig(max_epochs=1),
            compensation=CompensationConfig(),
            band_exclusions=(band,),
        )
        with pytest.raises(DimensionError, match="excluded band"):
            encode_cube_full(cube, cfg)


def test_changing_later_band_leaves_earlier_decode_alone():
    cube_a = smooth_cube(seed=1, bands=3)
    data_b = cube_a.data.copy()
    data_b[2] = np.roll(data_b[2], 7, axis=0)
    cube_b = HyperCube(data=data_b)
    dec_a = decode_cube(encode_cube_full(cube_a, fast_cfg()).bitstream)
    dec_b = decode_cube(encode_cube_full(cube_b, fast_cfg()).bitstream)
    for k in range(2):
        assert np.array_equal(dec_a.band(k), dec_b.band(k))


def test_bad_magic_rejected():
    cube = smooth_cube(bands=2)
    blob = bytearray(encode_cube_full(cube, fast_cfg()).bitstream.to_bytes())
    blob[0] ^= 0xFF
    with pytest.raises(CorruptStreamError):
        Bitstream.from_bytes(bytes(blob))


def test_truncated_stream_rejected():
    cube = smooth_cube(bands=2)
    blob = encode_cube_full(cube, fast_cfg()).bitstream.to_bytes()
    with pytest.raises(CorruptStreamError):
        Bitstream.from_bytes(blob[: len(blob) - 5])


def test_missing_segment_rejected():
    cube = smooth_cube(bands=2)
    bs = encode_cube_full(cube, fast_cfg()).bitstream
    broken = Bitstream(header=bs.header, segments=bs.segments[:-1])
    with pytest.raises(CorruptStreamError):
        decode_cube(broken)


def test_wrong_tag_order_rejected():
    cube = smooth_cube(bands=2)
    bs = encode_cube_full(cube, fast_cfg()).bitstream
    swapped = list(bs.segments)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    with pytest.raises(CorruptStreamError):
        decode_cube(Bitstream(header=bs.header, segments=swapped))


def test_trailing_segment_rejected():
    cube = smooth_cube(bands=2)
    bs = encode_cube_full(cube, fast_cfg()).bitstream
    extra = Bitstream(header=bs.header, segments=bs.segments + [bs.segments[-1]])
    with pytest.raises(CorruptStreamError):
        decode_cube(Bitstream.from_bytes(extra.to_bytes()))


def test_header_declaring_more_bands_than_segments_rejected():
    cube = smooth_cube(bands=2)
    bs = encode_cube_full(cube, fast_cfg()).bitstream
    header = dataclasses.replace(bs.header, coded_bands=3)
    with pytest.raises(CorruptStreamError):
        decode_cube(Bitstream.from_bytes(Bitstream(header=header, segments=bs.segments).to_bytes()))


@pytest.mark.parametrize("rows, coded", [(256, 0)], ids=["no coded band"])
def test_bad_header_in_memory_rejected(rows, coded):
    # a Bitstream built in memory skips from_bytes, so decode_cube checks its header as from_bytes does
    bs = encode_cube_full(smooth_cube(bands=2), fast_cfg()).bitstream
    first = (TAG_FIRST_BAND, segment_to_bytes(to_byte_planes(np.ones((rows, rows), np.int16), "<i2")))
    header = dataclasses.replace(bs.header, rows=rows, cols=rows, coded_bands=coded)
    segments = [first] + bs.segments[1:] if coded else [first]
    with pytest.raises(CorruptStreamError):
        decode_cube(Bitstream(header=header, segments=segments))
    with pytest.raises(CorruptStreamError):
        Bitstream.from_bytes(Bitstream(header=header, segments=segments).to_bytes())


@pytest.mark.parametrize("lam, enabled, per_band", [
    (0.0, True, [TAG_PARAMS, TAG_RESIDUAL]), (0.2, True, [TAG_PARAMS, TAG_OFFSETS]), (0.0, False, [TAG_PARAMS]),
], ids=["dense", "sparse", "compensation off"])
def test_bitrate_arithmetic(lam, enabled, per_band):
    # bitrate sizes the stream from its header and segments; it must be the serialized length
    cfg = dataclasses.replace(fast_cfg(lam=lam, enabled=enabled), band_exclusions=(1,))
    bs = encode_cube_full(smooth_cube(bands=4), cfg).bitstream
    assert [t for t, _ in bs.segments] == [TAG_FIRST_BAND] + per_band * 2
    assert bitrate(bs) == len(bs.to_bytes()) * 8 / (64 * 64 * 3)


def test_serializing_holds_one_copy_of_the_stream():
    # 17 bands of random, incompressible segments of band size: a 2.1 MiB stream. ``to_bytes``
    # does not parse a segment, so its size, not the predictor, sets the stream's
    rng = np.random.default_rng(0)
    band = 2 * BAND_SIZE * BAND_SIZE
    segments = [(TAG_FIRST_BAND, rng.bytes(band))]
    for _ in range(16):
        segments += [(TAG_PARAMS, rng.bytes(386)), (TAG_RESIDUAL, rng.bytes(band))]
    header = BitstreamHeader(
        rows=BAND_SIZE, cols=BAND_SIZE, coded_bands=17, exclusions=(), compensation=CompensationConfig()
    )
    bs = Bitstream(header=header, segments=segments)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        size = len(bs.to_bytes())
        rise = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert size > 2**21
    assert rise <= size + 2**20, (rise, size)


def test_params_only_band_payload_under_budget():
    cube = smooth_cube(bands=2, size=256)
    bs = encode_cube_full(cube, fast_cfg(enabled=False)).bitstream
    per_band = [len(body) for tag, body in bs.segments if tag == TAG_PARAMS]
    assert sum(per_band) <= 500
    # a params-only band costs well under 0.05 bpppb of its own band
    assert sum(per_band) * 8 / 65536 <= 0.05


def test_identity_band_pair_params_only_quality():
    # band 2 == band 1: the identity map trains to the goal, and with a
    # small init range the solution quantizes to better than 45 dB
    i, j = np.meshgrid(np.arange(128), np.arange(128), indexing="ij")
    band = np.round(
        120 + 70 * np.sin(i / 9.0) * np.cos(j / 11.0) + 40 * np.sin((i + 2 * j) / 17.0)
    ).astype(np.int16)
    cube = HyperCube(data=np.stack([band, band]))
    cfg = EncoderConfig(
        train=TrainConfig(
            mse_goal=1e-7, max_epochs=120, seed=2, init_range=(-0.3, 0.3)
        ),
        compensation=CompensationConfig(enabled=False),
    )
    result = encode_cube_full(cube, cfg)
    decoded = decode_cube(result.bitstream)
    assert psnr(result.resized_bands[1], decoded.band(1)) >= 45.0
    assert result.train_reports[0].final_mse <= 1e-4


def test_predict_psnr_is_the_params_only_psnr():
    # with compensation off each reconstruction is its band's prediction
    result = encode_cube_full(smooth_cube(bands=3), fast_cfg(enabled=False))
    assert len(result.predict_mse) == len(result.train_reports) == 2
    for k, err in enumerate(result.predict_mse, start=1):
        assert psnr_db(err) == psnr(result.resized_bands[k], result.recon_bands[k])


def test_predict_mse_is_taken_before_offsets():
    # lambda 0 makes every band of a textured cube exact through its offsets, not its prediction
    rng = np.random.default_rng(4)
    data = smooth_cube(bands=3).data + rng.integers(-20, 21, (3, 64, 64))
    result = encode_cube_full(HyperCube(data=data.astype(np.int16)), fast_cfg(lam=0.0))
    assert np.array_equal(result.recon_bands, result.resized_bands)
    assert len(result.predict_mse) == 2
    assert all(err > 0 for err in result.predict_mse)


def test_nonsquare_input_cube_at_its_own_size():
    # 90 columns pad to 92: the stream's header and the decode keep the input's 40 x 90
    rng = np.random.default_rng(5)
    data = rng.integers(0, 200, (2, 40, 90), dtype=np.int16)
    result = encode_cube_full(HyperCube(data=data), fast_cfg(lam=0.0))
    h = result.bitstream.header
    assert (h.rows, h.cols) == (40, 90)
    decoded = decode_cube(Bitstream.from_bytes(result.bitstream.to_bytes()))
    assert decoded.data.shape == (2, 40, 90)
    assert decoded.data.tobytes() == data.tobytes()
    assert np.array_equal(result.recon_bands, data)


@pytest.mark.parametrize("shape", [(3, 250, 301), (3, 4, 4), (3, 1, 1), (3, 5, 7)], ids="{0[1]}x{0[2]}".format)
def test_lossless_decode_equals_the_input(shape):
    # lambda 0 reproduces the input cube itself, on bands that need a pad and on bands that need none
    data = np.random.default_rng(8).integers(-300, 4000, shape).astype(np.int16)
    result = encode_cube_full(HyperCube(data=data), fast_cfg(lam=0.0))
    assert (result.bitstream.header.rows, result.bitstream.header.cols) == shape[1:]
    decoded = decode_cube(Bitstream.from_bytes(result.bitstream.to_bytes()))
    assert decoded.data.shape == shape
    assert decoded.data.tobytes() == data.tobytes()


def test_first_band_is_stored_padded_by_edge_replication():
    # a 5 x 7 band pads to 8 x 8: its last row and column repeat out to the block edge
    data = np.arange(35, dtype=np.int16).reshape(1, 5, 7) + 1
    bs = encode_cube_full(HyperCube(data=data), fast_cfg()).bitstream
    assert max_payload(5, 7)[TAG_FIRST_BAND] == 2 * 8 * 8
    first = _unpack_band(segment_from_bytes(bs.segments[0][1], 2 * 8 * 8), (8, 8))
    assert np.array_equal(first, np.pad(data[0], ((0, 3), (0, 1)), mode="edge"))


def test_predict_mse_counts_only_the_bands_own_pixels():
    data = np.random.default_rng(2).integers(0, 500, (2, 6, 9)).astype(np.int16)
    result = encode_cube_full(HyperCube(data=data), fast_cfg(enabled=False))
    d = result.recon_bands[1].astype(np.int64) - data[1]
    assert result.predict_mse == [float(np.sum(d * d)) / data[1].size]
