"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. The lossless-limit criterion also checks a user-supplied real cube
when the HSICODEC_TEST_CUBE environment variable points at a .raw file.
"""

import math
import os
import time

import numpy as np
import pytest

from hsicodec.codec import (
    EncoderConfig,
    TAG_PARAMS,
    bitrate,
    decode_cube,
    encode_cube_full,
)
from hsicodec.compensate import CompensationConfig
from hsicodec.cube import HyperCube, load_cube, normalize_band
from hsicodec.entropy import segment_from_bytes, segment_to_bytes
from hsicodec.lm import TrainConfig, train
from hsicodec.metrics import correlation_coefficient, psnr, ssim
from hsicodec.mlp import N_PARAMS, forward
from hsicodec.quantize import RECORD

from jacobian_oracle import compute_jacobian
from make_synthetic_cube import smooth_field
from test_blocks import block_columns


def report(name):
    print(f"\nACCEPTANCE PASS: {name}")


def smooth_band(seed=0):
    rng = np.random.default_rng(seed)
    i, j = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    band = (
        120
        + 70 * np.sin(i / 19.0) * np.cos(j / 23.0)
        + 45 * np.sin((2 * i - j) / 31.0)
        + rng.normal(0, 0.5, (256, 256))
    )
    return np.round(band).astype(np.int64)


def small_smooth_cube(bands=3, seed=0):
    rng = np.random.default_rng(seed)
    i, j = np.meshgrid(np.arange(96), np.arange(96), indexing="ij")
    base = 110 + 75 * np.sin(i / 9.0) * np.cos(j / 11.0) + 30 * np.sin((i + 2 * j) / 15.0)
    stack = [
        np.round(base * (1 + 0.07 * b) + rng.normal(0, 1, base.shape)).astype(np.int16)
        for b in range(bands)
    ]
    return HyperCube(data=np.stack(stack))


def test_criterion_jacobian_correctness():
    """Analytic Jacobian vs central finite differences, 10 seeded draws."""
    start = time.monotonic()
    step = 1e-6
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = rng.uniform(-1, 1, N_PARAMS)
        x = rng.uniform(0, 1, (16, 4))
        analytic = compute_jacobian(params, x)
        fd = np.empty_like(analytic)
        for p in range(N_PARAMS):
            vp, vm = params.copy(), params.copy()
            vp[p] += step
            vm[p] -= step
            fp = forward(vp, x).T.ravel()
            fm = forward(vm, x).T.ravel()
            fd[:, p] = (fp - fm) / (2 * step)
        rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1.0)
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - start
    assert worst <= 1e-5, f"max relative error {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(f"jacobian correctness (max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_trainability_at_goal():
    """Affine band map at M=4096 reaches the 1e-4 MSE goal in time."""
    x = block_columns(normalize_band(smooth_band(seed=2))[0])
    target = 0.3 * x + 0.1
    cfg = TrainConfig(mse_goal=1e-4, max_epochs=200, seed=0)
    start = time.monotonic()
    _, rep = train(x, target, cfg)
    elapsed = time.monotonic() - start
    assert rep.final_mse <= 1e-4, f"final mse {rep.final_mse:.3e}"
    assert rep.epochs_run <= 200
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"
    report(
        f"trainability at goal (mse {rep.final_mse:.2e}, "
        f"{rep.epochs_run} epochs, {elapsed:.1f}s)"
    )


def test_criterion_closed_loop_equality():
    """Decoder output equals encoder-side reconstruction bitwise, 4 bands."""
    rng = np.random.default_rng(77)
    cube = HyperCube(data=rng.integers(-2000, 2000, (4, 256, 256), dtype=np.int16))
    cfg = EncoderConfig(
        train=TrainConfig(max_epochs=2, seed=5),
        compensation=CompensationConfig(lam=0.02, q_step=1, enabled=True),
    )
    result = encode_cube_full(cube, cfg)
    decoded = decode_cube(result.bitstream)
    assert decoded.bands == 4
    for k in range(4):
        assert np.array_equal(decoded.band(k), result.recon_bands[k]), f"band {k}"
    report("closed-loop equality (4 bands, bitwise)")


def _assert_lossless(cube, seed=3):
    cfg = EncoderConfig(
        train=TrainConfig(max_epochs=2, seed=seed),
        compensation=CompensationConfig(lam=0.0, q_step=1, enabled=True),
    )
    result = encode_cube_full(cube, cfg)
    decoded = decode_cube(result.bitstream)
    for k, ref in enumerate(result.resized_bands):
        assert np.array_equal(decoded.band(k), ref), f"band {k} not exact"
    return len(result.resized_bands)


def test_criterion_lossless_limit():
    """lambda=0, q_step=1 reproduces every resized band exactly."""
    bands = _assert_lossless(small_smooth_cube(bands=3, seed=1))
    note = f"synthetic cube ({bands} bands exact)"
    user_cube = os.environ.get("HSICODEC_TEST_CUBE")
    if user_cube:
        cube = load_cube(user_cube)
        if cube.bands > 12:
            cube = HyperCube(data=cube.data[:12])
        bands = _assert_lossless(cube)
        note += f" + user cube ({bands} bands exact)"
    report(f"lossless limit ({note})")


@pytest.mark.parametrize("lam", [0.01, 0.05])
def test_criterion_near_lossless_bound(lam):
    """Every pixel with |target| >= 1 obeys rel error <= lam + 1/(2|t|)."""
    cube = small_smooth_cube(bands=3, seed=2)
    cfg = EncoderConfig(
        train=TrainConfig(max_epochs=2, seed=4),
        compensation=CompensationConfig(lam=lam, q_step=1, enabled=True),
    )
    result = encode_cube_full(cube, cfg)
    decoded = decode_cube(result.bitstream)
    checked = 0
    for k, ref in enumerate(result.resized_bands):
        t = ref.ravel().astype(np.float64)
        c = decoded.band(k).ravel().astype(np.float64)
        mask = np.abs(t) >= 1
        rel = np.abs(t - c)[mask] / np.abs(t)[mask]
        bound = lam + 1.0 / (2.0 * np.abs(t)[mask])
        assert np.all(rel <= bound + 1e-12), (
            f"band {k}: worst excess {(rel - bound).max():.3e}"
        )
        checked += int(mask.sum())
    report(f"near-lossless bound (lambda={lam}, {checked} pixels exhaustive)")


def test_criterion_bit_budget():
    """The params record (params, ranges, band min/max) stays under 400 bytes pre-entropy."""
    cube = small_smooth_cube(bands=3, seed=3)
    cfg = EncoderConfig(
        train=TrainConfig(max_epochs=2, seed=6),
        compensation=CompensationConfig(enabled=False),
    )
    bs = encode_cube_full(cube, cfg).bitstream
    per_band = [len(segment_from_bytes(body, RECORD.size)) for tag, body in bs.segments if tag == TAG_PARAMS]
    assert per_band == [386, 386]  # 346 params + 32 range bytes + 8 min/max bytes
    per_band_total = 386
    assert per_band_total <= 400
    assert per_band_total / 65536 < 0.01
    report(f"bit budget ({per_band_total} bytes/band pre-entropy, "
           f"{per_band_total / 655.36:.2f}% of a band)")


def test_criterion_low_rate_quality():
    """16 smoothly related bands: mean PSNR >= 30 dB at <= 0.1 bpppb, params only."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    mask = smooth_field(rng, 256) > 0
    first = np.where(mask, 101, 100).astype(np.int64)
    second = np.round(64.0 + 128.0 / (1.0 + np.exp(-8.0 * (first - 100.5)))).astype(np.int64)
    bands = [first, second]
    for _ in range(14):
        beta = rng.uniform(-0.4, 0.4)
        u = bands[-1] / 255.0
        mapped = u + beta * u * (1.0 - u)
        rho = smooth_field(rng, 256, scale=40.0)
        rho = 3.0 * rho / max(np.abs(rho).max(), 1e-9)
        bands.append(np.clip(np.round(255.0 * mapped + rho), 0, 255).astype(np.int64))

    ccs = [correlation_coefficient(bands[k], bands[k + 1]) for k in range(15)]
    assert min(ccs) >= 0.97, f"premise broken: min CC {min(ccs):.4f}"

    cube = HyperCube(data=np.stack(bands).astype(np.int16))
    cfg = EncoderConfig(
        train=TrainConfig(
            mse_goal=1e-5, max_epochs=50, seed=3,
            init_range=(-0.3, 0.3),  # smaller-norm solutions quantize better
        ),
        compensation=CompensationConfig(enabled=False),
    )
    result = encode_cube_full(cube, cfg)
    decoded = decode_cube(result.bitstream)
    rate = bitrate(result.bitstream)
    mean_psnr = float(
        np.mean([psnr(result.resized_bands[k], decoded.band(k)) for k in range(1, 16)])
    )
    elapsed = time.monotonic() - start
    assert rate <= 0.1, f"rate {rate:.4f} bpppb"
    assert mean_psnr >= 30.0, f"mean PSNR {mean_psnr:.2f} dB"
    assert elapsed <= 900.0, f"took {elapsed:.0f}s"
    report(
        f"low-rate quality (CC>={min(ccs):.3f}, {rate:.4f} bpppb, "
        f"mean PSNR {mean_psnr:.2f} dB, {elapsed:.0f}s)"
    )


def test_criterion_entropy_coder():
    """>= 1000 random and adversarial buffers round-trip, bounded expansion."""
    start = time.monotonic()
    rng = np.random.default_rng(99)
    cases = [
        b"",
        b"\x00",
        b"\x07" * 65536,
        bytes([0, 255]) * 8192,
        bytes(range(256)) * 16,
        bytes([0] * 9999 + [1]),
        rng.integers(0, 256, 65536, dtype=np.uint8).tobytes(),
    ]
    while len(cases) < 1000:
        n = int(rng.integers(0, 4096))
        alphabet = int(rng.integers(1, 257))
        cases.append(rng.integers(0, alphabet, n, dtype=np.uint8).tobytes())
    for data in cases:
        wire = segment_to_bytes(data)
        assert len(wire) <= len(data) + 64, f"expanded {len(data)} -> {len(wire)}"
        assert segment_from_bytes(wire, len(data)) == data
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(f"entropy coder ({len(cases)} buffers round-trip, {elapsed:.1f}s)")


def test_criterion_metric_sanity():
    """Correlation endpoints, SSIM self-test, PSNR uniform-error formula."""
    band = np.random.default_rng(5).integers(30, 220, (64, 64)).astype(np.float64)
    assert correlation_coefficient(band, band) == pytest.approx(1.0, abs=1e-12)
    assert correlation_coefficient(band, -band + 250) == pytest.approx(-1.0, abs=1e-12)
    assert abs(ssim(band, band) - 1.0) <= 1e-12
    expected = 10 * math.log10(255**2)
    assert psnr(band, band + 1) == pytest.approx(expected, abs=1e-9)
    report("metric sanity (cc endpoints, ssim self-test, psnr formula)")
