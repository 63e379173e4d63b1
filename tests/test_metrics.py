import math

import numpy as np
import pytest

from hsicodec.codec import EncoderConfig
from hsicodec.compensate import CompensationConfig
from hsicodec.cube import HyperCube
from hsicodec.errors import DimensionError, UndefinedCorrelationError
from hsicodec.lm import TrainConfig
from hsicodec.metrics import (
    SSIM_K1,
    SSIM_K2,
    SSIM_RANGE,
    SSIM_SIGMA,
    SSIM_WINDOW,
    _gaussian_kernel,
    band_records,
    correlation_coefficient,
    psnr,
    rd_csv,
    rd_points,
    ssim,
)


def mid_range_band(seed=0, size=64):
    return np.random.default_rng(seed).integers(60, 190, (size, size)).astype(np.float64)


def test_cc_self_is_one():
    a = mid_range_band(1)
    assert correlation_coefficient(a, a) == pytest.approx(1.0, abs=1e-12)


def test_cc_anti_is_minus_one():
    a = mid_range_band(2)
    assert correlation_coefficient(a, -a + 300) == pytest.approx(-1.0, abs=1e-12)


def test_cc_affine_invariance():
    a = mid_range_band(3)
    assert correlation_coefficient(a, 2 * a + 3) == pytest.approx(1.0, abs=1e-12)
    b = mid_range_band(4)
    r = correlation_coefficient(a, b)
    assert correlation_coefficient(a, 5 * b + 11) == pytest.approx(r, abs=1e-12)
    assert correlation_coefficient(b, a) == pytest.approx(r, abs=1e-12)


def test_cc_constant_band_undefined():
    a = mid_range_band(5)
    with pytest.raises(UndefinedCorrelationError):
        correlation_coefficient(np.full_like(a, 9), np.full_like(a, 9))
    with pytest.raises(UndefinedCorrelationError):
        correlation_coefficient(a, np.full_like(a, 9))


def test_psnr_identical_is_infinite():
    a = mid_range_band(6)
    assert psnr(a, a) == math.inf


def test_psnr_uniform_error_of_one():
    a = mid_range_band(7)
    expected = 10 * math.log10(255**2)
    assert psnr(a, a + 1) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(48.1308, abs=1e-3)


def test_psnr_worst_case_zero_db():
    a = np.full((8, 8), 255.0)
    assert psnr(a, np.zeros((8, 8))) == pytest.approx(0.0, abs=1e-12)


def test_psnr_decreases_with_error():
    a = mid_range_band(8)
    values = [psnr(a, a + delta) for delta in (1, 2, 5, 10)]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_ssim_identical_is_one():
    a = mid_range_band(9)
    assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)


def test_ssim_symmetric():
    a = mid_range_band(10)
    b = a + np.random.default_rng(11).normal(0, 5, a.shape)
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


def test_ssim_uniform_shift_degrades_luminance_only():
    a = mid_range_band(12)
    value = ssim(a, a + 25)
    assert 0.5 < value < 1.0


def test_ssim_constant_bands_closed_form():
    mu1, mu2 = 80.0, 120.0
    a = np.full((32, 32), mu1)
    b = np.full((32, 32), mu2)
    c1 = (SSIM_K1 * SSIM_RANGE) ** 2
    expected = (2 * mu1 * mu2 + c1) / (mu1**2 + mu2**2 + c1)
    assert ssim(a, b) == pytest.approx(expected, abs=1e-12)


def ssim_oracle(a, b):
    """Mean SSIM over every valid window, each summed in full by the 2-D window."""
    g = _gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)
    kernel = np.outer(g, g)
    c1 = (SSIM_K1 * SSIM_RANGE) ** 2
    c2 = (SSIM_K2 * SSIM_RANGE) ** 2
    vals = []
    half = SSIM_WINDOW
    for i in range(a.shape[0] - half + 1):
        for j in range(a.shape[1] - half + 1):
            wa = a[i : i + half, j : j + half]
            wb = b[i : i + half, j : j + half]
            mx = float((kernel * wa).sum())
            my = float((kernel * wb).sum())
            vx = float((kernel * wa * wa).sum()) - mx * mx
            vy = float((kernel * wb * wb).sum()) - my * my
            cov = float((kernel * wa * wb).sum()) - mx * my
            vals.append(
                ((2 * mx * my + c1) * (2 * cov + c2))
                / ((mx * mx + my * my + c1) * (vx + vy + c2))
            )
    return float(np.mean(vals))


def test_ssim_window_by_window_oracle():
    rng = np.random.default_rng(13)
    # a non-square band fails if either axis filters with the wrong window length
    for shape in ((24, 24), (24, 31)):
        a = rng.integers(40, 210, shape).astype(np.float64)
        b = a + rng.normal(0, 8, a.shape)
        assert ssim(a, b) == pytest.approx(ssim_oracle(a, b), abs=1e-12), shape


def test_ssim_band_smaller_than_window():
    with pytest.raises(DimensionError):
        ssim(np.zeros((8, 8)), np.zeros((8, 8)))


def test_ssim_follows_the_peak():
    # a low-contrast pair, where the stabilizing constants weigh in
    rng = np.random.default_rng(4)
    a = 100 + rng.integers(0, 4, (64, 64)).astype(np.float64)
    b = a + rng.normal(0, 1, a.shape)
    default = ssim(a, b)
    assert ssim(a, b, peak=255) == default
    assert ssim(256 * a, 256 * b, peak=255 * 256) == pytest.approx(default, abs=1e-12)
    # with the 8-bit range the 16-bit pair reads as far less similar
    assert default - ssim(256 * a, 256 * b) > 0.1
    (scaled,) = band_records([256 * a], [256 * b], peak=255 * 256)
    assert scaled.ssim == pytest.approx(default, abs=1e-12)
    assert band_records([a], [b])[0].ssim == default


def test_band_records_structure():
    ref = [mid_range_band(k, 32) for k in range(3)]
    test = [band + 1 for band in ref]
    records = band_records(ref, test)
    assert len(records) == 3
    assert all(r.mse == pytest.approx(1.0) for r in records)
    assert [r.psnr_db for r in records] == [psnr(a, b) for a, b in zip(ref, test)]


def smooth_cube(bands=3, size=64):
    i, j = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    base = 110 + 70 * np.sin(i / 8.0) * np.cos(j / 9.0)
    stack = [np.round(base * (1 + 0.05 * b)).astype(np.int16) for b in range(bands)]
    return HyperCube(data=np.stack(stack))


def rd_cfg(enabled=True):
    return EncoderConfig(
        train=TrainConfig(max_epochs=2, seed=1),
        compensation=CompensationConfig(enabled=enabled),
    )


def test_rd_sweep_lossless_endpoint_and_monotonicity():
    cube = smooth_cube()
    points = rd_points(cube, [0.0, 0.02, 0.1], rd_cfg())
    by_lam = {p.lam: p for p in points}
    assert by_lam[0.0].mean_psnr_db == math.inf
    assert by_lam[0.0].bpppb == max(p.bpppb for p in points)
    lams = [0.0, 0.02, 0.1]
    rates = [by_lam[l].bpppb for l in lams]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    psnrs = [by_lam[l].mean_psnr_db for l in lams]
    assert all(a >= b for a, b in zip(psnrs, psnrs[1:]))


def test_rd_sweep_params_only_endpoint():
    cube = smooth_cube()
    points = rd_points(cube, [0.0], rd_cfg(enabled=False))
    assert len(points) == 1
    # params-only is the rate floor: no offset segments at all
    with_offsets = rd_points(cube, [0.1], rd_cfg(enabled=True))
    assert points[0].bpppb < with_offsets[0].bpppb


def test_rd_csv_format():
    cube = smooth_cube(bands=2)
    points = rd_points(cube, [0.05], rd_cfg())
    text = rd_csv(points)
    lines = text.strip().split("\n")
    assert lines[0] == "lambda,bpppb,mean_psnr_db,mean_ssim"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.05
    assert float(fields[1]) > 0
