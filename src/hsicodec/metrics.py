"""Rate-distortion evaluation: correlation, PSNR, SSIM, sweep tables.

SSIM uses the standard configuration (11x11 Gaussian window, sigma 1.5,
K1 = 0.01, K2 = 0.03) over valid windows only, so a smaller band has none.
PSNR's peak and SSIM's dynamic range default to 255, the 8-bit domain the
per-band quality numbers are quoted in; ``band_records`` passes its peak to both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .codec import EncoderConfig, bitrate, encode_cube_full
from .cube import HyperCube
from .errors import DimensionError, UndefinedCorrelationError
from .mlp import mse

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_RANGE = 255.0  # the default dynamic range


@dataclass
class MetricsRecord:
    mse: float
    psnr_db: float
    ssim: float | None  # None on a band smaller than the SSIM window


def correlation_coefficient(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation over all pixels of two equally shaped bands."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        raise UndefinedCorrelationError("correlation undefined for constant bands")
    return float(np.corrcoef(a.ravel(), b.ravel())[0, 1])


def psnr_db(err: float, peak: int = 255) -> float:
    """10 log10(peak^2 / err) in dB for a mean squared error ``err``, +inf for 0."""
    if peak <= 0:
        raise ValueError("peak must be positive")
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / err)


def psnr(ref: np.ndarray, test: np.ndarray, peak: int = 255) -> float:
    """10 log10(peak^2 / MSE) in dB, +inf for identical bands."""
    return psnr_db(mse(ref, test), peak)


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian; the 2-D window is its outer product with itself."""
    half = (size - 1) / 2
    coords = np.arange(size) - half
    g = np.exp(-(coords * coords) / (2.0 * sigma * sigma))
    return g / g.sum()


def _window_means(img: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Valid-mode weighted window means, filtering rows then columns by ``g``."""
    view = np.lib.stride_tricks.sliding_window_view
    return view(view(img, g.size, axis=0) @ g, g.size, axis=1) @ g


def ssim(ref: np.ndarray, test: np.ndarray, peak: float = SSIM_RANGE) -> float:
    """Mean structural similarity over valid 11x11 Gaussian windows, for dynamic range ``peak``."""
    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if ref.shape != test.shape:
        raise DimensionError(f"shape mismatch {ref.shape} vs {test.shape}")
    if min(ref.shape) < SSIM_WINDOW:
        raise DimensionError(
            f"band {ref.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )
    g = _gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)
    c1 = (SSIM_K1 * peak) ** 2
    c2 = (SSIM_K2 * peak) ** 2

    mu_x = _window_means(ref, g)
    mu_y = _window_means(test, g)
    var_x = _window_means(ref * ref, g) - mu_x * mu_x
    var_y = _window_means(test * test, g) - mu_y * mu_y
    cov = _window_means(ref * test, g) - mu_x * mu_y

    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


def band_records(ref_bands, test_bands, peak: int = 255) -> list[MetricsRecord]:
    """Per-band MSE, PSNR and SSIM (None on a band under its window) of test against ref, for peak ``peak``."""
    if len(ref_bands) != len(test_bands):
        raise DimensionError(
            f"band count mismatch: {len(ref_bands)} reference vs {len(test_bands)} test"
        )
    records = []
    for ref, test in zip(ref_bands, test_bands):
        err = mse(ref, test)
        s = ssim(ref, test, peak) if min(np.shape(ref)) >= SSIM_WINDOW else None
        records.append(MetricsRecord(mse=err, psnr_db=psnr_db(err, peak), ssim=s))
    return records


@dataclass
class RdPoint:
    lam: float
    bpppb: float
    mean_psnr_db: float
    mean_ssim: float | None  # None on bands smaller than the SSIM window


def rd_points(cube: HyperCube, lambda_sweep, cfg: EncoderConfig) -> list[RdPoint]:
    """Encode once per tolerance value and measure rate and mean quality.

    Quality is averaged over the predicted bands; the first band is stored
    losslessly, so including it would pin every mean at +inf.
    """
    if not lambda_sweep:
        raise ValueError("lambda sweep must be non-empty")
    points = []
    for lam in lambda_sweep:
        run_cfg = replace(cfg, compensation=replace(cfg.compensation, lam=float(lam)))
        result = encode_cube_full(cube, run_cfg)
        records = band_records(result.resized_bands[1:], result.recon_bands[1:])
        ssims = [r.ssim for r in records]
        points.append(
            RdPoint(
                lam=float(lam),
                bpppb=bitrate(result.bitstream),
                mean_psnr_db=float(np.mean([r.psnr_db for r in records])) if records else math.inf,
                mean_ssim=None if None in ssims else float(np.mean(ssims)) if ssims else 1.0,
            )
        )
    points.sort(key=lambda p: p.bpppb)
    return points


def csv_number(value: float | None) -> str:
    """``value`` at 6 significant digits, or an empty field for None."""
    return "" if value is None else f"{value:.6g}"


def rd_csv(points: list[RdPoint]) -> str:
    """CSV table: lambda,bpppb,mean_psnr_db,mean_ssim at 6 significant digits."""
    lines = ["lambda,bpppb,mean_psnr_db,mean_ssim"]
    for p in points:
        lines.append(f"{p.lam:.6g},{p.bpppb:.6g},{p.mean_psnr_db:.6g},{csv_number(p.mean_ssim)}")
    return "\n".join(lines) + "\n"
