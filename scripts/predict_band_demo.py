#!/usr/bin/env python3
"""Train the band predictor on one band pair and report fit quality.

Shows the training trace (epochs, MSE, stop reason) and the quality of the
prediction before and after parameter quantization, which is the loss the
codec actually ships.

Usage: python scripts/predict_band_demo.py cube.raw --band 0 --seed 1
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hsicodec import (
    TrainConfig,
    band_to_blocks,
    blocks_to_band,
    denormalize_band,
    forward,
    load_cube,
    normalize_band,
    resize_band,
)
from hsicodec.lm import train
from hsicodec.metrics import psnr, ssim
from hsicodec.quantize import dequantize_params, quantize_params


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("cube", help="input cube (.raw with .hdr sidecar)")
    parser.add_argument("--band", type=int, default=0,
                        help="input band index; band+1 is the target")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mse-goal", type=float, default=1e-4)
    parser.add_argument("--max-epochs", type=int, default=200)
    args = parser.parse_args()

    cube = load_cube(args.cube)
    if args.band + 1 >= cube.bands:
        parser.error(f"cube has {cube.bands} bands; need band+1 <= {cube.bands - 1}")

    src = resize_band(cube.band(args.band)).astype(np.int64)
    tgt = resize_band(cube.band(args.band + 1)).astype(np.int64)
    x = band_to_blocks(normalize_band(src)[0])
    tgt_values, tgt_min, tgt_max = normalize_band(tgt)
    t = band_to_blocks(tgt_values)

    cfg = TrainConfig(mse_goal=args.mse_goal, max_epochs=args.max_epochs, seed=args.seed)
    t0 = time.monotonic()
    params, report = train(x, t, cfg)
    elapsed = time.monotonic() - t0
    print(f"trained {report.epochs_run} epochs in {elapsed:.1f}s, "
          f"stop={report.stop_reason}, train MSE {report.final_mse:.3e}")

    def reconstruct(p):
        values = blocks_to_band(forward(p, x), tgt.shape)
        return denormalize_band(values, tgt_min, tgt_max)

    exact = reconstruct(params)
    shipped = reconstruct(dequantize_params(quantize_params(params, tgt_min, tgt_max))[0])
    print(f"float params : psnr {psnr(tgt, exact):6.2f} dB  ssim {ssim(tgt, exact):.4f}")
    print(f"8-bit params : psnr {psnr(tgt, shipped):6.2f} dB  ssim {ssim(tgt, shipped):.4f}")


if __name__ == "__main__":
    main()
