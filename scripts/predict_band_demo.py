#!/usr/bin/env python3
"""Train the band predictor on one band pair and report fit quality.

Shows the training trace (epochs, MSE, stop reason) and the quality of the
prediction before and after parameter quantization, which is the loss the
codec actually ships. The trace and the 8-bit prediction come from the
codec's own encode of the band pair with compensation off.

Usage: python scripts/predict_band_demo.py cube.raw --band 0 --seed 1
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hsicodec import (
    CompensationConfig,
    EncoderConfig,
    HyperCube,
    TrainConfig,
    band_to_blocks,
    blocks_to_band,
    denormalize_band,
    encode_cube_full,
    forward,
    load_cube,
    normalize_band,
    resize_band,
)
from hsicodec.lm import train
from hsicodec.metrics import psnr, ssim


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

    pair = HyperCube(data=cube.data[args.band : args.band + 2])
    if not resize_band(pair.band(0)).any():
        # the encoder excludes a leading all-zero band, so there is no pair to predict
        parser.error(f"band {args.band} is all zero after resizing; pick a band with content")

    cfg = TrainConfig(mse_goal=args.mse_goal, max_epochs=args.max_epochs, seed=args.seed)
    t0 = time.monotonic()
    result = encode_cube_full(
        pair, EncoderConfig(train=cfg, compensation=CompensationConfig(enabled=False))
    )
    elapsed = time.monotonic() - t0
    report = result.train_reports[0]
    print(f"trained {report.epochs_run} epochs in {elapsed:.1f}s, "
          f"stop={report.stop_reason}, train MSE {report.final_mse:.3e}")

    # the float line retrains on the same columns: training is deterministic
    src, tgt = result.resized_bands.astype(np.int64)
    tgt_values, tgt_min, tgt_max = normalize_band(tgt)
    x = band_to_blocks(normalize_band(src)[0])
    params, _ = train(x, band_to_blocks(tgt_values), cfg)
    exact = denormalize_band(blocks_to_band(forward(params, x), tgt.shape), tgt_min, tgt_max)
    shipped = result.recon_bands[1]  # with compensation off, the params-only prediction
    print(f"float params : psnr {psnr(tgt, exact):6.2f} dB  ssim {ssim(tgt, exact):.4f}")
    print(f"8-bit params : psnr {psnr(tgt, shipped):6.2f} dB  ssim {ssim(tgt, shipped):.4f}")


if __name__ == "__main__":
    main()
