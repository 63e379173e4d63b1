#!/usr/bin/env python3
"""Generate a synthetic hyperspectral cube for codec experiments.

Band 0 is a smooth random field; each later band is a smooth nonlinear
value map of its predecessor plus a little fresh smooth texture, which
mimics the strong band-to-band correlation of real reflectance data.

Usage: python scripts/make_synthetic_cube.py out.raw --bands 16 --seed 42
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hsicodec import HyperCube, store_cube


def smooth_field(rng, size, n_bumps=12, scale=60.0):
    """Sum of ``n_bumps`` random Gaussian bumps on a ``size`` x ``size`` grid.

    Bump by bump, each pixel adds a * exp(-((i - ci)**2 + (j - cj)**2) / (2 s s)).
    The squares are taken once per row and once per column, and the negated
    sum is formed as (-row) + (-column) by broadcasting, which is exact, so
    the field is bit for bit the per-pixel formula with far less work.
    """
    axis = np.arange(size)
    field = np.zeros((size, size))
    bump = np.empty((size, size))
    for _ in range(n_bumps):
        ci, cj = rng.uniform(0, size, 2)
        s = rng.uniform(scale * 0.5, scale * 1.5)
        amplitude = rng.uniform(-1, 1)
        # filling rows, then adding the column term, beats one np.add of both broadcasts
        np.copyto(bump, -((axis - ci) ** 2)[:, None])
        bump += -((axis - cj) ** 2)
        bump /= 2 * s * s
        np.exp(bump, out=bump)
        bump *= amplitude
        field += bump
    return field


def _peak(field):
    """max(|field|.max(), 1e-9), without an |field| temporary."""
    return max(field.max(), -field.min(), 1e-9)


def _round_into(level, out):
    """Round ``level`` in place, clip it to [0, 255] and cast it into ``out``."""
    np.round(level, out=level)
    np.clip(level, 0, 255, out=out, casting="unsafe")


def make_cube(bands, size, seed, texture=3.0):
    """A ``bands`` x ``size`` x ``size`` int16 cube, bit-stable per argument tuple.

    Raises ValueError when ``bands`` or ``size`` is below 1.
    """
    if bands < 1 or size < 1:
        raise ValueError(f"a cube needs bands >= 1 and size >= 1, got {bands} and {size}")
    rng = np.random.default_rng(seed)
    data = np.empty((bands, size, size), np.int16)
    # each operation below is the one of the formula in its comment, in
    # the same order, done in place
    base = smooth_field(rng, size)
    peak = _peak(base)
    base *= 90
    base /= peak
    base += 128
    _round_into(base, data[0])  # clip(round(128 + 90 * base / peak))
    for k in range(1, bands):
        beta = rng.uniform(-0.4, 0.4)
        u = data[k - 1] / 255.0
        mapped = beta * u
        mapped *= 1.0 - u
        mapped += u  # u + beta * u * (1 - u)
        rho = smooth_field(rng, size, scale=40.0)
        peak = _peak(rho)
        rho *= texture
        rho /= peak  # texture * rho / peak
        mapped *= 255.0
        mapped += rho
        _round_into(mapped, data[k])  # clip(round(255 * mapped + rho))
    return HyperCube(data=data)


def _at_least_one(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main():
    # imported here, so importing make_cube (as the benchmark does) leaves hsicodec.metrics unloaded
    from hsicodec.metrics import correlation_coefficient

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", help="output cube path (.raw)")
    parser.add_argument("--bands", type=_at_least_one, default=16)
    parser.add_argument("--size", type=_at_least_one, default=256)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--texture", type=float, default=3.0,
                        help="amplitude of the fresh per-band texture")
    args = parser.parse_args()

    cube = make_cube(args.bands, args.size, args.seed, args.texture)
    store_cube(cube, args.output)
    line = f"wrote {args.output}: {cube.bands} bands of {args.size}x{args.size}"
    if cube.bands > 1:
        ccs = [
            correlation_coefficient(cube.band(k), cube.band(k + 1))
            for k in range(cube.bands - 1)
        ]
        line += f", adjacent-band CC min {min(ccs):.4f} mean {np.mean(ccs):.4f}"
    print(line)


if __name__ == "__main__":
    main()
