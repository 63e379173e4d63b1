"""The cube generator: bit for bit its reference formula, and a CLI that refuses bad sizes.

The script runs end to end in fresh interpreters; ``make_cube`` is
imported in process (``conftest.py`` puts ``scripts/`` on the path).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from make_synthetic_cube import make_cube, smooth_field

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# cube 0 of each bench workload at its default seed, as bench/workloads.py pins it
BENCH_PINS = {
    (3, 256, 7000, 12.0): "777d83225b42b537f7309e322f5f91b38306560edbea4306115ed12c095f6c9d",
    (2, 256, 7000, 3.0): "bd908a07332404caa04ea2a097ce755d7b79591defa05df914574e156202fffd",
}


def reference_smooth_field(rng, size, n_bumps=12, scale=60.0):
    """The per-pixel formula the generator must reproduce bit for bit."""
    f = np.zeros((size, size))
    i, j = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    for _ in range(n_bumps):
        ci, cj = rng.uniform(0, size, 2)
        s = rng.uniform(scale * 0.5, scale * 1.5)
        f += rng.uniform(-1, 1) * np.exp(-((i - ci) ** 2 + (j - cj) ** 2) / (2 * s * s))
    return f


def reference_cube(bands, size, seed, texture):
    rng = np.random.default_rng(seed)
    base = reference_smooth_field(rng, size)
    first = np.clip(np.round(128 + 90 * base / max(np.abs(base).max(), 1e-9)), 0, 255)
    stack = [first.astype(np.int64)]
    for _ in range(bands - 1):
        beta = rng.uniform(-0.4, 0.4)
        u = stack[-1] / 255.0
        mapped = u + beta * u * (1.0 - u)
        rho = reference_smooth_field(rng, size, scale=40.0)
        rho = texture * rho / max(np.abs(rho).max(), 1e-9)
        stack.append(np.clip(np.round(255.0 * mapped + rho), 0, 255).astype(np.int64))
    return np.stack(stack).astype(np.int16)


def cube_digest(data) -> str:
    """The bench's digest: sha256 of the shape's repr, then the samples as little-endian int16."""
    h = hashlib.sha256(repr(data.shape).encode())
    h.update(data.astype("<i2").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("size, scale, seed", [
    (256, 60.0, 0), (256, 40.0, 7000), (50, 60.0, 3), (17, 40.0, 2), (1, 60.0, 5),
])
def test_smooth_field_is_the_reference_bit_for_bit(size, scale, seed):
    # the cubes are rounded to integers, so only the fields show a change of
    # one ulp, such as a reciprocal multiply or exp split per axis
    field = smooth_field(np.random.default_rng(seed), size, scale=scale)
    expected = reference_smooth_field(np.random.default_rng(seed), size, scale=scale)
    assert field.dtype == expected.dtype
    assert field.tobytes() == expected.tobytes()


@pytest.mark.parametrize("args", [
    *BENCH_PINS,
    (3, 256, 8001, 12.0),   # other bench cubes
    (2, 256, 9003, 3.0),
    (4, 50, 5, 3.0),        # a size that is not the bench's
    (3, 17, 2, 12.0),       # an odd size
    (1, 64, 11, 3.0),       # one band
    (3, 50, 3, 0),          # no texture
    (3, 32, 12, 1e6),       # texture large enough that clipping decides most pixels
], ids=str)
def test_make_cube_is_the_reference_bit_for_bit(args):
    cube = make_cube(*args)
    expected = reference_cube(*args)
    assert cube.data.dtype == np.int16
    assert cube.data.shape == expected.shape
    assert np.array_equal(cube.data, expected)
    if args in BENCH_PINS:
        assert cube_digest(cube.data) == BENCH_PINS[args]


@pytest.mark.parametrize("bands, size", [(0, 8), (-2, 8), (1, 0)])
def test_make_cube_refuses_an_empty_cube(bands, size):
    with pytest.raises(ValueError, match="bands >= 1 and size >= 1"):
        make_cube(bands, size, 0)


def run_script(name: str, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True, text=True, timeout=120, env=env,
    )


def test_make_synthetic_cube(tmp_path):
    cube = tmp_path / "cube.raw"
    made = run_script("make_synthetic_cube.py", cube, "--bands", "2")
    assert made.returncode == 0, made.stderr
    assert cube.exists() and cube.with_suffix(".hdr").exists()
    assert "adjacent-band CC" in made.stdout


def test_importing_the_generator_leaves_metrics_unloaded():
    # the bench imports make_cube inside its timed setup; only the script's CLI needs the metrics
    code = (
        f"import sys; sys.path.insert(0, {str(SCRIPTS)!r}); import make_synthetic_cube; "
        "print('hsicodec' in sys.modules, 'hsicodec.metrics' in sys.modules)"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False"]


def test_one_band_cube_prints_no_cc_summary(tmp_path):
    cube = tmp_path / "cube.raw"
    made = run_script("make_synthetic_cube.py", cube, "--bands", "1", "--size", "16")
    assert made.returncode == 0, made.stderr
    assert made.stdout.startswith(f"wrote {cube}: 1 bands of 16x16")
    assert "CC" not in made.stdout
    assert cube.stat().st_size == 16 * 16 * 2


@pytest.mark.parametrize("flag, value", [("--bands", 0), ("--bands", -2), ("--size", 0)])
def test_empty_cube_is_a_usage_error(tmp_path, flag, value):
    cube = tmp_path / "cube.raw"
    made = run_script("make_synthetic_cube.py", cube, flag, value)
    assert made.returncode == 2, made.stderr
    assert f"argument {flag}: must be at least 1" in made.stderr
    assert list(tmp_path.iterdir()) == []
