"""The scripts run end to end in fresh interpreters."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from hsicodec.cube import HyperCube, store_cube

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True, text=True, timeout=120, env=env,
    )


def test_make_cube_then_predict_band_demo(tmp_path):
    cube = tmp_path / "cube.raw"
    made = run_script("make_synthetic_cube.py", cube, "--bands", "2")
    assert made.returncode == 0, made.stderr
    assert cube.exists() and cube.with_suffix(".hdr").exists()

    demo = run_script("predict_band_demo.py", cube, "--max-epochs", "2")
    assert demo.returncode == 0, demo.stderr
    assert re.search(r"^trained 2 epochs", demo.stdout, re.M)
    for label in ("float params", "8-bit params"):
        assert re.search(rf"^{label} : psnr +\d+\.\d+ dB  ssim \d\.\d+$", demo.stdout, re.M), demo.stdout


def test_predict_band_demo_refuses_an_all_zero_input_band(tmp_path):
    # the encoder excludes a leading all-zero band, so the demo has no band pair to report
    cube = tmp_path / "cube.raw"
    data = np.zeros((2, 32, 32), np.int16)
    data[1] = np.arange(32 * 32).reshape(32, 32)
    store_cube(HyperCube(data=data), cube)
    demo = run_script("predict_band_demo.py", cube, "--max-epochs", "2")
    assert demo.returncode == 2
    assert "band 0 is all zero" in demo.stderr, demo.stderr
