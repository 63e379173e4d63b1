"""The scripts run end to end in fresh interpreters."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
