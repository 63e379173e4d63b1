"""``import hsicodec`` pins one BLAS thread unless the caller chose a count, and loads no scipy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_fresh(code: str, **preset) -> str:
    """Stdout of ``code`` in a fresh interpreter that sees only the thread variables in ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def thread_env_after_import(**preset) -> dict:
    """The thread variables a fresh interpreter sees after ``import hsicodec``."""
    code = f"import os, hsicodec; print(*(os.environ.get(v) for v in {THREAD_VARS!r}))"
    return dict(zip(THREAD_VARS, run_fresh(code, **preset).split()))


def test_import_pins_one_blas_thread():
    assert thread_env_after_import() == dict.fromkeys(THREAD_VARS, "1")


def test_caller_thread_count_wins():
    env = thread_env_after_import(OPENBLAS_NUM_THREADS="2")
    assert env == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def test_import_loads_no_scipy():
    code = (
        "import sys, hsicodec, hsicodec.cli, hsicodec.metrics; "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert run_fresh(code).split() == []
