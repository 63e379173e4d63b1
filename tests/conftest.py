"""Test-session setup.

LM's small products and solves are too small to gain from BLAS threads,
and on a small machine a multi-threaded BLAS runs them several times
slower. ``import hsicodec`` pins one thread the same way, but the test
modules import numpy first, so the suite pins it here unless the caller
has chosen a count. This must run before numpy is imported to take effect.

``scripts/`` goes on ``sys.path`` so tests import the cube generator in
process, as the bench does.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
