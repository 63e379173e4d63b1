"""Test-session setup.

LM's 170 x M and 346 x 346 products are too small to gain from BLAS
threads, and on a small machine a multi-threaded BLAS runs them several
times slower. Pin one thread for the suite unless the caller has chosen a
count. This must run before numpy is imported to take effect.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
