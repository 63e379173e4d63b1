"""Inter-band predictive hyperspectral image codec.

Each spectral band is predicted from the previously reconstructed band by
a small trained network; only the quantized network parameters (and, for
near-lossless operation, compensation offsets, sparse or as a dense
residual plane) are transmitted.

The package namespace holds the names the scripts and the benchmark use;
everything else is imported from its submodule.
"""

import os

# LM's 170 x 170 and 11 x 11 solves are too small to gain from BLAS threads,
# and on a small machine a multi-threaded BLAS runs them several times
# slower. Pin one thread unless the caller chose a count; this only takes
# effect if numpy has not been imported yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _keep_freed_heap() -> None:
    """Keep freed band buffers in glibc's heap unless the caller chose a malloc policy.

    By default glibc hands a freed buffer above its mmap threshold, and free
    heap above its trim threshold, back to the kernel, so the next band's
    arrays fault every page in again; keeping them made a 256 x 256
    lossless encode 13-15% faster. The values are the ceilings of glibc's own
    dynamic thresholds on 64-bit, where it settles after freeing one 32 MiB
    buffer, so a 1024 x 1024 band's 8 MiB arrays stay in the heap too. Both
    must be set: with the trim threshold alone, mmap stays at a static 128 KiB.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    caller_set = any(v in os.environ for v in (
        "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_"
    ))
    if not glibc or caller_set or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # a refusal (0) leaves glibc's default policy, which is only slower
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap()

from .codec import Bitstream, EncoderConfig, bitrate, decode_cube, encode_cube_full
from .compensate import CompensationConfig
from .cube import HyperCube, load_cube, store_cube
from .lm import TrainConfig

__version__ = "0.1.0"
