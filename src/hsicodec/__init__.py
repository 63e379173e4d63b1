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

from .codec import Bitstream, EncoderConfig, bitrate, decode_cube, encode_cube_full
from .compensate import CompensationConfig
from .cube import HyperCube, load_cube, store_cube
from .lm import TrainConfig

__version__ = "0.1.0"
