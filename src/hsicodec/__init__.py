"""Inter-band predictive hyperspectral image codec.

Each spectral band is predicted from the previously reconstructed band by
a small trained network; only the quantized network parameters (and, for
near-lossless operation, sparse compensation offsets) are transmitted.

The package namespace holds the names the scripts and the benchmark use;
everything else is imported from its submodule.
"""

from .blocks import band_to_blocks, blocks_to_band
from .codec import Bitstream, EncoderConfig, bitrate, decode_cube, encode_cube_full
from .compensate import CompensationConfig
from .cube import HyperCube, denormalize_band, load_cube, normalize_band, resize_band, store_cube
from .lm import TrainConfig
from .mlp import forward

__version__ = "0.1.0"
