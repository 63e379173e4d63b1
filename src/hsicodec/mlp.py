"""The 16-10-16 feed-forward network: parameters, forward pass, objective.

The hidden layer uses the tangent sigmoid 2/(1+exp(-2x)) - 1, which is
exactly tanh and is evaluated as such (the libm tanh is exactly odd and
cannot overflow, unlike the literal exp form). The output layer is linear.
All arithmetic is double precision in a fixed order so that encoder-side
and decoder-side reconstructions agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, pairwise
from math import prod

import numpy as np

from .errors import DimensionError

N_INPUT = 16
N_HIDDEN = 10
N_OUTPUT = 16

# the four parameter groups w1, b1, w2, b2: their shapes, and the (start, end)
# of each in the flat vector, which holds them in this order, matrices row-major
SHAPES = ((N_HIDDEN, N_INPUT), (N_HIDDEN,), (N_OUTPUT, N_HIDDEN), (N_OUTPUT,))
GROUPS = list(pairwise(accumulate((prod(s) for s in SHAPES), initial=0)))
N_PARAMS = GROUPS[-1][1]


def flatten(w1, b1, w2, b2) -> np.ndarray:
    """The flat parameter vector (length 346) of four arrays shaped as ``SHAPES``."""
    return np.concatenate([np.ravel(w1), b1, np.ravel(w2), b2])


@dataclass
class MlpParams:
    w1: np.ndarray  # 10 x 16, input -> hidden
    b1: np.ndarray  # 10
    w2: np.ndarray  # 16 x 10, hidden -> output
    b2: np.ndarray  # 16

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        shapes = (self.w1.shape, self.b1.shape, self.w2.shape, self.b2.shape)
        if shapes != SHAPES:
            raise DimensionError(f"parameter shapes {shapes}, expected {SHAPES}")
        if not all(np.all(np.isfinite(a)) for a in (self.w1, self.b1, self.w2, self.b2)):
            raise DimensionError("parameters must be finite")

    def to_vector(self) -> np.ndarray:
        """Flatten as w1 row-major, b1, w2 row-major, b2 (length 346)."""
        return flatten(self.w1, self.b1, self.w2, self.b2)

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "MlpParams":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (N_PARAMS,):
            raise DimensionError(f"parameter vector must have length {N_PARAMS}")
        return cls(*(vec[start:end].reshape(shape) for (start, end), shape in zip(GROUPS, SHAPES)))


def tansig(x):
    """Hidden-layer transfer function: 2/(1+exp(-2x)) - 1 == tanh(x)."""
    return np.tanh(x)


def layers(params: MlpParams, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the network on a 16 x M column batch: the hidden layer (10 x M) and output (16 x M).

    Order is fixed: matrix product, bias add, elementwise transfer. The
    same order on both codec sides is what makes the closed loop bit-exact.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] != N_INPUT:
        raise DimensionError(f"input must be {N_INPUT} x M, got {inputs.shape}")
    hidden = tansig(params.w1 @ inputs + params.b1[:, None])
    return hidden, params.w2 @ hidden + params.b2[:, None]


def forward(params: MlpParams, inputs: np.ndarray) -> np.ndarray:
    """The network's output (16 x M) on a 16 x M column batch."""
    return layers(params, inputs)[1]


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))
