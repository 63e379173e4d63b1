"""The 16-10-16 feed-forward network: parameters, forward pass, objective.

A network is one flat vector of its 346 parameters, in ``GROUPS`` order, as the
params record stores them; ``unpack`` gives its four groups as views.

The hidden layer uses the tangent sigmoid 2/(1+exp(-2x)) - 1, which is
exactly tanh and is evaluated as such (the libm tanh is exactly odd and
cannot overflow, unlike the literal exp form). The output layer is linear.
All arithmetic is double precision in a fixed order so that encoder-side
and decoder-side reconstructions agree bitwise.
"""

from __future__ import annotations

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


def unpack(params) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The views w1, b1, w2, b2 of ``params``; DimensionError unless it holds 346 finite values."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (N_PARAMS,) or not np.all(np.isfinite(params)):
        raise DimensionError(f"parameters must be {N_PARAMS} finite values, got shape {params.shape}")
    return tuple(params[start:end].reshape(shape) for (start, end), shape in zip(GROUPS, SHAPES))


def layers(params: np.ndarray, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the network on a 16 x M column batch: the hidden layer (10 x M) and output (16 x M).

    Order is fixed: matrix product, bias add, elementwise transfer, each
    layer in the product's own buffer. The same order on both codec sides
    is what makes the closed loop bit-exact.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] != N_INPUT:
        raise DimensionError(f"input must be {N_INPUT} x M, got {inputs.shape}")
    w1, b1, w2, b2 = unpack(params)
    hidden = w1 @ inputs
    hidden += b1[:, None]
    np.tanh(hidden, out=hidden)
    out = w2 @ hidden
    out += b2[:, None]
    return hidden, out


def forward(params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """The network's output (16 x M) on a 16 x M column batch."""
    return layers(params, inputs)[1]


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))
