"""The exact Jacobian of the band-prediction network: the oracle for ``lm``'s Gram form.

Training never builds it; the tests check ``lm.normal_equations`` and
``lm.solve_step`` against it, and it against central finite differences.
"""

import numpy as np

from hsicodec.errors import DimensionError
from hsicodec.mlp import N_HIDDEN, N_INPUT, N_OUTPUT, N_PARAMS, unpack


def compute_jacobian(params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of the network outputs w.r.t. all 346 parameters.

    Row 16*c + r holds d output(r, c) / d theta, column p for params[p]: theta is
    the flat vector, w1 row-major, b1, w2 row-major, b2. Uses tanh'(z) = 1 - tanh(z)^2.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] != N_INPUT:
        raise DimensionError(f"input must be {N_INPUT} x M, got {inputs.shape}")
    m = inputs.shape[1]
    w1, b1, w2, _ = unpack(params)
    hidden = np.tanh(w1 @ inputs + b1[:, None])  # 10 x M
    dh = 1.0 - hidden * hidden                    # 10 x M

    # d y_r / d w1[u, v] = w2[r, u] * dh[u, c] * x[v, c]
    j_w1 = np.einsum("ru,uc,vc->cruv", w2, dh, inputs, optimize=True)
    # d y_r / d b1[u] = w2[r, u] * dh[u, c]
    j_b1 = np.einsum("ru,uc->cru", w2, dh)
    # d y_r / d w2[s, t] = (r == s) * hidden[t, c]
    j_w2 = np.zeros((m, N_OUTPUT, N_OUTPUT, N_HIDDEN))
    rows = np.arange(N_OUTPUT)
    j_w2[:, rows, rows, :] = hidden.T[:, None, :]
    # d y_r / d b2[s] = (r == s)
    j_b2 = np.broadcast_to(np.eye(N_OUTPUT), (m, N_OUTPUT, N_OUTPUT))

    jac = np.concatenate(
        [
            j_w1.reshape(m, N_OUTPUT, N_HIDDEN * N_INPUT),
            j_b1,
            j_w2.reshape(m, N_OUTPUT, N_OUTPUT * N_HIDDEN),
            j_b2,
        ],
        axis=2,
    )
    return jac.reshape(m * N_OUTPUT, N_PARAMS)
