"""Levenberg-Marquardt training of the band-prediction network.

One epoch builds the layer blocks of the Gauss-Newton normal equations J'J
and J'e on the training columns in closed form from the layer quantities,
never storing the (16 M) x 346 Jacobian J (Wilamowski & Yu, "Improved
Computation for Levenberg-Marquardt Training", IEEE TNN 21(6), 2010). The
first-layer block is a Khatri-Rao product whose input half, the pair
products of the fitted inputs, is built once per ``train`` call and reused
by every epoch; the tests check the blocks against an exact Jacobian. Each
damped step eliminates the linear output layer in closed form, as variable
projection does (Golub & Pereyra, SIAM J. Numer. Anal. 10(2), 1973), so it
factors an 11 x 11 and a 170 x 170 matrix with ``numpy.linalg``, never the
346 x 346 J'J. Damped steps are proposed with increasing damping until one
strictly reduces the training MSE. Every candidate is evaluated once, by
``mlp.layers``, and each epoch's normal equations are built from the
accepted step's own evaluation: its hidden layer and error. LM fits at most
``FIT_COLUMNS`` columns, drawn by a seeded shuffle: enough to place the hidden
layer, as the encoder then solves the output layer over every column
(``codec._fit_band``). The decoder runs that network on no unseen data, so no
columns are held out, and training returns its last accepted parameters.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from numbers import Integral
from typing import Literal

import numpy as np

from .errors import DimensionError, NumericError
from .mlp import N_HIDDEN, N_INPUT, N_OUTPUT, N_PARAMS, flatten, layers, unpack

StopReason = Literal["goal", "epochs", "time", "mu_overflow"]

# the trainlm defaults (Hagan & Menhaj): damping mu starts at 1e-3, is divided
# by 10 after an accepted step and multiplied by 10 after a rejected one, and
# stops training above 1e10. trainlm's validation split and patience guard a
# fitted output layer that the encoder replaces, so LM holds out no columns.
# It fits the first FIT_COLUMNS of a shuffle drawn right after the start: for
# a 256 x 256 band these are the columns trainlm's training slice began with,
# so streams keep their bytes, and a change to the draw order changes them all
MU_INIT = 1e-3
MU_SCALE = 10.0
MU_MAX = 1e10
FIT_COLUMNS = 768


@dataclass
class TrainConfig:
    mse_goal: float = 1e-4
    max_epochs: int = 12  # by default training's only bound; enough to place the hidden layer
    # a finite limit makes the stream depend on how fast the host runs
    max_seconds: float = math.inf
    init_range: tuple[float, float] = (-1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if not self.mse_goal > 0:
            raise ValueError("mse_goal must be positive")
        if not (isinstance(self.max_epochs, Integral) and isinstance(self.seed, Integral)):
            raise ValueError("max_epochs and seed must be integers")
        if not (self.max_epochs >= 0 and self.max_seconds >= 0 and self.seed >= 0):
            raise ValueError("max_epochs, max_seconds and seed must be non-negative")
        lo, hi = self.init_range
        if not (lo < hi and np.isfinite(hi - lo)):
            raise ValueError("init_range must be a non-empty interval of finite width")


@dataclass
class TrainReport:
    final_mse: float
    epochs_run: int
    stop_reason: StopReason
    train_mse_history: list[float] = field(default_factory=list)


# The Gram form numbers the parameters layer by layer, each neuron's bias
# after its weights: [w1 | b1] (10 x 17) then [w2 | b2] (16 x 11).
N_X1 = N_INPUT + 1
N_H1 = N_HIDDEN + 1
N_FIRST = N_HIDDEN * N_X1


def _pair_index(n: int) -> np.ndarray:
    """The n x n map from (i, j) to the position of pair min(i, j) <= max(i, j) in triu order."""
    rows, cols = np.triu_indices(n)
    index = np.empty((n, n), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    return index


def _pair_products(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row products a[i] * a[j] for i <= j, in triu order, into out (n(n+1)/2 x M for n x M)."""
    n = a.shape[0]
    row = 0
    for i in range(n):
        np.multiply(a[i], a[i:], out=out[row : row + n - i])
        row += n - i
    return out


# flat position in P Q' (55 x 153) of each (Z Z')[17u + v, 17u' + v']
_ZZ_GATHER = (
    _pair_index(N_HIDDEN)[:, None, :, None] * (N_X1 * (N_X1 + 1) // 2)
    + _pair_index(N_X1)[None, :, None, :]
).reshape(N_FIRST, N_FIRST)


def _buffers(inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x1, q, scratch), one ``train`` call's buffers for its 16 x M fitted inputs.

    x1 = [x; 1] (17 x M), and q (153 x M) holds the products x1[v] * x1[v'] for v <= v',
    the input half of the Gram form; ``normal_equations`` overwrites scratch (110 x M).
    All three are views of one block. x1 is column-major whatever the inputs' order,
    since OpenBLAS rounds ``normal_equations``' products with x1' differently for the
    two orders; q is built from a row-major copy, whose rows are contiguous.
    """
    m = inputs.shape[1]
    n_q = N_X1 * (N_X1 + 1) // 2
    rows = n_q + N_HIDDEN * N_H1
    block = np.empty((rows + N_X1) * m)
    q, scratch = np.split(block[: rows * m].reshape(rows, m), [n_q])
    rows_x1 = np.empty((N_X1, m))
    rows_x1[:N_INPUT] = inputs
    rows_x1[N_INPUT] = 1.0
    x1 = block[rows * m :].reshape(m, N_X1).T  # column-major
    x1[...] = rows_x1
    return x1, _pair_products(rows_x1, out=q), scratch


@dataclass(frozen=True)
class NormalEquations:
    """The layer blocks of J'J and J'e at one parameter point.

    With Z = dh (x) x1 (170 x M, row 17u + v = dh[u] * x1[v]):
    J'J = [[A, B], [B', I16 (x) g]], where A = zz * (W2'W2 (x) ones(17, 17))
    and B[17u + v, 11s + t] = w2[s, u] * c[17u + v, t]; J'e = [g1; g2].
    """

    w2: np.ndarray  # 16 x 10, the output weights the blocks were built at
    zz: np.ndarray  # 170 x 170, Z Z'
    c: np.ndarray   # 170 x 11, Z H~'
    g: np.ndarray   # 11 x 11, H~ H~'
    g1: np.ndarray  # 10 x 17, J'e for [w1 | b1]
    g2: np.ndarray  # 16 x 11, J'e for [w2 | b2]


def normal_equations(w2, x1, q, scratch, hidden, err) -> NormalEquations:
    """The blocks of J'J and J'e at one evaluated point, without forming J.

    ``hidden`` (h, 10 x M) and ``err`` (E = output - target, 16 x M) are
    the point's evaluation by ``mlp.layers`` on the inputs of x1 = [x; 1],
    and w2 are its output weights. With h~ = [h; 1] and dh = 1 - h^2:
    g = H~H~' and g2 = E H~'; c = Z H~' is the (dh (x) h~) rows times x1';
    g1 = ((W2'E) * dh) x1'. Z Z' is gathered from P Q', where P holds the
    55 products dh[u] * dh[u'] for u <= u' and Q = q, x1's pair products, so
    no 170 x M matrix is formed (Wilamowski & Yu, IEEE TNN 21(6), 2010).
    P is built in scratch (110 x M), and the (dh (x) h~) rows overwrite it
    once P Q' is taken.
    """
    m = x1.shape[1]
    if hidden.shape != (N_HIDDEN, m) or err.shape != (N_OUTPUT, m):
        raise DimensionError(f"hidden, error must be 10, 16 x {m}, got {hidden.shape}, {err.shape}")
    dh = 1.0 - hidden * hidden                                       # 10 x M
    h1 = np.vstack([hidden, np.ones((1, m))])                        # 11 x M

    pq = _pair_products(dh, out=scratch[: N_HIDDEN * N_H1 // 2]) @ q.T  # 55 x 153
    np.multiply(dh[:, None], h1[None], out=scratch.reshape(N_HIDDEN, N_H1, m))
    c = scratch @ x1.T                                               # 110 x 17, row 11u + t
    return NormalEquations(
        w2=w2,
        zz=pq.ravel()[_ZZ_GATHER],
        c=c.reshape(N_HIDDEN, N_H1, N_X1).transpose(0, 2, 1).reshape(N_FIRST, N_H1),
        g=h1 @ h1.T,
        g1=((w2.T @ err) * dh) @ x1.T,
        g2=err @ h1.T,
    )


def solve_step(eq: NormalEquations, mu: float) -> np.ndarray:
    """The damped step (J'J + mu I)^-1 J'e, in the flat parameter vector's order.

    The linear output layer's block I16 (x) (g + mu I) is eliminated in
    closed form. With K = (g + mu I)^-1 = (L L')^-1 by Cholesky, the first
    layer solves the 170 x 170 Schur complement
    S = (zz - c K c') * (W2'W2 (x) ones(17, 17)) + mu I against
    g1 - sum_s B_s K g2_s, and then each output row s is K (g2_s - B_s' d1).
    Raises NumericError if g + mu I is not SPD or the step is not finite.
    """
    damped = eq.g + mu * np.eye(N_H1)                                 # K^-1
    try:
        low = np.linalg.cholesky(damped)                              # L L' = K^-1
        w = np.linalg.solve(low, eq.c.T)                              # 11 x 170, w'w = c K c'
        reduced = (eq.zz - w.T @ w).reshape(N_HIDDEN, N_X1, N_HIDDEN, N_X1)
        schur = (reduced * (eq.w2.T @ eq.w2)[:, None, :, None]).reshape(N_FIRST, N_FIRST)
        schur.reshape(-1)[::N_FIRST + 1] += mu  # the diagonal of the contiguous 170 x 170 array
        # (sum_s B_s K g2_s)[17u + v] = sum_s w2[s, u] (c K g2')[17u + v, s]
        ckg2 = (eq.c @ np.linalg.solve(damped, eq.g2.T)).reshape(N_HIDDEN, N_X1, N_OUTPUT)
        rhs = eq.g1 - np.einsum("uvs,su->uv", ckg2, eq.w2)
        d1 = np.linalg.solve(schur, rhs.ravel()).reshape(N_HIDDEN, N_X1)
        # (B_s' d1)[t] = sum_u w2[s, u] sum_v d1[u, v] c[17u + v, t]
        back = eq.w2 @ np.einsum("uv,uvt->ut", d1, eq.c.reshape(N_HIDDEN, N_X1, N_H1))
        d2 = np.linalg.solve(damped, (eq.g2 - back).T).T
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"damped normal equations not SPD (mu={mu})") from exc
    step = flatten(d1[:, :N_INPUT], d1[:, N_INPUT], d2[:, :N_HIDDEN], d2[:, N_HIDDEN])
    if not np.all(np.isfinite(step)):
        raise NumericError(f"damped step is not finite (mu={mu})")
    return step


def train(inputs, target, cfg: TrainConfig) -> tuple[np.ndarray, TrainReport]:
    """Fit the network to map inputs to target, both 16 x M in [0, 1]."""
    inputs = np.asarray(inputs, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] != N_INPUT or inputs.shape != target.shape or not inputs.size:
        raise DimensionError(
            f"input/target must both be {N_INPUT} x M, M >= 1, got {inputs.shape} and {target.shape}"
        )

    rng = np.random.default_rng(cfg.seed)
    params = rng.uniform(*cfg.init_range, N_PARAMS)  # the start, drawn before the columns
    columns = rng.permutation(inputs.shape[1])[:FIT_COLUMNS]
    x_fit, t_fit = inputs[:, columns], target[:, columns]

    def evaluate(p: np.ndarray):
        """The hidden layer, error and MSE of p on LM's columns."""
        hidden, out = layers(p, x_fit)
        err = np.subtract(out, t_fit, out=out)
        return hidden, err, float(np.mean(err * err))

    buffers = _buffers(x_fit)
    start = time.monotonic()
    mu = MU_INIT
    hidden, err, train_mse = evaluate(params)
    history: list[float] = []
    stop: StopReason = "epochs"

    for _ in range(cfg.max_epochs):
        if time.monotonic() - start > cfg.max_seconds:
            stop = "time"
            break

        eq = normal_equations(unpack(params)[2], *buffers, hidden, err)

        accepted = False
        while not accepted:
            candidate = params - solve_step(eq, mu)
            cand_hidden, cand_err, cand_mse = evaluate(candidate)
            if cand_mse < train_mse:
                params, hidden, err, train_mse = candidate, cand_hidden, cand_err, cand_mse
                mu /= MU_SCALE
                accepted = True
            else:
                mu *= MU_SCALE
                if mu > MU_MAX:
                    stop = "mu_overflow"
                    break
        if not accepted:
            break

        history.append(train_mse)
        if train_mse <= cfg.mse_goal:
            stop = "goal"
            break

    report = TrainReport(
        final_mse=train_mse, epochs_run=len(history), stop_reason=stop, train_mse_history=history
    )
    return params, report
