"""Levenberg-Marquardt training of the band-prediction network.

One epoch builds the layer blocks of the Gauss-Newton normal equations J'J
and J'e on the training columns in closed form from the layer quantities,
never storing the (16 M) x 346 Jacobian J (Wilamowski & Yu, "Improved
Computation for Levenberg-Marquardt Training", IEEE TNN 21(6), 2010). The
first-layer block is a Khatri-Rao product whose input half, the per-band
input moments, is built once per band and reused by every epoch. Each
damped step eliminates the linear output layer in closed form, as variable
projection does (Golub & Pereyra, SIAM J. Numer. Anal. 10(2), 1973), so it
factors an 11 x 11 and a 170 x 170 matrix, never the 346 x 346 J'J. Damped
steps are proposed with increasing damping until one strictly reduces the
training MSE. Every candidate is evaluated once, by ``mlp.layers``, and
each epoch's normal equations are built from the accepted step's own
evaluation: its hidden layer and error. Columns are split
train/validation/test by a seeded shuffle; early stopping watches
consecutive validation-MSE failures and the best-validation parameters are
what training returns (except when the MSE goal is hit, where the
goal-hitting parameters win).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular

from .errors import DimensionError, NumericError
from .mlp import (
    N_HIDDEN, N_INPUT, N_OUTPUT, N_PARAMS, MlpParams, flatten, forward, layers, mse, tansig,
)

StopReason = Literal["goal", "epochs", "time", "mu_overflow", "patience"]

# the trainlm defaults (Hagan & Menhaj): damping mu starts at 1e-3, is divided
# by 10 after an accepted step and multiplied by 10 after a rejected one, and
# stops training above 1e10; a 70/15/15 train/validation/test column split,
# and 6 consecutive validation failures stop training
MU_INIT = 1e-3
MU_SCALE = 10.0
MU_MAX = 1e10
VALIDATION_FRACTION = 0.15
TEST_FRACTION = 0.15
PATIENCE = 6


@dataclass
class TrainConfig:
    mse_goal: float = 1e-4
    max_epochs: int = 1000
    max_seconds: float = 1000.0
    init_range: tuple[float, float] = (-1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if not self.mse_goal > 0:
            raise ValueError("mse_goal must be positive")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")
        lo, hi = self.init_range
        if not lo < hi:
            raise ValueError("init_range must be a non-empty interval")


@dataclass
class TrainReport:
    final_mse: float
    epochs_run: int
    stop_reason: StopReason
    validation_mse_history: list[float] = field(default_factory=list)
    train_mse_history: list[float] = field(default_factory=list)


def _draw_params(rng: np.random.Generator, init_range) -> MlpParams:
    lo, hi = init_range
    return MlpParams(
        w1=rng.uniform(lo, hi, (N_HIDDEN, N_INPUT)),
        b1=rng.uniform(lo, hi, N_HIDDEN),
        w2=rng.uniform(lo, hi, (N_OUTPUT, N_HIDDEN)),
        b2=rng.uniform(lo, hi, N_OUTPUT),
    )


def init_params(cfg: TrainConfig) -> MlpParams:
    """Uniform random parameters in cfg.init_range, deterministic in cfg.seed."""
    return _draw_params(np.random.default_rng(cfg.seed), cfg.init_range)


def compute_jacobian(params: MlpParams, inputs: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of the network outputs w.r.t. all 346 parameters.

    Row 16*c + r holds d output(r, c) / d theta, with theta flattened as
    w1 row-major, b1, w2 row-major, b2. Uses tansig'(z) = 1 - tansig(z)^2.
    Training never builds it: this is the reference that the tests check
    ``normal_equations`` against.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] != N_INPUT:
        raise DimensionError(f"input must be {N_INPUT} x M, got {inputs.shape}")
    m = inputs.shape[1]
    hidden = tansig(params.w1 @ inputs + params.b1[:, None])   # 10 x M
    dh = 1.0 - hidden * hidden                                 # 10 x M

    # d y_r / d w1[u, v] = w2[r, u] * dh[u, c] * x[v, c]
    j_w1 = np.einsum("ru,uc,vc->cruv", params.w2, dh, inputs, optimize=True)
    # d y_r / d b1[u] = w2[r, u] * dh[u, c]
    j_b1 = np.einsum("ru,uc->cru", params.w2, dh)
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


def _pair_products(a: np.ndarray) -> np.ndarray:
    """Row products a[i] * a[j] for i <= j, in triu order: n(n+1)/2 x M for n x M."""
    n = a.shape[0]
    out = np.empty((n * (n + 1) // 2, a.shape[1]))
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


@dataclass(frozen=True)
class BandMoments:
    """The input side of the Gram form, fixed while one band trains.

    x1 = [x; 1] (17 x M), and q holds the 153 column-wise products
    x1[v] * x1[v'] for v <= v' (153 x M).
    """

    x1: np.ndarray
    q: np.ndarray


def band_moments(inputs) -> BandMoments:
    """Build the per-band input moments once; every epoch on these inputs reuses them."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] != N_INPUT:
        raise DimensionError(f"input must be {N_INPUT} x M, got {inputs.shape}")
    x1 = np.vstack([inputs, np.ones((1, inputs.shape[1]))])
    return BandMoments(x1=x1, q=_pair_products(x1))


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


def normal_equations(w2, moments: BandMoments, hidden, err) -> NormalEquations:
    """The blocks of J'J and J'e at one evaluated point, without forming J.

    ``hidden`` (h, 10 x M) and ``err`` (E = output - target, 16 x M) are
    the point's evaluation on the inputs of ``moments`` by ``mlp.layers``,
    and w2 are its output weights. With h~ = [h; 1] and dh = 1 - h^2:
    g = H~H~' and g2 = E H~'; c = Z H~' is the (dh (x) h~) rows times x1';
    g1 = ((W2'E) * dh) x1'. Z Z' is gathered from P Q', where P holds the
    55 products dh[u] * dh[u'] for u <= u' and Q = ``moments.q``, so no
    170 x M matrix is formed (Wilamowski & Yu, IEEE TNN 21(6), 2010).
    """
    x1 = moments.x1
    m = x1.shape[1]
    if hidden.shape != (N_HIDDEN, m) or err.shape != (N_OUTPUT, m):
        raise DimensionError(f"hidden, error must be 10, 16 x {m}, got {hidden.shape}, {err.shape}")
    dh = 1.0 - hidden * hidden                                       # 10 x M
    h1 = np.vstack([hidden, np.ones((1, m))])                        # 11 x M

    pq = _pair_products(dh) @ moments.q.T                            # 55 x 153
    c = (dh[:, None, :] * h1[None, :, :]).reshape(-1, m) @ x1.T      # 110 x 17, row 11u + t
    return NormalEquations(
        w2=w2,
        zz=pq.ravel()[_ZZ_GATHER],
        c=c.reshape(N_HIDDEN, N_H1, N_X1).transpose(0, 2, 1).reshape(N_FIRST, N_H1),
        g=h1 @ h1.T,
        g1=((w2.T @ err) * dh) @ x1.T,
        g2=err @ h1.T,
    )


def solve_step(eq: NormalEquations, mu: float) -> np.ndarray:
    """The damped step (J'J + mu I)^-1 J'e, in the order of ``MlpParams.to_vector``.

    The output layer is linear, so its block I16 (x) (g + mu I) is
    eliminated in closed form, as variable projection does (Golub & Pereyra,
    SIAM J. Numer. Anal. 10(2), 1973). With K = (g + mu I)^-1, the first
    layer solves the 170 x 170 Schur complement
    S = (zz - c K c') * (W2'W2 (x) ones(17, 17)) + mu I against
    g1 - sum_s B_s K g2_s, and then each output row s is K (g2_s - B_s' d1).
    """
    w2 = eq.w2
    try:
        out = cho_factor(eq.g + mu * np.eye(N_H1), lower=True)        # L L' = K^-1
        w = solve_triangular(out[0], eq.c.T, lower=True)              # 11 x 170, w'w = c K c'
        reduced = (eq.zz - w.T @ w).reshape(N_HIDDEN, N_X1, N_HIDDEN, N_X1)
        schur = (reduced * (w2.T @ w2)[:, None, :, None]).reshape(N_FIRST, N_FIRST)
        schur[np.diag_indices_from(schur)] += mu
        # (sum_s B_s K g2_s)[17u + v] = sum_s w2[s, u] (c K g2')[17u + v, s]
        ckg2 = (eq.c @ cho_solve(out, eq.g2.T)).reshape(N_HIDDEN, N_X1, N_OUTPUT)
        rhs = eq.g1 - np.einsum("uvs,su->uv", ckg2, w2)
        d1 = cho_solve(cho_factor(schur, lower=True), rhs.ravel()).reshape(N_HIDDEN, N_X1)
    except (LinAlgError, ValueError) as exc:
        raise NumericError(f"damped normal equations not SPD (mu={mu})") from exc
    # (B_s' d1)[t] = sum_u w2[s, u] sum_v d1[u, v] c[17u + v, t]
    back = w2 @ np.einsum("uv,uvt->ut", d1, eq.c.reshape(N_HIDDEN, N_X1, N_H1))
    d2 = cho_solve(out, (eq.g2 - back).T).T
    return flatten(d1[:, :N_INPUT], d1[:, N_INPUT], d2[:, :N_HIDDEN], d2[:, N_HIDDEN])


def _split_columns(m: int, rng: np.random.Generator):
    """Seeded shuffle of column indices into train / validation / test."""
    perm = rng.permutation(m)
    n_val = int(round(VALIDATION_FRACTION * m))
    n_test = int(round(TEST_FRACTION * m))
    n_train = m - n_val - n_test
    if n_train < 1:
        raise ValueError("split leaves no training columns")
    if n_val < 1:
        raise ValueError("split leaves no validation columns")
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


def train(inputs, target, cfg: TrainConfig) -> tuple[MlpParams, TrainReport]:
    """Fit the network to map inputs to target, both 16 x M in [0, 1]."""
    inputs = np.asarray(inputs, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if inputs.shape != target.shape or inputs.ndim != 2 or inputs.shape[0] != N_INPUT:
        raise DimensionError(
            f"input/target must both be {N_INPUT} x M, got {inputs.shape} and {target.shape}"
        )

    rng = np.random.default_rng(cfg.seed)
    params = _draw_params(rng, cfg.init_range)
    tr_idx, val_idx, _ = _split_columns(inputs.shape[1], rng)
    x_tr, t_tr = inputs[:, tr_idx], target[:, tr_idx]
    x_val, t_val = inputs[:, val_idx], target[:, val_idx]

    def evaluate(p: MlpParams):
        """The hidden layer, error and MSE of p on the training columns."""
        hidden, out = layers(p, x_tr)
        err = out - t_tr
        return hidden, err, float(np.mean(err * err))

    moments = band_moments(x_tr)
    start = time.monotonic()
    mu = MU_INIT
    hidden, err, train_mse = evaluate(params)
    best_params, best_train_mse = params, train_mse
    best_val = np.inf
    val_fail = 0
    val_hist: list[float] = []
    train_hist: list[float] = []
    epochs_run = 0
    stop: StopReason = "epochs"

    for _ in range(cfg.max_epochs):
        if time.monotonic() - start > cfg.max_seconds:
            stop = "time"
            break

        eq = normal_equations(params.w2, moments, hidden, err)

        accepted = False
        while not accepted:
            vec = params.to_vector() - solve_step(eq, mu)
            cand_mse = np.inf
            if np.all(np.isfinite(vec)):
                candidate = MlpParams.from_vector(vec)
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

        epochs_run += 1
        train_hist.append(train_mse)

        val_mse = mse(forward(params, x_val), t_val)
        val_hist.append(val_mse)
        if val_mse < best_val:
            best_val = val_mse
            best_params, best_train_mse = params, train_mse
            val_fail = 0
        else:
            val_fail += 1

        if train_mse <= cfg.mse_goal:
            # the caller asked for this fit: it wins over a better-validating epoch
            best_params, best_train_mse = params, train_mse
            stop = "goal"
            break
        if val_fail >= PATIENCE:
            stop = "patience"
            break

    report = TrainReport(
        final_mse=best_train_mse,
        epochs_run=epochs_run,
        stop_reason=stop,
        validation_mse_history=val_hist,
        train_mse_history=train_hist,
    )
    return best_params, report
