"""Levenberg-Marquardt training of the band-prediction network.

One epoch forms the Gauss-Newton normal equations J'J and J'e on the
training columns in closed form from the layer quantities, never storing
the (16 M) x 346 Jacobian J (Wilamowski & Yu, "Improved Computation for
Levenberg-Marquardt Training", IEEE TNN 21(6), 2010). Damped steps are
then proposed with increasing damping until one strictly reduces the
training MSE. Columns are split train/validation/test by a seeded shuffle;
early stopping watches consecutive validation-MSE failures and the
best-validation parameters are what training returns (except when the MSE
goal is hit, where the goal-hitting parameters win).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import DimensionError, NumericError
from .mlp import N_HIDDEN, N_INPUT, N_OUTPUT, N_PARAMS, MlpParams, forward, mse, tansig

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
        if self.mse_goal <= 0:
            raise ValueError("mse_goal must be positive")
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


def _gram_order() -> np.ndarray:
    """Index map from the Gram form's layer order to ``MlpParams.to_vector``.

    ``normal_equations`` numbers the parameters layer by layer with each
    neuron's bias after its weights, [w1 | b1] (10 x 17) then [w2 | b2]
    (16 x 11); flattening those indices the way ``to_vector`` flattens the
    parameters gives, for each vector position, its Gram-form index.
    """
    first = np.arange(N_HIDDEN * (N_INPUT + 1)).reshape(N_HIDDEN, N_INPUT + 1)
    second = first.size + np.arange(N_OUTPUT * (N_HIDDEN + 1)).reshape(N_OUTPUT, N_HIDDEN + 1)
    order = MlpParams(w1=first[:, :-1], b1=first[:, -1], w2=second[:, :-1], b2=second[:, -1])
    return order.to_vector().astype(np.intp)


_GRAM_ORDER = _gram_order()


def normal_equations(params: MlpParams, inputs, target) -> tuple[np.ndarray, np.ndarray]:
    """J'J and J'e for e = forward(params, inputs) - target, without forming J.

    With x~ = [x; 1], h~ = [h; 1], dh = 1 - h^2, Z = dh (x) x~ (170 x M, row
    17u + v = dh[u] * x~[v]) and E = output - target (16 x M):
    the first-layer block is (Z Z') * (W2'W2 (x) ones(17, 17)), the cross
    block is w2[s, u] * (Z H~')[(u, v), t], the second-layer block is
    I16 (x) H~H~', and J'e is ((W2'E) * dh) x~' and E H~'. Both come back in
    the order of ``MlpParams.to_vector``, matching ``compute_jacobian``.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] != N_INPUT or target.shape != inputs.shape:
        raise DimensionError(
            f"input/target must both be {N_INPUT} x M, got {inputs.shape} and {target.shape}"
        )
    m = inputs.shape[1]
    ones = np.ones((1, m))
    hidden = tansig(params.w1 @ inputs + params.b1[:, None])     # 10 x M
    err = params.w2 @ hidden + params.b2[:, None] - target       # 16 x M, as forward()
    dh = 1.0 - hidden * hidden                                   # 10 x M
    x1 = np.vstack([inputs, ones])                               # 17 x M
    h1 = np.vstack([hidden, ones])                               # 11 x M
    z = (dh[:, None, :] * x1[None, :, :]).reshape(-1, m)         # 170 x M

    n1 = z.shape[0]
    jtj = np.empty((N_PARAMS, N_PARAMS))
    gram = params.w2.T @ params.w2                               # 10 x 10
    jtj[:n1, :n1] = (z @ z.T) * np.kron(gram, np.ones((N_INPUT + 1, N_INPUT + 1)))
    zh = (z @ h1.T).reshape(N_HIDDEN, N_INPUT + 1, 1, N_HIDDEN + 1)
    cross = (params.w2.T[:, None, :, None] * zh).reshape(n1, -1)  # 170 x 176
    jtj[:n1, n1:] = cross
    jtj[n1:, :n1] = cross.T
    jtj[n1:, n1:] = np.kron(np.eye(N_OUTPUT), h1 @ h1.T)

    jte = np.concatenate([(((params.w2.T @ err) * dh) @ x1.T).ravel(), (err @ h1.T).ravel()])
    return jtj[np.ix_(_GRAM_ORDER, _GRAM_ORDER)], jte[_GRAM_ORDER]


def _solve_step(jtj: np.ndarray, jte: np.ndarray, mu: float) -> np.ndarray:
    damped = jtj.copy()
    damped[np.diag_indices_from(damped)] += mu
    try:
        return cho_solve(cho_factor(damped, lower=True), jte)
    except (LinAlgError, ValueError) as exc:
        raise NumericError(f"damped normal equations not SPD (mu={mu})") from exc


def lm_step(params: MlpParams, inputs, target, mu: float) -> MlpParams:
    """One damped Gauss-Newton update: params - (J'J + mu I)^-1 J' e."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    delta = _solve_step(*normal_equations(params, inputs, target), mu)
    return MlpParams.from_vector(params.to_vector() - delta)


def _split_columns(m: int, rng: np.random.Generator):
    """Seeded shuffle of column indices into train / validation / test."""
    perm = rng.permutation(m)
    n_val = int(round(VALIDATION_FRACTION * m))
    n_test = int(round(TEST_FRACTION * m))
    n_train = m - n_val - n_test
    if n_train < 1:
        raise ValueError("split leaves no training columns")
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
    has_val = val_idx.size > 0

    start = time.monotonic()
    mu = MU_INIT
    train_mse = mse(forward(params, x_tr), t_tr)
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

        jtj, jte = normal_equations(params, x_tr, t_tr)

        accepted = False
        while not accepted:
            delta = _solve_step(jtj, jte, mu)
            vec = params.to_vector() - delta
            if np.all(np.isfinite(vec)):
                candidate = MlpParams.from_vector(vec)
                cand_mse = mse(forward(candidate, x_tr), t_tr)
            else:
                cand_mse = np.inf
            if cand_mse < train_mse:
                params, train_mse = candidate, cand_mse
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

        if has_val:
            val_mse = mse(forward(params, x_val), t_val)
            val_hist.append(val_mse)
            if val_mse < best_val:
                best_val = val_mse
                best_params, best_train_mse = params, train_mse
                val_fail = 0
            else:
                val_fail += 1
        else:
            best_params, best_train_mse = params, train_mse

        if train_mse <= cfg.mse_goal:
            stop = "goal"
            break
        if has_val and val_fail >= PATIENCE:
            stop = "patience"
            break

    if stop == "goal":
        # The caller asked for this fit quality; hand back the params that
        # reached it even if an earlier epoch validated marginally better.
        final_params, final_mse = params, train_mse
    else:
        final_params, final_mse = best_params, best_train_mse

    report = TrainReport(
        final_mse=final_mse,
        epochs_run=epochs_run,
        stop_reason=stop,
        validation_mse_history=val_hist,
        train_mse_history=train_hist,
    )
    return final_params, report
