import numpy as np
import pytest

from hsicodec.blocks import band_to_blocks
from hsicodec.cube import normalize_band
from hsicodec.errors import DimensionError
from hsicodec import lm
from hsicodec.lm import (
    TrainConfig,
    band_moments,
    compute_jacobian,
    init_params,
    normal_equations,
    solve_step,
    train,
)
from hsicodec.mlp import MlpParams, N_PARAMS, forward, layers


def smooth_band(seed=0, size=256):
    rng = np.random.default_rng(seed)
    i, j = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    band = (
        120
        + 70 * np.sin(i / 19.0) * np.cos(j / 23.0)
        + 45 * np.sin((2 * i - j) / 31.0)
        + rng.normal(0, 0.5, (size, size))
    )
    return np.round(band).astype(np.int64)


def band_blocks(seed=0):
    return band_to_blocks(normalize_band(smooth_band(seed))[0])


def fd_jacobian(params, x, h=1e-6):
    vec = params.to_vector()
    cols = []
    for p in range(N_PARAMS):
        vp, vm = vec.copy(), vec.copy()
        vp[p] += h
        vm[p] -= h
        fp = forward(MlpParams.from_vector(vp), x).T.ravel()
        fm = forward(MlpParams.from_vector(vm), x).T.ravel()
        cols.append((fp - fm) / (2 * h))
    return np.stack(cols, axis=1)


def test_init_params_deterministic():
    cfg = TrainConfig(seed=11)
    a = init_params(cfg)
    b = init_params(cfg)
    assert np.array_equal(a.to_vector(), b.to_vector())


def test_init_params_seed_sensitivity():
    a = init_params(TrainConfig(seed=1))
    b = init_params(TrainConfig(seed=2))
    assert np.any(a.to_vector() != b.to_vector())


def test_init_params_range():
    # ~10^4 sampled entries stay inside the init interval
    vecs = np.concatenate(
        [init_params(TrainConfig(seed=s)).to_vector() for s in range(30)]
    )
    assert vecs.size >= 10000
    assert vecs.min() >= -1.0
    assert vecs.max() <= 1.0


def test_jacobian_b2_columns_are_indicators():
    params = init_params(TrainConfig(seed=4))
    x = np.random.default_rng(4).uniform(0, 1, (16, 3))
    jac = compute_jacobian(params, x)
    b2_block = jac[:, -16:]
    for c in range(3):
        assert np.array_equal(b2_block[16 * c : 16 * (c + 1)], np.eye(16))


def test_jacobian_zero_input_kills_w1_block():
    params = init_params(TrainConfig(seed=5))
    params = MlpParams(w1=params.w1, b1=np.zeros(10), w2=params.w2, b2=params.b2)
    jac = compute_jacobian(params, np.zeros((16, 2)))
    assert not jac[:, :160].any()


def test_jacobian_matches_finite_differences():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = MlpParams(
            w1=rng.uniform(-1, 1, (10, 16)),
            b1=rng.uniform(-1, 1, 10),
            w2=rng.uniform(-1, 1, (16, 10)),
            b2=rng.uniform(-1, 1, 16),
        )
        x = rng.uniform(0, 1, (16, 4))
        rel = np.abs(compute_jacobian(params, x) - fd_jacobian(params, x))
        rel /= np.maximum(np.abs(fd_jacobian(params, x)), 1.0)
        worst = max(worst, rel.max())
    assert worst <= 1e-5


def assemble_normal_equations(eq):
    """J'J and J'e in the order of ``MlpParams.to_vector``, from the layer blocks."""
    gram = eq.w2.T @ eq.w2
    a = (eq.zz.reshape(10, 17, 10, 17) * gram[:, None, :, None]).reshape(170, 170)
    b = (eq.w2.T[:, None, :, None] * eq.c.reshape(10, 17, 1, 11)).reshape(170, 176)
    jtj = np.block([[a, b], [b.T, np.kron(np.eye(16), eq.g)]])
    jte = np.concatenate([eq.g1.ravel(), eq.g2.ravel()])
    # the blocks number [w1 | b1] (10 x 17) then [w2 | b2] (16 x 11)
    first = np.arange(170).reshape(10, 17)
    second = 170 + np.arange(176).reshape(16, 11)
    order = np.concatenate(
        [first[:, :16].ravel(), first[:, 16], second[:, :10].ravel(), second[:, 10]]
    )
    return jtj[np.ix_(order, order)], jte[order]


def evaluated_normal_equations(params, x, target):
    """``normal_equations`` at params, evaluated on x by ``mlp.layers`` as ``train`` does."""
    hidden, out = layers(params, x)
    return normal_equations(params.w2, band_moments(x), hidden, out - target)


def lm_update(params, x, target, mu):
    """params - (J'J + mu I)^-1 J'e, built as ``train`` builds its step."""
    delta = solve_step(evaluated_normal_equations(params, x, target), mu)
    return MlpParams.from_vector(params.to_vector() - delta)


def assert_matches_jacobian_oracle(params, x, target):
    jac = compute_jacobian(params, x)
    e = (forward(params, x) - target).T.ravel()
    jtj, jte = assemble_normal_equations(evaluated_normal_equations(params, x, target))
    want_jtj, want_jte = jac.T @ jac, jac.T @ e
    assert np.linalg.norm(jtj - want_jtj) <= 1e-12 * np.linalg.norm(want_jtj)
    assert np.linalg.norm(jte - want_jte) <= 1e-12 * np.linalg.norm(want_jte)


@pytest.mark.parametrize("m", [1, 17, 2867])
@pytest.mark.parametrize("init", [0.3, 1.0, 3.0])  # 3.0 saturates tanh
def test_normal_equations_match_jacobian(m, init):
    params = init_params(TrainConfig(init_range=(-init, init), seed=m))
    rng = np.random.default_rng(m)
    x = rng.uniform(0, 1, (16, m))
    assert_matches_jacobian_oracle(params, x, rng.uniform(0, 1, (16, m)))


def test_normal_equations_zero_inputs():
    params = init_params(TrainConfig(seed=12))
    x = np.zeros((16, 5))
    assert_matches_jacobian_oracle(params, x, np.random.default_rng(12).uniform(0, 1, (16, 5)))


def test_normal_equations_reject_mismatched_error():
    params = init_params(TrainConfig(seed=13))
    x = np.random.default_rng(13).uniform(0, 1, (16, 5))
    hidden, out = layers(params, x)
    with pytest.raises(DimensionError):
        normal_equations(params.w2, band_moments(x), hidden, out[:, :4])


def test_train_never_builds_the_jacobian(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("training built the full Jacobian")

    monkeypatch.setattr(lm, "compute_jacobian", refuse)
    x = band_blocks(seed=7)[:, :512]
    cfg = TrainConfig(max_epochs=3, mse_goal=1e-12, seed=7)
    _, report = train(x, 0.6 * x + 0.1, cfg)
    assert report.epochs_run == 3


def test_train_evaluates_each_point_once(monkeypatch):
    # one evaluation of the training columns for the initial point and one per
    # mu try; the accepted try's evaluation builds the next normal equations
    x = band_blocks(seed=8)[:, :512]
    n_train = len(lm._split_columns(x.shape[1], np.random.default_rng(0))[0])
    counts = {"layers": 0, "solve_step": 0}

    def counted(name, fn):
        def wrapper(*args):
            if name == "solve_step" or args[1].shape[1] == n_train:
                counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(lm, "layers", counted("layers", lm.layers))
    monkeypatch.setattr(lm, "solve_step", counted("solve_step", lm.solve_step))
    _, report = train(x, 0.6 * x + 0.1, TrainConfig(max_epochs=6, mse_goal=1e-12, seed=8))
    assert report.epochs_run == 6
    assert counts["solve_step"] >= report.epochs_run
    assert counts["layers"] == counts["solve_step"] + 1


def test_lm_step_zero_residual_is_identity():
    params = init_params(TrainConfig(seed=6))
    x = np.random.default_rng(6).uniform(0, 1, (16, 5))
    target = forward(params, x)
    stepped = lm_update(params, x, target, mu=1e-3)
    assert np.allclose(stepped.to_vector(), params.to_vector(), atol=1e-12)


def test_lm_step_gradient_descent_limit():
    params = init_params(TrainConfig(seed=7))
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, (16, 6))
    target = rng.uniform(0, 1, (16, 6))
    mu = 1e12
    stepped = lm_update(params, x, target, mu)
    delta = params.to_vector() - stepped.to_vector()
    jac = compute_jacobian(params, x)
    e = (forward(params, x) - target).T.ravel()
    expected = jac.T @ e / mu
    assert np.linalg.norm(delta - expected) <= 1e-3 * np.linalg.norm(expected)


def test_lm_step_bias_only_closed_form():
    # all-zero params make the Jacobian vanish except the b2 identity block,
    # so for a single column the solve reduces to delta_b2 = e / (1 + mu)
    params = MlpParams(w1=np.zeros((10, 16)), b1=np.zeros(10),
                       w2=np.zeros((16, 10)), b2=np.zeros(16))
    x = np.random.default_rng(8).uniform(0, 1, (16, 1))
    target = np.random.default_rng(9).uniform(0, 1, (16, 1))
    mu = 0.5
    stepped = lm_update(params, x, target, mu)
    expected_b2 = target[:, 0] / (1 + mu)
    assert np.allclose(stepped.b2, expected_b2, atol=1e-12)
    assert np.allclose(stepped.w1, 0)
    assert np.allclose(stepped.b1, 0)


def test_lm_step_normal_equations_residual():
    params = init_params(TrainConfig(seed=10))
    rng = np.random.default_rng(10)
    x = rng.uniform(0, 1, (16, 8))
    target = rng.uniform(0, 1, (16, 8))
    mu = 1e-3
    stepped = lm_update(params, x, target, mu)
    delta = params.to_vector() - stepped.to_vector()
    jac = compute_jacobian(params, x)
    e = (forward(params, x) - target).T.ravel()
    jte = jac.T @ e
    lhs = (jac.T @ jac + mu * np.eye(N_PARAMS)) @ delta
    assert np.linalg.norm(lhs - jte) <= 1e-8 * np.linalg.norm(jte)


@pytest.mark.parametrize("m", [1, 17, 2867])
@pytest.mark.parametrize("init", [0.3, 1.0, 3.0])  # 3.0 saturates tanh
def test_lm_step_solves_damped_normal_equations(m, init):
    params = init_params(TrainConfig(init_range=(-init, init), seed=m))
    rng = np.random.default_rng(m)
    x = rng.uniform(0, 1, (16, m))
    target = rng.uniform(0, 1, (16, m))
    jac = compute_jacobian(params, x)
    jtj = jac.T @ jac
    jte = jac.T @ (forward(params, x) - target).T.ravel()
    eq = evaluated_normal_equations(params, x, target)
    for mu in (1e-3, 1.0, 1e4, 1e12):
        # the step is checked as solved, before params - delta rounds it away
        delta = solve_step(eq, mu)
        residual = (jtj + mu * np.eye(N_PARAMS)) @ delta - jte
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(jte), mu


def test_train_identity_map_reaches_goal():
    x = band_blocks(seed=1)
    cfg = TrainConfig(mse_goal=1e-4, max_epochs=100, seed=1)
    params, report = train(x, x, cfg)
    assert report.stop_reason == "goal"
    assert report.final_mse <= 1e-4


def test_train_affine_map_reaches_goal_quickly():
    x = band_blocks(seed=2)
    target = 0.3 * x + 0.1
    cfg = TrainConfig(mse_goal=1e-4, max_epochs=200, seed=2)
    params, report = train(x, target, cfg)
    assert report.stop_reason == "goal"
    assert report.final_mse <= 1e-4
    assert report.epochs_run <= 200


def test_train_zero_epochs_returns_initial_params():
    x = band_blocks(seed=3)[:, :64]
    cfg = TrainConfig(max_epochs=0, seed=3)
    params, report = train(x, 0.5 * x, cfg)
    assert report.stop_reason == "epochs"
    assert report.epochs_run == 0
    assert np.array_equal(params.to_vector(), init_params(cfg).to_vector())


def test_train_deterministic():
    x = band_blocks(seed=4)[:, :512]
    target = 0.4 * x + 0.2
    cfg = TrainConfig(max_epochs=5, seed=9)
    p1, r1 = train(x, target, cfg)
    p2, r2 = train(x, target, cfg)
    assert np.array_equal(p1.to_vector(), p2.to_vector())
    assert r1.train_mse_history == r2.train_mse_history


def test_train_accepted_mse_strictly_decreasing():
    x = band_blocks(seed=5)[:, :1024]
    target = 0.7 * x + 0.05
    cfg = TrainConfig(max_epochs=15, mse_goal=1e-12, seed=5)
    _, report = train(x, target, cfg)
    hist = report.train_mse_history
    assert len(hist) >= 2
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_train_time_limit():
    x = band_blocks(seed=6)
    cfg = TrainConfig(max_epochs=1000, max_seconds=0.0, mse_goal=1e-15, seed=6)
    _, report = train(x, 0.9 * x, cfg)
    assert report.stop_reason == "time"
    assert report.epochs_run == 0


def test_train_mu_overflow_on_exact_fit():
    # a target the initial network already fits exactly leaves no strictly
    # improving step, so the damping factor climbs until it caps out
    cfg = TrainConfig(mse_goal=1e-30, max_epochs=10, seed=3)
    x = np.random.default_rng(0).uniform(0, 1, (16, 64))
    target = forward(init_params(cfg), x)
    params, report = train(x, target, cfg)
    assert report.stop_reason == "mu_overflow"
    assert report.epochs_run == 0
    assert np.array_equal(params.to_vector(), init_params(cfg).to_vector())


def test_train_patience_stop_returns_best_validation():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (16, 40))
    target = rng.uniform(0, 1, (16, 40))  # noise: overfits the tiny split
    cfg = TrainConfig(mse_goal=1e-30, max_epochs=60, seed=1)
    params, report = train(x, target, cfg)
    assert report.stop_reason == "patience"
    assert len(report.validation_mse_history) == report.epochs_run
    # returned parameters are the ones from the best-validation epoch
    best_epoch = int(np.argmin(report.validation_mse_history))
    assert report.final_mse == report.train_mse_history[best_epoch]


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mse_goal=0.0)
    with pytest.raises(ValueError, match="mse_goal"):
        TrainConfig(mse_goal=float("nan"))
    with pytest.raises(ValueError, match="max_epochs"):
        TrainConfig(max_epochs=-1)
