import dataclasses
import tracemalloc

import numpy as np
import pytest

from hsicodec.cube import normalize_band
from hsicodec.errors import DimensionError, NumericError
from hsicodec import lm
from hsicodec.lm import TrainConfig, normal_equations, solve_step, train
from hsicodec.mlp import N_PARAMS, SHAPES, flatten, forward, layers, mse, unpack

from jacobian_oracle import compute_jacobian
from test_blocks import block_columns
from test_mlp import random_params


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
    return block_columns(normalize_band(smooth_band(seed))[0])


def fd_jacobian(params, x, h=1e-6):
    cols = []
    for p in range(N_PARAMS):
        vp, vm = params.copy(), params.copy()
        vp[p] += h
        vm[p] -= h
        fp = forward(vp, x).T.ravel()
        fm = forward(vm, x).T.ravel()
        cols.append((fp - fm) / (2 * h))
    return np.stack(cols, axis=1)


def train_start(cfg):
    """The initial parameters ``train`` runs from under cfg, which it returns after zero epochs:
    what the test_init_params_* tests check."""
    x = np.random.default_rng(0).uniform(0, 1, (16, 20))
    return train(x, x, dataclasses.replace(cfg, max_epochs=0))[0]


def test_init_params_deterministic():
    cfg = TrainConfig(seed=11)
    a = train_start(cfg)
    b = train_start(cfg)
    assert np.array_equal(a, b)


def test_init_params_seed_sensitivity():
    a = train_start(TrainConfig(seed=1))
    b = train_start(TrainConfig(seed=2))
    assert np.any(a != b)


def test_init_params_range():
    # ~10^4 sampled entries stay inside the init interval
    vecs = np.concatenate(
        [train_start(TrainConfig(seed=s)) for s in range(30)]
    )
    assert vecs.size >= 10000
    assert vecs.min() >= -1.0
    assert vecs.max() <= 1.0


@pytest.mark.parametrize("seed", [0, 1, 11, 2**40])
@pytest.mark.parametrize("init", [0.3, 1.0, 3.0])
def test_init_params_is_the_grouped_draw(seed, init):
    # one draw of 346 is the four draws of w1, b1, w2, b2 in turn, and leaves the
    # generator where they did, so training's column shuffle sees the same stream
    cfg = TrainConfig(init_range=(-init, init), seed=seed)
    rng = np.random.default_rng(seed)
    grouped = [rng.uniform(-init, init, shape) for shape in SHAPES]
    params = train_start(cfg)
    assert params.shape == (N_PARAMS,)
    assert params.tobytes() == flatten(*grouped).tobytes()
    drawn = np.random.default_rng(seed)
    drawn.uniform(-init, init, N_PARAMS)
    assert np.array_equal(drawn.permutation(1000), rng.permutation(1000))


def test_jacobian_b2_columns_are_indicators():
    params = random_params(4)
    x = np.random.default_rng(4).uniform(0, 1, (16, 3))
    jac = compute_jacobian(params, x)
    b2_block = jac[:, -16:]
    for c in range(3):
        assert np.array_equal(b2_block[16 * c : 16 * (c + 1)], np.eye(16))


def test_jacobian_zero_input_kills_w1_block():
    params = random_params(5)
    unpack(params)[1][:] = 0.0  # b1
    jac = compute_jacobian(params, np.zeros((16, 2)))
    assert not jac[:, :160].any()


def test_jacobian_matches_finite_differences():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = rng.uniform(-1, 1, N_PARAMS)
        x = rng.uniform(0, 1, (16, 4))
        rel = np.abs(compute_jacobian(params, x) - fd_jacobian(params, x))
        rel /= np.maximum(np.abs(fd_jacobian(params, x)), 1.0)
        worst = max(worst, rel.max())
    assert worst <= 1e-5


def assemble_normal_equations(eq):
    """J'J and J'e in the flat parameter vector's order, from the layer blocks."""
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
    return normal_equations(unpack(params)[2], *lm._buffers(x), hidden, out - target)


def lm_update(params, x, target, mu):
    """params - (J'J + mu I)^-1 J'e, built as ``train`` builds its step."""
    return params - solve_step(evaluated_normal_equations(params, x, target), mu)


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
    params = random_params(m, init)
    rng = np.random.default_rng(m)
    x = rng.uniform(0, 1, (16, m))
    assert_matches_jacobian_oracle(params, x, rng.uniform(0, 1, (16, m)))


def test_normal_equations_zero_inputs():
    params = random_params(12)
    x = np.zeros((16, 5))
    assert_matches_jacobian_oracle(params, x, np.random.default_rng(12).uniform(0, 1, (16, 5)))


def test_normal_equations_reject_mismatched_error():
    params = random_params(13)
    x = np.random.default_rng(13).uniform(0, 1, (16, 5))
    hidden, out = layers(params, x)
    with pytest.raises(DimensionError):
        normal_equations(unpack(params)[2], *lm._buffers(x), hidden, out[:, :4])
    with pytest.raises(DimensionError):
        train(x[:15], x[:15], TrainConfig())


def test_normal_equations_do_not_depend_on_the_input_memory_order():
    # OpenBLAS rounds the products with x1' differently for a C- and an F-ordered
    # x1; ``train``'s buffers fix x1's order, so the caller's layout cannot reach the stream
    x = band_blocks(seed=3)[:, :2868]
    params = random_params(3)
    hidden, out = layers(params, x)
    err = out - (0.6 * x + 0.1)
    c_eq, f_eq = (
        normal_equations(unpack(params)[2], *lm._buffers(ordered), hidden, err)
        for ordered in (np.ascontiguousarray(x), np.asfortranarray(x))
    )
    for name, block in vars(c_eq).items():
        assert np.array_equal(block, getattr(f_eq, name)), name


def test_train_never_builds_the_jacobian():
    # a full band's 768 fitted columns make a 34 MB Jacobian; training's
    # own buffers for them peak near 3 MB
    x = band_blocks(seed=7)
    target = 0.6 * x + 0.1
    cfg = TrainConfig(max_epochs=3, mse_goal=1e-12, seed=7)
    tracemalloc.start()
    try:
        _, report = train(x, target, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.epochs_run == 3
    assert peak < 8 * 2**20, peak


def fit_columns(cfg, m):
    """LM's columns under cfg for m columns: a shuffle drawn right after the 346-value start."""
    rng = np.random.default_rng(cfg.seed)
    rng.uniform(*cfg.init_range, N_PARAMS)
    return rng.permutation(m)[: lm.FIT_COLUMNS]


@pytest.mark.parametrize("m", [300, 4096])
def test_train_fits_a_sample_of_a_full_band(m):
    # LM places the hidden layer on the first 768 of a band's shuffled columns, or on
    # all of them when there are fewer; a change to the draw order would change every stream
    assert lm.FIT_COLUMNS == 768
    x = band_blocks(seed=2)[:, :m]
    target = 0.5 * x + 0.1
    cfg = TrainConfig(max_epochs=3)
    params, report = train(x, target, cfg)
    fitted = fit_columns(cfg, m)
    assert fitted.size == min(m, 768)

    rng = np.random.default_rng(m)
    x_out, t_out = x.copy(), target.copy()
    unfitted = np.setdiff1d(np.arange(m), fitted)
    x_out[:, unfitted] = rng.uniform(0, 1, (16, unfitted.size))
    t_out[:, unfitted] = rng.uniform(0, 1, (16, unfitted.size))
    out_params, out_report = train(x_out, t_out, cfg)
    assert np.array_equal(out_params, params)
    assert out_report == report

    t_in = target.copy()
    t_in[:, fitted[0]] = 1.0 - t_in[:, fitted[0]]
    assert not np.array_equal(train(x, t_in, cfg)[0], params)


def test_train_evaluates_each_point_once(monkeypatch):
    # one evaluation of the training columns for the initial point and one per
    # mu try; the accepted try's evaluation builds the next normal equations
    x = band_blocks(seed=8)[:, :512]
    n_fit = min(x.shape[1], lm.FIT_COLUMNS)
    counts = {"layers": 0, "solve_step": 0}

    def counted(name, fn):
        def wrapper(*args):
            if name == "solve_step" or args[1].shape[1] == n_fit:
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
    params = random_params(6)
    x = np.random.default_rng(6).uniform(0, 1, (16, 5))
    target = forward(params, x)
    stepped = lm_update(params, x, target, mu=1e-3)
    assert np.allclose(stepped, params, atol=1e-12)


def test_lm_step_gradient_descent_limit():
    params = random_params(7)
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, (16, 6))
    target = rng.uniform(0, 1, (16, 6))
    mu = 1e12
    stepped = lm_update(params, x, target, mu)
    delta = params - stepped
    jac = compute_jacobian(params, x)
    e = (forward(params, x) - target).T.ravel()
    expected = jac.T @ e / mu
    assert np.linalg.norm(delta - expected) <= 1e-3 * np.linalg.norm(expected)


def test_lm_step_bias_only_closed_form():
    # all-zero params make the Jacobian vanish except the b2 identity block,
    # so for a single column the solve reduces to delta_b2 = e / (1 + mu)
    params = np.zeros(N_PARAMS)
    x = np.random.default_rng(8).uniform(0, 1, (16, 1))
    target = np.random.default_rng(9).uniform(0, 1, (16, 1))
    mu = 0.5
    w1, b1, w2, b2 = unpack(lm_update(params, x, target, mu))
    expected_b2 = target[:, 0] / (1 + mu)
    assert np.allclose(b2, expected_b2, atol=1e-12)
    assert np.allclose(w1, 0)
    assert np.allclose(b1, 0)
    assert np.allclose(w2, 0)


def test_lm_step_normal_equations_residual():
    params = random_params(10)
    rng = np.random.default_rng(10)
    x = rng.uniform(0, 1, (16, 8))
    target = rng.uniform(0, 1, (16, 8))
    mu = 1e-3
    stepped = lm_update(params, x, target, mu)
    delta = params - stepped
    jac = compute_jacobian(params, x)
    e = (forward(params, x) - target).T.ravel()
    jte = jac.T @ e
    lhs = (jac.T @ jac + mu * np.eye(N_PARAMS)) @ delta
    assert np.linalg.norm(lhs - jte) <= 1e-8 * np.linalg.norm(jte)


@pytest.mark.parametrize("m", [1, 17, 2867])
@pytest.mark.parametrize("init", [0.3, 1.0, 3.0])  # 3.0 saturates tanh
def test_lm_step_solves_damped_normal_equations(m, init):
    params = random_params(m, init)
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


def test_solve_step_rejects_indefinite_or_nonfinite_system():
    params = random_params(4)
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 1, (16, 40))
    eq = evaluated_normal_equations(params, x, rng.uniform(0, 1, (16, 40)))
    indefinite = dataclasses.replace(eq, g=-np.eye(11))
    nonfinite = dataclasses.replace(eq, zz=np.full_like(eq.zz, np.nan))
    for mu in (1e-3, 1.0):
        with pytest.raises(NumericError):
            solve_step(indefinite, mu)
        with pytest.raises(NumericError):
            solve_step(nonfinite, mu)


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
    assert np.array_equal(params, random_params(cfg.seed))


def test_train_deterministic():
    x = band_blocks(seed=4)[:, :512]
    target = 0.4 * x + 0.2
    cfg = TrainConfig(max_epochs=5, seed=9)
    p1, r1 = train(x, target, cfg)
    p2, r2 = train(x, target, cfg)
    assert np.array_equal(p1, p2)
    assert r1.train_mse_history == r2.train_mse_history


def test_train_is_a_pure_function_of_its_arguments():
    # bands A, B and a narrower C, then C, B and A again: each call gives its first
    # result whatever trained before it, and leaves its arguments as it found them
    x_a, x_b = band_blocks(seed=4)[:, :512], band_blocks(seed=6)[:, :512]
    x_c = band_blocks(seed=5)[:, :300]
    calls = [(x_a, 0.4 * x_a + 0.2), (x_b, 0.8 * x_b), (x_c, 0.5 * x_c + 0.3)]
    kept = [(x.copy(), t.copy()) for x, t in calls]
    cfg = TrainConfig(max_epochs=5, seed=9)
    first = [train(x, t, cfg) for x, t in calls]
    for (x, t), (params, report) in reversed(list(zip(calls, first))):
        again_params, again_report = train(x, t, cfg)
        assert np.array_equal(again_params, params)
        assert again_report == report
    for (x, t), (x_kept, t_kept) in zip(calls, kept):
        assert np.array_equal(x, x_kept) and np.array_equal(t, t_kept)


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
    target = forward(random_params(cfg.seed), x)
    params, report = train(x, target, cfg)
    assert report.stop_reason == "mu_overflow"
    assert report.epochs_run == 0
    assert np.array_equal(params, random_params(cfg.seed))


def noise_pair(seed=1, m=200):
    """Inputs and a noise target that the network fits nowhere near the default goal."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (16, m)), rng.uniform(0, 1, (16, m))


def test_train_returns_its_last_accepted_step():
    x, target = noise_pair()
    cfg = TrainConfig(mse_goal=1e-30, max_epochs=40, seed=1)
    params, report = train(x, target, cfg)
    cols = fit_columns(cfg, x.shape[1])
    fitted = mse(forward(params, x[:, cols]), target[:, cols])
    assert fitted == report.train_mse_history[-1] == report.final_mse
    assert report.stop_reason == "epochs"


def test_train_default_cap_bounds_an_unreachable_goal():
    # with no goal in reach, the epoch cap is the only bound on training at the defaults
    x, target = noise_pair()
    _, report = train(x, target, TrainConfig())
    assert report.stop_reason == "epochs"
    assert report.epochs_run == len(report.train_mse_history) == 12


def test_train_rejects_an_input_with_no_columns():
    with pytest.raises(DimensionError):
        train(np.empty((16, 0)), np.empty((16, 0)), TrainConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mse_goal=0.0)
    with pytest.raises(ValueError, match="mse_goal"):
        TrainConfig(mse_goal=float("nan"))
    for bad in (-1, 2.5, 3.0, "4"):
        with pytest.raises(ValueError, match="max_epochs"):
            TrainConfig(max_epochs=bad)
    for bad in (-1, 1.5, 2.0, None):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=bad)
    cfg = TrainConfig(max_epochs=np.int64(3), seed=np.uint32(7))
    assert (cfg.max_epochs, cfg.seed) == (3, 7)
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="max_seconds"):
            TrainConfig(max_seconds=bad)
    for ok in (0.0, float("inf")):
        assert TrainConfig(max_seconds=ok).max_seconds == ok
    for r in (float("inf"), 1e308):
        with pytest.raises(ValueError, match="init_range"):
            TrainConfig(init_range=(-r, r))
