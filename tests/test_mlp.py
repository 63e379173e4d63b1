import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsicodec.errors import DimensionError
from hsicodec.mlp import MlpParams, N_PARAMS, forward, layers, mse


def zero_params():
    return MlpParams(
        w1=np.zeros((10, 16)), b1=np.zeros(10), w2=np.zeros((16, 10)), b2=np.zeros(16)
    )


def random_params(seed):
    rng = np.random.default_rng(seed)
    return MlpParams(
        w1=rng.uniform(-1, 1, (10, 16)),
        b1=rng.uniform(-1, 1, 10),
        w2=rng.uniform(-1, 1, (16, 10)),
        b2=rng.uniform(-1, 1, 16),
    )


def tansig(x):
    """The hidden layer's transfer function at x, read through ``layers``: unit 0 sees exactly x."""
    x = np.asarray(x, dtype=np.float64)
    w1 = np.zeros((10, 16))
    w1[0, 0] = 1.0
    params = MlpParams(w1=w1, b1=np.zeros(10), w2=np.zeros((16, 10)), b2=np.zeros(16))
    inputs = np.zeros((16, x.size))
    inputs[0] = x.ravel()
    return layers(params, inputs)[0][0].reshape(x.shape)


def test_parameter_count():
    assert N_PARAMS == 346
    assert zero_params().to_vector().shape == (346,)


def test_vector_round_trip():
    params = random_params(3)
    back = MlpParams.from_vector(params.to_vector())
    assert np.array_equal(back.w1, params.w1)
    assert np.array_equal(back.b1, params.b1)
    assert np.array_equal(back.w2, params.w2)
    assert np.array_equal(back.b2, params.b2)


def test_tansig_zero():
    assert tansig(0.0) == 0.0


def test_tansig_reference_value():
    # high-precision value of 2/(1+e^-2) - 1 at x=1
    assert tansig(1.0) == 0.7615941559557649


def test_tansig_odd_symmetry():
    rng = np.random.default_rng(0)
    x = rng.uniform(-20, 20, 200)
    assert np.array_equal(tansig(x), -tansig(-x))


def test_tansig_bounded_and_monotone():
    # strict bound holds wherever float64 can represent a value below 1;
    # beyond ~19 the function saturates to exactly +/-1
    x = np.sort(np.random.default_rng(1).uniform(-15, 15, 500))
    y = tansig(x)
    assert np.all(y > -1) and np.all(y < 1)
    assert np.all(np.diff(y) >= 0)
    assert tansig(100.0) == 1.0
    assert tansig(-100.0) == -1.0


def test_forward_zero_network():
    out = forward(zero_params(), np.random.default_rng(2).uniform(0, 1, (16, 5)))
    assert np.array_equal(out, np.zeros((16, 5)))


def test_forward_dead_hidden_layer():
    # w1 = 0, b1 = 0 makes every hidden unit tansig(0) = 0 regardless of w2
    params = zero_params()
    params.w2[:] = np.random.default_rng(3).uniform(-1, 1, (16, 10))
    out = forward(params, np.ones((16, 4)))
    assert np.array_equal(out, np.zeros((16, 4)))


def test_forward_matches_scalar_loop():
    params = random_params(4)
    x = np.random.default_rng(5).uniform(0, 1, (16, 3))
    out = forward(params, x)
    for c in range(3):
        for r in range(16):
            hidden = [
                np.tanh(sum(params.w1[u, v] * x[v, c] for v in range(16)) + params.b1[u])
                for u in range(10)
            ]
            y = sum(params.w2[r, u] * hidden[u] for u in range(10)) + params.b2[r]
            assert out[r, c] == pytest.approx(y, abs=1e-12)


def test_forward_linear_in_output_layer():
    params = random_params(6)
    x = np.random.default_rng(7).uniform(0, 1, (16, 8))
    doubled = MlpParams(w1=params.w1, b1=params.b1, w2=2 * params.w2, b2=2 * params.b2)
    assert np.array_equal(forward(doubled, x), 2 * forward(params, x))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4096), st.booleans())
def test_layers_match_out_of_place_formula_bitwise(seed, m, fortran):
    # LM's training MSE and the codec's predictions both come from these bits
    rng = np.random.default_rng(seed)
    params = random_params(seed)
    x = rng.uniform(-0.5, 1.5, (16, m))
    x = np.asfortranarray(x) if fortran else x
    hidden = np.tanh(params.w1 @ x + params.b1[:, None])
    out = params.w2 @ hidden + params.b2[:, None]
    got_hidden, got_out = layers(params, x)
    assert got_hidden.tobytes() == hidden.tobytes()
    assert got_out.tobytes() == out.tobytes()


def test_forward_dimension_error():
    with pytest.raises(DimensionError):
        forward(zero_params(), np.zeros((15, 4)))


def test_mse_basic():
    a = np.zeros((4, 4))
    assert mse(a, a) == 0.0
    assert mse(a + 1, a) == 1.0
    assert mse(np.array([[3.0], [4.0]]), np.zeros((2, 1))) == 12.5


@given(st.integers(0, 2**31 - 1))
def test_mse_symmetric(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (4, 6))
    b = rng.uniform(-1, 1, (4, 6))
    assert mse(a, b) == mse(b, a)


def test_mse_shape_mismatch():
    with pytest.raises(DimensionError):
        mse(np.zeros((2, 2)), np.zeros((2, 3)))
