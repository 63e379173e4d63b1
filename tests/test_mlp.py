import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsicodec.errors import DimensionError
from hsicodec.mlp import GROUPS, N_PARAMS, SHAPES, flatten, forward, layers, mse, unpack


def zero_params():
    return np.zeros(N_PARAMS)


def random_params(seed, init=1.0):
    """The flat vector drawn uniform in [-init, init] by a generator seeded with seed."""
    return np.random.default_rng(seed).uniform(-init, init, N_PARAMS)


def tansig(x):
    """The hidden layer's transfer function at x, read through ``layers``: unit 0 sees exactly x."""
    x = np.asarray(x, dtype=np.float64)
    params = zero_params()
    unpack(params)[0][0, 0] = 1.0  # w1[0, 0]
    inputs = np.zeros((16, x.size))
    inputs[0] = x.ravel()
    return layers(params, inputs)[0][0].reshape(x.shape)


def test_parameter_count():
    assert N_PARAMS == 346
    assert [end - start for start, end in GROUPS] == [160, 10, 160, 16]


def test_unpack_gives_views_in_shapes_order():
    params = random_params(3)
    groups = unpack(params)
    assert [g.shape for g in groups] == list(SHAPES)
    assert all(np.shares_memory(g, params) for g in groups)
    # w1 row-major, b1, w2 row-major, b2: the groups laid end to end are the vector
    assert np.array_equal(flatten(*groups), params)
    w1, _, _, b2 = groups
    assert w1[0, 1] == params[1] and w1[1, 0] == params[16]
    b2[:] = 7.0
    assert np.all(params[-16:] == 7.0)


@pytest.mark.parametrize("shape", [(345,), (347,), (0,), (346, 1), (2, 173)])
def test_unpack_refuses_a_wrong_length(shape):
    with pytest.raises(DimensionError):
        unpack(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, 165, 345])
def test_unpack_refuses_nonfinite_values(bad, index):
    params = random_params(4)
    params[index] = bad
    with pytest.raises(DimensionError, match="finite"):
        unpack(params)
    with pytest.raises(DimensionError):
        forward(params, np.zeros((16, 2)))


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
    unpack(params)[2][:] = np.random.default_rng(3).uniform(-1, 1, (16, 10))
    out = forward(params, np.ones((16, 4)))
    assert np.array_equal(out, np.zeros((16, 4)))


def test_forward_matches_scalar_loop():
    params = random_params(4)
    x = np.random.default_rng(5).uniform(0, 1, (16, 3))
    out = forward(params, x)
    w1, b1, w2, b2 = unpack(params)
    for c in range(3):
        for r in range(16):
            hidden = [
                np.tanh(sum(w1[u, v] * x[v, c] for v in range(16)) + b1[u])
                for u in range(10)
            ]
            y = sum(w2[r, u] * hidden[u] for u in range(10)) + b2[r]
            assert out[r, c] == pytest.approx(y, abs=1e-12)


def test_forward_linear_in_output_layer():
    params = random_params(6)
    x = np.random.default_rng(7).uniform(0, 1, (16, 8))
    w1, b1, w2, b2 = unpack(params)
    doubled = flatten(w1, b1, 2 * w2, 2 * b2)
    assert np.array_equal(forward(doubled, x), 2 * forward(params, x))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4096), st.booleans())
def test_layers_match_out_of_place_formula_bitwise(seed, m, fortran):
    # LM's training MSE and the codec's predictions both come from these bits
    rng = np.random.default_rng(seed)
    params = random_params(seed)
    x = rng.uniform(-0.5, 1.5, (16, m))
    x = np.asfortranarray(x) if fortran else x
    w1, b1, w2, b2 = unpack(params)
    hidden = np.tanh(w1 @ x + b1[:, None])
    out = w2 @ hidden + b2[:, None]
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
