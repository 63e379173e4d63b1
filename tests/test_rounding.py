import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsicodec.cube import denormalize_band
from hsicodec.rounding import round_half_away

SPECIAL = [0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999999999999994, -0.49999999999999994,
           0.3, -0.3, np.nan, -np.nan, np.inf, -np.inf, 2.0**52 + 1, -(2.0**52 + 1), 1e300, -1e300]


def sign_floor(x):
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def bits(a):
    return np.asarray(a, np.float64).view(np.uint64)


def test_round_half_away_special_values_bitwise():
    x = np.array(SPECIAL)
    assert np.array_equal(bits(round_half_away(x)), bits(sign_floor(x)))
    # in place gives the same bits
    y = x.copy()
    assert round_half_away(y, out=y) is y
    assert np.array_equal(bits(y), bits(sign_floor(x)))


def test_round_half_away_halves_go_away_from_zero():
    x = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])
    assert np.array_equal(round_half_away(x), [-3, -2, -1, 1, 2, 3])
    assert np.signbit(round_half_away(np.array([-0.0, -0.3]))).tolist() == [False, True]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=32))
def test_round_half_away_bitwise_property(values):
    x = np.array(values)
    assert np.array_equal(bits(round_half_away(x)), bits(sign_floor(x)))


def reference_denormalize(values, src_min, src_max):
    """The earlier formula, with its trailing clamp to [src_min, src_max]."""
    scaled = np.clip(values, 0.0, 1.0) * float(src_max - src_min)
    return np.clip(sign_floor(scaled).astype(np.int64) + src_min, src_min, src_max)


INT32 = st.integers(-(2**31), 2**31 - 1)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.floats(-1e300, 1e300), st.floats(-2.0, 3.0), st.sampled_from([np.inf, -np.inf])),
             min_size=1, max_size=32),
    INT32,
    INT32,
)
def test_denormalize_stays_in_range(values, a, b):
    src_min, src_max = min(a, b), max(a, b)
    x = np.array(values)
    ints = denormalize_band(x.copy(), src_min, src_max, np.empty(x.shape, np.int64))
    assert ints.dtype == np.int64
    assert ints.min() >= src_min and ints.max() <= src_max
    assert np.array_equal(ints, reference_denormalize(x, src_min, src_max))


@pytest.mark.parametrize("values", [[-1e39, 0.0, 0.5, 1.0, 1e39], [0.9999999999999999, 1e-300, -0.0]])
def test_denormalize_int32_extreme_range(values):
    lo, hi = -(2**31), 2**31 - 1
    ints = denormalize_band(np.array(values), lo, hi, np.empty(len(values), np.int64))
    assert ints.min() >= lo and ints.max() <= hi
    assert np.array_equal(ints, reference_denormalize(np.array(values), lo, hi))
    assert denormalize_band(np.array([0.0, 1.0]), lo, hi, np.empty(2, np.int64)).tolist() == [lo, hi]
