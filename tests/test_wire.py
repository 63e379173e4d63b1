import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsicodec.errors import CorruptStreamError
from hsicodec.wire import from_byte_planes, read_varint, to_byte_planes, write_varint

DTYPES = ["<u1", "<i2", "<u4", "<i8"]


def test_byte_plane_layout_golden():
    # every value's low byte, then every value's high byte; -2 is 0xfffe
    assert to_byte_planes(np.array([0x0102, -2]), "<i2") == b"\x02\xfe\x01\xff"
    assert np.array_equal(from_byte_planes(b"\x02\xfe\x01\xff", "<i2"), [0x0102, -2])


@st.composite
def typed_arrays(draw):
    dtype = draw(st.sampled_from(DTYPES))
    info = np.iinfo(dtype)
    values = st.one_of(st.integers(int(info.min), int(info.max)), st.sampled_from([info.min, info.max, 0]))
    return dtype, np.array(draw(st.lists(values, max_size=64)), dtype=dtype)


@settings(max_examples=200, deadline=None)
@given(typed_arrays())
def test_byte_planes_round_trip(case):
    dtype, values = case
    blob = to_byte_planes(values, dtype)
    assert len(blob) == values.size * np.dtype(dtype).itemsize
    back = from_byte_planes(blob, dtype)
    assert back.dtype == np.dtype(dtype)
    assert back.shape == (values.size,)
    assert np.array_equal(back, values)


@pytest.mark.parametrize("dtype", DTYPES)
def test_byte_planes_extremes_and_empty(dtype):
    info = np.iinfo(dtype)
    values = np.array([info.min, info.max, 0, info.max, info.min], dtype=dtype)
    assert np.array_equal(from_byte_planes(to_byte_planes(values, dtype), dtype), values)
    empty = from_byte_planes(to_byte_planes(np.array([], dtype=dtype), dtype), dtype)
    assert empty.dtype == np.dtype(dtype) and empty.shape == (0,)


@pytest.mark.parametrize("dtype", ["<i2", "<u4", "<i8"])
def test_plane_bytes_not_a_multiple_of_the_width(dtype):
    width = np.dtype(dtype).itemsize
    for length in range(1, 2 * width):
        if length % width:
            with pytest.raises(CorruptStreamError):
                from_byte_planes(bytes(length), dtype)


VARINT_SIZES = [(0, 1), (1, 1), (127, 1), (128, 2), (16383, 2), (16384, 3), (2**63 - 1, 9), (2**63, 10)]


@pytest.mark.parametrize("value, size", [pytest.param(v, n, id=str(v)) for v, n in VARINT_SIZES])
def test_varint_size_is_the_written_length(value, size):
    # each 7 bits of the value take one byte; read from inside a longer buffer, the
    # varint ends exactly where its writer stopped
    out = bytearray(b"\xaa")
    write_varint(out, value)
    assert len(out) == 1 + size
    assert read_varint(out + b"\x00", 1) == (value, 1 + size)
