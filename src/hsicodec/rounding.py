"""Shared integer rounding rule: round half away from zero.

Encoder and decoder must produce bit-identical integers wherever a real value
is rounded; ``cube.denormalize_band`` rounds values >= 0 as floor(v + 0.5).
"""

import numpy as np


def round_half_away(x, out=None):
    """Round to the nearest integer, halves away from zero.

    Works elementwise on floating arrays, in ``out`` (which may be ``x``) or
    a new array of the input's dtype; bitwise equal to
    ``np.sign(x) * np.floor(np.abs(x) + 0.5)``.
    """
    x = np.asarray(x)
    # where np.sign(x) is negative: x < 0 and a negative NaN, but not -0.0
    negative = np.signbit(x) & (x != 0)
    out = np.abs(x, out=out)
    out += 0.5
    np.floor(out, out=out)
    return np.negative(out, out=out, where=negative)
