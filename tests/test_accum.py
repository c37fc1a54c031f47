"""Summation helpers against math.fsum as the exact oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekconst import fsum_array
from ekconst.accum import FLOAT_SLICE, fsum_complex

finite = st.floats(min_value=-1e12, max_value=1e12,
                   allow_nan=False, allow_infinity=False)


@given(st.lists(finite, max_size=300))
def test_fsum_array_is_fsum(xs):
    arr = np.array(xs, dtype=np.float64)
    assert fsum_array(arr) == math.fsum(xs)


@pytest.mark.parametrize("size", [0, 1, FLOAT_SLICE - 1, FLOAT_SLICE,
                                  FLOAT_SLICE + 1, 3 * FLOAT_SLICE + 7])
def test_fsum_array_slices_sum_exactly(size):
    # magnitudes from 1e-20 to 1e20; each term of the first half nearly
    # cancels one term of the second half, in another slice, so a sum
    # rounded per slice would show
    rng = np.random.default_rng(size)
    arr = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 21, size)
    half = size // 2
    arr[size - half:] = -arr[:half] + rng.standard_normal(half)
    assert float.hex(fsum_array(arr)) == float.hex(math.fsum(arr.tolist()))


@given(st.lists(st.tuples(finite, finite), max_size=100))
def test_fsum_complex_componentwise(pairs):
    arr = np.array([complex(a, b) for a, b in pairs], dtype=np.complex128)
    got = fsum_complex(arr)
    assert got.real == math.fsum(a for a, _ in pairs)
    assert got.imag == math.fsum(b for _, b in pairs)

