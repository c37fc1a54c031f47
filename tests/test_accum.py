"""Summation helpers against math.fsum as the exact oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekconst import fsum_array
from ekconst.accum import CHUNK, fixed_sum, fsum_complex

finite = st.floats(min_value=-1e12, max_value=1e12,
                   allow_nan=False, allow_infinity=False)
#: every finite float, subnormals and the largest magnitudes included
any_finite = st.floats(allow_nan=False, allow_infinity=False)
#: magnitudes up to 1e300, where no fsum of 300 terms can overflow, so the
#: kernel sums them itself
wide = st.floats(min_value=-1e300, max_value=1e300,
                 allow_nan=False, allow_infinity=False)
subnormal = st.floats(min_value=-2.0**-1022, max_value=2.0**-1022,
                      allow_nan=False, allow_infinity=False)


def _outcome(fn, xs):
    """The float.hex of fn(xs), or the type of the exception it raised."""
    try:
        return float.hex(fn(xs))
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _same_as_fsum(xs):
    arr = np.array(xs, dtype=np.float64)
    assert _outcome(fsum_array, arr) == _outcome(math.fsum, xs)


@given(st.lists(finite, max_size=300))
def test_fsum_array_is_fsum(xs):
    arr = np.array(xs, dtype=np.float64)
    assert fsum_array(arr) == math.fsum(xs)


@settings(max_examples=300)
@given(st.lists(st.one_of(wide, subnormal, finite), max_size=300))
def test_fsum_array_is_fsum_over_the_exponent_range(xs):
    assert fixed_sum(np.array(xs, dtype=np.float64)) is not None
    _same_as_fsum(xs)


@given(st.lists(st.one_of(any_finite, subnormal), max_size=60))
def test_fsum_array_is_fsum_up_to_the_largest_floats(xs):
    # near 1e308 math.fsum may overflow part way; fsum_array raises the same
    _same_as_fsum(xs)


@given(st.lists(st.one_of(wide, subnormal), min_size=1, max_size=100),
       st.randoms(use_true_random=False))
def test_fsum_array_exact_cancellation(xs, rnd):
    # every term and its negation: the exact sum is 0, returned as +0.0
    terms = xs + [-x for x in xs]
    rnd.shuffle(terms)
    assert float.hex(fsum_array(np.array(terms))) == float.hex(0.0)
    _same_as_fsum(terms + [xs[0]])


@given(wide.filter(lambda a: abs(a) >= 2.0**-1000),
       st.sampled_from([-1.0, 0.0, 1.0]), st.sampled_from([1, 2, 4]))
def test_fsum_array_half_way_ties(a, nudge, pieces):
    # a plus half an ulp, split into exact pieces, rounds to even; the
    # smallest subnormal on either side breaks the tie
    half = math.ulp(a) / 2
    xs = [a] + [half / pieces] * pieces + [nudge * 5e-324]
    _same_as_fsum(xs)
    _same_as_fsum([-x for x in xs])


@pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                  3 * CHUNK + 7, 4 * CHUNK - 1, 4 * CHUNK,
                                  4 * CHUNK + 1, 12 * CHUNK + 7])
def test_fsum_array_slices_sum_exactly(size):
    # one chunk, and one, three, four or twelve chunks and a part;
    # magnitudes from 1e-20 to 1e20; each term of the first half nearly
    # cancels one term of the second half, in another chunk, so a sum
    # rounded per chunk would show
    rng = np.random.default_rng(size)
    arr = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 21, size)
    half = size // 2
    arr[size - half:] = -arr[:half] + rng.standard_normal(half)
    assert fixed_sum(arr) is not None
    assert float.hex(fsum_array(arr)) == float.hex(math.fsum(arr.tolist()))


@pytest.mark.parametrize("xs, want", [
    ([], 0.0), ([0.0], 0.0), ([-0.0], 0.0), ([-0.0, -0.0, 0.0], 0.0),
    ([math.inf], math.inf), ([-math.inf, 1.0], -math.inf),
    ([1.0, math.nan], math.nan), ([math.inf, math.nan], math.nan),
])
def test_fsum_array_special_values(xs, want):
    got = fsum_array(np.array(xs, dtype=np.float64))
    assert float.hex(got) == float.hex(want)
    assert float.hex(got) == float.hex(math.fsum(xs))


@pytest.mark.parametrize("xs, error", [
    ([math.inf, -math.inf], ValueError),
    ([math.nan, math.inf, -math.inf], ValueError),
    ([1e308, 1e308], OverflowError),
    ([1e308, 1e308, -1e308], OverflowError),
])
def test_fsum_array_raises_as_fsum(xs, error):
    with pytest.raises(error):
        math.fsum(xs)
    with pytest.raises(error):
        fsum_array(np.array(xs, dtype=np.float64))


def test_fsum_array_non_finite_beyond_the_first_chunk():
    arr = np.ones(2 * CHUNK + 3)
    arr[CHUNK + 5] = math.inf
    assert fsum_array(arr) == math.inf
    arr[-1] = -math.inf
    with pytest.raises(ValueError):
        fsum_array(arr)


@given(st.lists(st.tuples(finite, finite), max_size=100))
def test_fsum_complex_componentwise(pairs):
    arr = np.array([complex(a, b) for a, b in pairs], dtype=np.complex128)
    got = fsum_complex(arr)
    assert got.real == math.fsum(a for a, _ in pairs)
    assert got.imag == math.fsum(b for _, b in pairs)
