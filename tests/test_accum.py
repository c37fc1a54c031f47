"""Summation helpers against math.fsum as the exact oracle.

fsum_array hands arrays shorter than _KERNEL_MIN to math.fsum, so each case
on short lists also runs the kernel route of a long array (_kernel_sum)
against math.fsum. fsum_segments is checked segment by segment against
math.fsum of each segment."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ekconst import accum, fsum_array
from ekconst.accum import (CHUNK, _KERNEL_MIN, fixed_sum, fsum_segments,
                           round_fixed)

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


def _kernel_sum(arr):
    """fsum_array's route for an array of _KERNEL_MIN or more elements, at
    any length: fixed_sum and round_fixed, or math.fsum where fixed_sum
    declines."""
    total = fixed_sum(arr)
    if total is None:
        return math.fsum(arr.tolist())
    return round_fixed(total)


def _same_as_fsum(xs):
    arr = np.array(xs, dtype=np.float64)
    want = _outcome(math.fsum, xs)
    assert _outcome(fsum_array, arr) == want
    assert _outcome(_kernel_sum, arr) == want


@given(st.lists(finite, max_size=300))
def test_fsum_array_is_fsum(xs):
    arr = np.array(xs, dtype=np.float64)
    assert fsum_array(arr) == math.fsum(xs)
    assert fixed_sum(arr) is not None
    assert _kernel_sum(arr) == math.fsum(xs)


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
    for fn in (fsum_array, _kernel_sum):
        assert float.hex(fn(np.array(terms))) == float.hex(0.0)
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
    want = float.hex(math.fsum(arr.tolist()))
    assert float.hex(fsum_array(arr)) == want
    assert float.hex(_kernel_sum(arr)) == want


@pytest.mark.parametrize("xs, want", [
    ([], 0.0), ([0.0], 0.0), ([-0.0], 0.0), ([-0.0, -0.0, 0.0], 0.0),
    ([math.inf], math.inf), ([-math.inf, 1.0], -math.inf),
    ([1.0, math.nan], math.nan), ([math.inf, math.nan], math.nan),
])
def test_fsum_array_special_values(xs, want):
    arr = np.array(xs, dtype=np.float64)
    # fixed_sum declines exactly the inputs that are not all finite
    assert (fixed_sum(arr) is None) == (not np.isfinite(arr).all())
    for got in (fsum_array(arr), _kernel_sum(arr)):
        assert float.hex(got) == float.hex(want)
        assert float.hex(got) == float.hex(math.fsum(xs))


@pytest.mark.parametrize("xs, error", [
    ([math.inf, -math.inf], ValueError),
    ([math.nan, math.inf, -math.inf], ValueError),
    ([1e308, 1e308], OverflowError),
    ([1e308, 1e308, -1e308], OverflowError),
])
def test_fsum_array_raises_as_fsum(xs, error):
    arr = np.array(xs, dtype=np.float64)
    assert fixed_sum(arr) is None
    with pytest.raises(error):
        math.fsum(xs)
    for fn in (fsum_array, _kernel_sum):
        with pytest.raises(error):
            fn(arr)


def test_fsum_array_non_finite_beyond_the_first_chunk():
    arr = np.ones(2 * CHUNK + 3)
    arr[CHUNK + 5] = math.inf
    assert fsum_array(arr) == math.inf
    arr[-1] = -math.inf
    with pytest.raises(ValueError):
        fsum_array(arr)


@given(st.lists(st.tuples(finite, finite), max_size=100))
def test_fsum_array_sums_complex_parts(pairs):
    # the strided .real and .imag views of a complex array
    arr = np.array([complex(a, b) for a, b in pairs], dtype=np.complex128)
    for fn in (fsum_array, _kernel_sum):
        assert fn(arr.real) == math.fsum(a for a, _ in pairs)
        assert fn(arr.imag) == math.fsum(b for _, b in pairs)


@pytest.mark.parametrize("size", [_KERNEL_MIN - 1, _KERNEL_MIN,
                                  _KERNEL_MIN + 1])
@pytest.mark.parametrize("view", ["contiguous", "real", "imag"])
def test_fsum_array_size_rule(monkeypatch, size, view):
    # below _KERNEL_MIN elements math.fsum, from there on the kernel, and
    # the same float either way
    rng = np.random.default_rng(size)
    a, b = rng.standard_normal((2, size)) * 10.0 ** rng.integers(
        -8, 9, (2, size))
    z = a + 1j * b
    arr = {"contiguous": a, "real": z.real, "imag": z.imag}[view]
    calls = []
    monkeypatch.setattr(accum, "fixed_sum",
                        lambda a: calls.append(len(a)) or fixed_sum(a))
    want = float.hex(math.fsum(arr.tolist()))
    assert float.hex(fsum_array(arr)) == want
    assert float.hex(_kernel_sum(arr)) == want
    assert calls == ([size] if size >= _KERNEL_MIN else [])


# ------------------------------------------------------ segmented sums

#: near the largest finite float, where math.fsum may overflow part way
huge = st.floats(min_value=1e307, max_value=1.7976931348623157e308).flatmap(
    lambda x: st.sampled_from([x, -x]))
signed_zero = st.sampled_from([0.0, -0.0])
special = st.sampled_from([math.inf, -math.inf, math.nan])


def _segments_outcome(fn, segments):
    """The float.hex of each sum of fn over the segments, or the type of
    the exception it raised."""
    try:
        return [float.hex(v) for v in fn(segments)]
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _fsum_each(segments):
    return [math.fsum(seg) for seg in segments]


def _fsum_segments(segments):
    arr = np.array([x for seg in segments for x in seg], dtype=np.float64)
    return fsum_segments(arr, [len(seg) for seg in segments])


def _same_as_fsum_each(segments):
    assert (_segments_outcome(_fsum_segments, segments)
            == _segments_outcome(_fsum_each, segments))


# a few ms an example, more where the exponents span the whole range
@settings(deadline=None)
@given(st.lists(st.lists(st.one_of(finite, wide, subnormal, signed_zero),
                         max_size=12), max_size=40))
def test_fsum_segments_is_fsum_of_each_segment(segments):
    # empty and one-element segments among the others, every exponent
    # from the subnormals to 1e300, and zeros of either sign
    _same_as_fsum_each(segments)


@settings(deadline=None)
@given(st.lists(st.lists(st.one_of(subnormal, signed_zero), max_size=20),
                max_size=20))
def test_fsum_segments_of_subnormals(segments):
    # a bucket scaled below 2^-1022 keeps its bits
    _same_as_fsum_each(segments)


@settings(deadline=None)
@given(st.lists(st.lists(st.one_of(huge, finite, any_finite, special),
                         max_size=8), max_size=12))
@example([[1.0], [1e308, 1e308]])
@example([[1e308, -1e308, 1e308, 1e308], []])
@example([[1e308], [1e308], [-1e308, -1e308, 1e308]])
@example([[1.0, math.inf, -math.inf], [math.nan]])
def test_fsum_segments_up_to_the_largest_floats(segments):
    # near 1e308 math.fsum may overflow part way, inf and nan propagate,
    # and inf - inf raises: then every segment goes to fsum_array, which
    # is math.fsum there
    _same_as_fsum_each(segments)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 3 * CHUNK), min_size=1, max_size=5),
       st.integers(0, 2**32 - 1))
@example([CHUNK - 3, 2 * CHUNK + 7, 1, 0, CHUNK], 0)
def test_fsum_segments_longer_than_a_chunk(lengths, seed):
    # segments that start in one chunk and end in another, magnitudes from
    # 1e-20 to 1e20, each term of a segment's first half nearly cancelled
    # in its second half
    rng = np.random.default_rng(seed)
    segments = []
    for n in lengths:
        arr = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 21, n)
        half = n // 2
        arr[n - half:] = -arr[:half] + rng.standard_normal(half)
        segments.append(arr.tolist())
    _same_as_fsum_each(segments)


def test_fsum_segments_of_many_rows_over_every_exponent():
    # a thousand short segments from the subnormals to 1e300 need more
    # buckets than one chunk may hold; then every segment goes to fsum_array
    rng = np.random.default_rng(5)
    lengths = rng.integers(0, 4, 1000)
    n = int(lengths.sum())
    arr = rng.standard_normal(n) * 2.0 ** rng.integers(-1074, 997, n)
    got = fsum_segments(arr, lengths)
    bounds = np.cumsum(lengths)
    want = [math.fsum(seg.tolist()) for seg in np.split(arr, bounds[:-1])]
    assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("lengths", [[], [0, 0], [2], [1, 3], [4, -1]])
def test_fsum_segments_lengths_must_cover_the_array(lengths):
    with pytest.raises(ValueError):
        fsum_segments(np.ones(3), lengths)
