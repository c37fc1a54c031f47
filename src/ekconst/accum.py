"""Summation helpers.

Every exact sum of a float array here runs one kernel, _chunk_sums, and
rounds once, without making a Python float per element. Each element is
m * 2^e (np.frexp, 0.5 <= |m| < 1), and its 53-bit mantissa splits into two
float64 integers: the high part trunc(m * 2^27) and the low part
(m * 2^27 - high) * 2^26. Over a chunk of CHUNK elements, one np.bincount
per part by (row, exponent), over the exponents the chunk holds, gives
bucket sums that float64 holds exactly (integers below 2^42 once the low
part is scaled back by 2^26). The kernel serves two sums:

- fixed_sum, one row: the buckets of every chunk add up in int64 as one
  fixed-point integer in units of 2^-1126 (the smallest subnormal is
  2^-1074 = 0.5 * 2^-1073, its low part 2^-1126), and Python's int true
  division rounds that integer once, correctly and half to even.
- fsum_segments, one row per segment of an array: each bucket sum scaled
  by its power of two is an exact float, and one math.fsum per segment over
  those few floats rounds the segment's sum once. The conductor totals of a
  batch are one call, over the real and imaginary log-derivatives of all
  its conductors.

math.fsum also returns the correctly rounded exact sum, so each gives its
float bit for bit, whatever the order or the chunking. Input that is not
finite, or large enough that math.fsum could overflow part way, goes to
math.fsum itself, which keeps its result and its exceptions.

fsum_array is the exact sum of one float array, and it alone chooses the
method: an array of fewer than _KERNEL_MIN elements goes to
math.fsum(arr.tolist()), where the Python floats cost less than the set-up
of a chunk, and a longer one to fixed_sum. Either way the float is the
same. Two routes take fixed_sum's integers themselves, to add their pieces
before rounding once: the streaming sums of sieve (psi_stream,
psi_mod_stream) add their segments, and decomp's one pass over the prime
powers adds its slices of CHUNK elements. math.fsum stays the exact sum of
Python lists and generators. The one elementwise compensated loop, where no
exact sum applies, is the Euler-Maclaurin kernel in stieltjes, which keeps
its error-free additions in place.
"""
from __future__ import annotations

import functools
import math

import numpy as np

#: Arrays of fewer elements are summed by math.fsum(arr.tolist()). On a
#: 2-core x86-64 host (numpy 2.4), math.fsum against the kernel, in µs
#: (best of 7), on contiguous arrays and on strided .real views of
#: log-derivative-like values: 8 against 42-43 at 200 elements, 42-45
#: against 51 at 1,000, 48-52 against 50-52 at 1,200, 57-69 against 41-43
#: at 1,600, 76-79 against 41-43 at 2,000 and 153-155 against 60-62 at
#: 4,000. The cut was set on the 6,142 conductor-total sums of a cold
#: serial scan_range(2048), when each was an fsum_array call: cuts from
#: 1,024 to 2,048 differed by under 1% of that scan.
_KERNEL_MIN = 2048
#: Elements per chunk. A bucket sums at most CHUNK high parts, integers
#: below 2^27 in magnitude, or CHUNK low parts over 2^26, multiples of 2^-26
#: below 1, so its float64 sum stays exact.
CHUNK = 2**15

#: Index of exponent e in the totals: e + _E_OFFSET, which is 0 for the
#: smallest subnormal; the largest finite exponent, 1024, is the last one.
_E_OFFSET = 1073
_BUCKETS = _E_OFFSET + 1025
#: Consecutive elements go to LANES copies of each bucket in turn. Most
#: elements of an array share a few exponents, and bincount's additions into
#: one bucket wait for each other; over four copies they overlap, which
#: halves the time of a bincount.
_LANES = 4
#: Bits of the mantissa below the high part.
_LOW_BITS = 26
#: The fixed-point unit is 2^-_SCALE: the low part of exponent e counts
#: units of 2^(e - 53), the high part units of 2^(e - 27).
_SCALE = _E_OFFSET + 53
_ONE = 1 << _SCALE
#: Most buckets of one chunk, 16 MiB of float64: one row needs at most
#: _LANES * 2,098, and the rows of a batch of conductor totals, whose values
#: span some 70 exponents, a few hundred thousand.
_MAX_BUCKETS = 2**21
#: Largest e_max + bit_length(n) summed exactly: then the magnitudes add up
#: to less than 2^1020, and no partial sum of math.fsum can overflow.
_MAX_MAGNITUDE = 1020


@functools.cache
def _lanes() -> np.ndarray:
    """Lane of each position of a chunk, 0 to _LANES - 1 in turn. Built on
    first use, so a process that never sums an array does not hold it."""
    lanes = np.tile(np.arange(_LANES, dtype=np.intp), CHUNK // _LANES)
    lanes.flags.writeable = False
    return lanes


def _buffers(size: int) -> tuple[np.ndarray, ...]:
    """The work buffers of _chunk_sums for chunks of up to size elements."""
    return (np.empty(size), np.empty(size), np.empty(size, dtype=np.int32),
            np.empty(size, dtype=np.intp))


def _chunk_sums(chunk: np.ndarray, rows: np.ndarray, nrows: int,
                buffers: tuple) -> tuple[int, np.ndarray, np.ndarray] | None:
    """The exact-sum kernel: the bucket sums of one chunk of at most CHUNK
    elements, as (lo, high, low), or None when an element is not finite.

    rows[i] is row * _LANES + lane of element i, its row one of 0 ..
    nrows - 1. high[r, j] adds the high parts trunc(m * 2^27) and low[r, j]
    the low parts over 2^26 of the elements of row r with exponent lo + j,
    over the exponents lo .. hi the chunk holds: float64 arrays of shape
    (nrows, hi - lo + 1) that hold their sums exactly, the lanes added up.
    Both parts of an element of exponent e count units of 2^(e - 27). It
    declines a chunk whose buckets would pass _MAX_BUCKETS, which only many
    rows over a wide exponent range reach."""
    k = len(chunk)
    m, h, e, b = (buf[:k] for buf in buffers)
    np.frexp(chunk, out=(m, e))
    np.multiply(m, 2.0**27, out=m)
    np.trunc(m, out=h)
    lo, hi = int(e.min()), int(e.max())
    width = hi - lo + 1
    # bucket (row * _LANES + lane) * width + e - lo
    np.multiply(rows, width, out=b)
    b += e
    b -= lo
    size = nrows * _LANES * width
    if size > _MAX_BUCKETS:
        return None
    high = np.bincount(b, weights=h, minlength=size)
    # inf or nan input leaves an inf or nan high part in its bucket
    if not np.isfinite(high).all():
        return None
    np.subtract(m, h, out=m)         # the low part over 2^26
    low = np.bincount(b, weights=m, minlength=size)
    return (lo, high.reshape(nrows, _LANES, width).sum(axis=1),
            low.reshape(nrows, _LANES, width).sum(axis=1))


def fixed_sum(arr: np.ndarray) -> int | None:
    """The exact sum of a 1-D float64 array as an integer number of units
    2^-1126 (round_fixed turns it into the float), or None when an element
    is not finite or the elements may be large enough for math.fsum to
    overflow part way.

    A chunk whose exponents run from lo to hi has _LANES copies of the
    hi - lo + 1 buckets of its own range, so the cost of a chunk follows
    its exponent range rather than the 2,098 exponents of float64."""
    n = len(arr)
    buffers = _buffers(min(n, CHUNK))
    # totals[j] counts units of 2^(j - _SCALE); int64 holds 2^21 chunks
    totals = np.zeros(_BUCKETS + _LOW_BITS, dtype=np.int64)
    # the exponents seen, and 0; the buckets read at the end span them
    e_min = e_max = 0
    lanes = _lanes()
    for start in range(0, n, CHUNK):
        chunk = arr[start:start + CHUNK]
        sums = _chunk_sums(chunk, lanes[:len(chunk)], 1, buffers)
        if sums is None:
            return None
        lo, high, low = sums
        width = high.shape[1]
        e_min, e_max = min(e_min, lo), max(e_max, lo + width - 1)
        first = lo + _E_OFFSET
        totals[first + _LOW_BITS:first + _LOW_BITS + width] += (
            high[0].astype(np.int64))
        low *= 2.0**_LOW_BITS
        totals[first:first + width] += low[0].astype(np.int64)
    if e_max + n.bit_length() > _MAX_MAGNITUDE:
        return None
    first = e_min + _E_OFFSET
    span = totals[first:e_max + _E_OFFSET + _LOW_BITS + 1]
    nonzero = np.flatnonzero(span)
    return sum(v << j for j, v in zip(nonzero.tolist(),
                                      span[nonzero].tolist())) << first


def round_fixed(total: int) -> float:
    """The float nearest a fixed_sum integer, half to even; 0 gives +0.0."""
    return total / _ONE


def fsum_array(arr: np.ndarray) -> float:
    """Exactly rounded sum of a 1-D float array, the same float as
    math.fsum(arr.tolist()), and the same exception where that raises:
    math.fsum itself below _KERNEL_MIN elements, else fixed_sum and
    round_fixed, with math.fsum for the input fixed_sum declines."""
    arr = np.asarray(arr, dtype=np.float64)
    total = fixed_sum(arr) if len(arr) >= _KERNEL_MIN else None
    if total is None:
        return math.fsum(arr.tolist())
    return round_fixed(total)


def fsum_segments(arr: np.ndarray, lengths) -> list[float]:
    """math.fsum of each segment of a 1-D float array, the consecutive
    segments of the given lengths, which add up to len(arr): the same
    floats, and where one of those math.fsum calls raises, the exception of
    the first such segment.

    One _chunk_sums call per chunk of CHUNK elements buckets them by
    (segment, exponent). Scaled by its power of two, 2^(e - 27), a bucket
    sum is an exact float: it adds multiples of 2^-1074 to less than
    2^(e + 15), in units no finer than 2^(e - 53), so its bits fit, also
    where it is subnormal. One math.fsum per segment over its nonzero
    scaled sums, from each chunk the segment spans, is then the correctly
    rounded exact sum. If _chunk_sums declines a chunk, or its elements
    may be large enough for math.fsum to overflow part way, every segment
    goes to fsum_array instead.
    """
    arr = np.asarray(arr, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.intp)
    n = len(arr)
    if int(lengths.sum()) != n:
        raise ValueError(f"segment lengths add up to {int(lengths.sum())}, "
                         f"not to the {n} elements")
    segment = np.repeat(np.arange(len(lengths)), lengths)
    counts = np.zeros(len(lengths), dtype=np.intp)   # scaled sums per segment
    scaled = []
    buffers = _buffers(min(n, CHUNK))
    rows = np.empty(min(n, CHUNK), dtype=np.intp)
    lanes = _lanes()
    for start in range(0, n, CHUNK):
        chunk = arr[start:start + CHUNK]
        k = len(chunk)
        first, last = int(segment[start]), int(segment[start + k - 1])
        r = rows[:k]
        np.subtract(segment[start:start + k], first, out=r)
        r *= _LANES
        r += lanes[:k]
        sums = _chunk_sums(chunk, r, last - first + 1, buffers)
        if (sums is None or sums[0] + sums[1].shape[1] - 1 + n.bit_length()
                > _MAX_MAGNITUDE):
            return [fsum_array(part)
                    for part in np.split(arr, np.cumsum(lengths)[:-1])]
        lo, high, low = sums
        powers = np.arange(lo - 27, lo - 27 + high.shape[1])
        parts = np.concatenate((np.ldexp(high, powers),
                                np.ldexp(low, powers)), axis=1)
        nonzero = parts != 0.0
        scaled.append(parts[nonzero])
        counts[first:last + 1] += nonzero.sum(axis=1)
    values = np.concatenate(scaled).tolist() if scaled else []
    ends = np.cumsum(counts).tolist()
    return [math.fsum(values[begin:end])
            for begin, end in zip([0] + ends[:-1], ends)]
