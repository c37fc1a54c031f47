"""Summation helpers.

Exact summation is math.fsum, scalar streams included. The helpers here feed
it numpy arrays: real ones a slice at a time, complex ones by parts. The one
elementwise compensated loop, where fsum does not apply, is the
Euler-Maclaurin kernel in stieltjes, which keeps its error-free additions
in place.
"""
from __future__ import annotations

import math
from itertools import chain
from typing import Iterator

import numpy as np

#: Elements that iter_floats converts to Python floats at a time. One slice
#: holds every array of a decompose at x = 1e6 (78,734 prime powers).
FLOAT_SLICE = 2**17


def iter_floats(arr: np.ndarray) -> Iterator[float]:
    """The elements of a 1-D float array as Python floats, converted one
    slice of FLOAT_SLICE at a time, so no list of the whole array is made."""
    return chain.from_iterable(arr[i:i + FLOAT_SLICE].tolist()
                               for i in range(0, len(arr), FLOAT_SLICE))


def fsum_array(arr: np.ndarray) -> float:
    """Exactly rounded sum of a 1-D float array (Shewchuk via math.fsum).
    fsum is exact in any order, so the slices give the whole list's sum."""
    return math.fsum(iter_floats(arr))


def fsum_complex(arr: np.ndarray) -> complex:
    """Exactly rounded complex sum: real and imaginary parts summed separately."""
    return complex(math.fsum(arr.real.tolist()), math.fsum(arr.imag.tolist()))

