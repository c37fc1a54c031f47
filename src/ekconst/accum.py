"""Compensated accumulation helpers.

Scalar exact summation is delegated to math.fsum. The helpers here cover the
two cases fsum does not: running accumulation where materializing all terms
is undesirable, and elementwise accumulation over numpy arrays.
"""
from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Iterator

import numpy as np


class Accumulator:
    """Running Neumaier (Kahan-Babuska) accumulator.

    Keeps a correction term alongside the running sum so that long streams of
    mixed-magnitude terms lose at most O(1) ulp instead of O(n).
    """

    __slots__ = ("_sum", "_comp")

    def __init__(self, start: float = 0.0) -> None:
        self._sum = float(start)
        self._comp = 0.0

    def add(self, term: float) -> None:
        t = self._sum + term
        if abs(self._sum) >= abs(term):
            self._comp += (self._sum - t) + term
        else:
            self._comp += (term - t) + self._sum
        self._sum = t

    def extend(self, terms: Iterable[float]) -> None:
        for term in terms:
            self.add(term)

    @property
    def value(self) -> float:
        return self._sum + self._comp


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


def neumaier_step(
    total: np.ndarray, comp: np.ndarray, term: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One elementwise Neumaier update for vectorized accumulation loops.

    Returns the new running total; `comp` is updated in place and must be
    added to the total once at the end.
    """
    t = total + term
    swap = np.abs(total) >= np.abs(term)
    comp += np.where(swap, (total - t) + term, (term - t) + total)
    return t, comp
