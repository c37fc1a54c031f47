"""The primes from a boolean sieve of all the integers up to a limit: a
reference that shares no code with the library's segmented sieve, nor with
the positions of the higher powers that its tables keep.
"""
from __future__ import annotations

import math

import numpy as np


def plain_sieve(limit: int) -> np.ndarray:
    """The primes <= limit, ascending, as int64."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return np.flatnonzero(flags).astype(np.int64)
