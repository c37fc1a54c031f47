"""The compensated Euler-Maclaurin kernel in its Neumaier form.

em_laurent_neumaier is the kernel stieltjes._em_laurent had before it became
branch-free: every addition goes through neumaier_step, which picks the
Fast2Sum operand order by comparing magnitudes and allocates its
temporaries. The library's kernel must give the same floats, bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

from ekconst.stieltjes import (_B14_OVER_14, _BERN_OVER_2J, _H13,
                               _HARMONIC_ODD)


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


def em_laurent_neumaier(x: np.ndarray, n_terms: int
                        ) -> tuple[np.ndarray, np.ndarray, float]:
    """(c0, c1, error_bound) as stieltjes._em_laurent, by Neumaier steps."""
    x = np.asarray(x, dtype=np.float64)
    c0 = np.zeros_like(x)
    c1 = np.zeros_like(x)
    comp0 = np.zeros_like(x)
    comp1 = np.zeros_like(x)
    for k in range(n_terms):
        xk = x + k
        inv = 1.0 / xk
        c0, comp0 = neumaier_step(c0, comp0, inv)
        c1, comp1 = neumaier_step(c1, comp1, -np.log(xk) * inv)
    u = x + n_terms
    logu = np.log(u)
    invu = 1.0 / u
    c0, comp0 = neumaier_step(c0, comp0, -logu)
    c0, comp0 = neumaier_step(c0, comp0, 0.5 * invu)
    c1, comp1 = neumaier_step(c1, comp1, 0.5 * logu * logu)
    c1, comp1 = neumaier_step(c1, comp1, -0.5 * logu * invu)
    upow = np.ones_like(u)
    for b2j, hodd in zip(_BERN_OVER_2J, _HARMONIC_ODD):
        upow = upow * invu * invu
        c0, comp0 = neumaier_step(c0, comp0, b2j * upow)
        c1, comp1 = neumaier_step(c1, comp1, b2j * upow * (hodd - logu))
    umin = float(np.min(u))
    tail = _B14_OVER_14 * umin**-14
    err = tail * max(1.0, _H13 + abs(math.log(umin)))
    return c0 + comp0, c1 + comp1, err
