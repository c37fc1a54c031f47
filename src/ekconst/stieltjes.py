"""Digamma and generalized Stieltjes constants at positive rationals.

Two independent evaluation routes are kept on purpose:

* digamma_rational uses the finite Gauss closed form (cotangent plus a
  cosine/log-sine sum), exact up to rounding of its O(q) terms.
* stieltjes01 expands the Hurwitz zeta Laurent series around s = 1 by
  Euler-Maclaurin. With zeta(s, x) = 1/(s-1) + sum_n (-1)^n gamma_n(x)
  (s-1)^n / n!, it returns gamma_0(x) = -digamma(x) and gamma_1(x). Each
  building block of the Euler-Maclaurin formula is expanded analytically in
  (s-1): partial terms (x+k)^(-s), the tail (x+N)^(1-s)/(s-1) whose pole
  cancels against the Laurent pole, the half term, and Bernoulli corrections
  through B_12 with Pochhammer factors (s)_{2j-1} = (2j-1)! (1 + eps*H_{2j-1}
  + O(eps^2)).

The error estimate is the magnitude of the first omitted Bernoulli term
(B_14), evaluated for both Laurent coefficients.

The Euler-Maclaurin sums are compensated: each addition's exact rounding
error, by TwoSum, or by Fast2Sum where the operand order is known, goes into
a running compensation, and both are updated in place in preallocated
buffers. Neumaier's step computes the same exact errors with a branch on the
magnitudes, so the values are the same bit for bit as with Neumaier
summation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

#: Euler-Mascheroni constant, 20 digits.
EULER_GAMMA = 0.57721566490153286061

#: Default number of Euler-Maclaurin partial terms: the smallest depth >= 10
#: whose tail bound, at its worst argument x -> 0+, is at most 2^-56, an
#: eighth of the unit roundoff (6.9e-18 at 16, 1.7e-17 at 15). Deeper runs
#: change no double measurably; each depth keeps its own precision tag.
DEFAULT_EM_TERMS = 16


def _check_em_terms(n_terms: int) -> None:
    """The one check of an Euler-Maclaurin depth: at least 10 terms."""
    if n_terms < 10:
        raise ValueError(f"n_terms must be >= 10, got {n_terms}")


# (B_{2j} / (2j), H_{2j-1}) for j = 1..6, as exact fractions evaluated once.
_BERN_OVER_2J = [
    float(Fraction(1, 12)),
    float(Fraction(-1, 120)),
    float(Fraction(1, 252)),
    float(Fraction(-1, 240)),
    float(Fraction(1, 132)),
    float(Fraction(691, 32760)),
]
_HARMONIC_ODD = [
    1.0,
    float(Fraction(11, 6)),
    float(Fraction(137, 60)),
    float(Fraction(363, 140)),
    float(Fraction(7129, 2520)),
    float(Fraction(83711, 27720)),
]
_B14_OVER_14 = float(Fraction(7, 6) / 14)
_H13 = float(Fraction(1145993, 360360))


@dataclass(frozen=True)
class StieltjesPair:
    a: int
    q: int
    gamma0: float
    gamma1: float
    err_estimate: float


@lru_cache(maxsize=200_000)
def digamma_rational(a: int, q: int) -> float:
    """digamma(a/q) by the Gauss closed form, any integers a >= 1, q >= 1.

    Arguments above 1 are shifted down with digamma(x+1) = digamma(x) + 1/x.
    Absolute error stays below 1e-12 for q up to a few thousand.
    """
    if a < 1 or q < 1:
        raise ValueError(f"need a >= 1 and q >= 1, got a={a}, q={q}")
    g = math.gcd(a, q)
    a //= g
    q //= g
    shifts = []
    while a > q:
        a -= q
        shifts.append(q / a)  # 1/(a/q) after the shift, i.e. q/a
    if a == q:  # x = 1
        return math.fsum(shifts) - EULER_GAMMA if shifts else -EULER_GAMMA
    theta = math.pi * a / q
    terms = [
        -EULER_GAMMA,
        -math.log(2 * q),
        -(math.pi / 2) * (math.cos(theta) / math.sin(theta)),
    ]
    for n in range(1, (q - 1) // 2 + 1):
        terms.append(
            2.0
            * math.cos(2 * math.pi * n * a / q)
            * math.log(math.sin(math.pi * n / q))
        )
    terms.extend(shifts)
    return math.fsum(terms)


def _sum_step(total: np.ndarray, term: np.ndarray, comp: np.ndarray,
              out: np.ndarray, e: np.ndarray, f: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """One compensated addition, in place and without a branch: out =
    fl(total + term), and the exact rounding error, by Knuth's TwoSum, is
    added to comp. That error is the float Neumaier's step adds (Fast2Sum on
    the side where it is exact), as long as nothing overflows. e and f are
    scratch; out, e and f are distinct from total and term. Returns
    (out, total): the new sum and the buffer now free."""
    np.add(total, term, out=out)
    np.subtract(out, total, out=f)       # term' = s - total
    np.subtract(out, f, out=e)           # total' = s - term'
    np.subtract(total, e, out=e)         # total - total'
    np.subtract(term, f, out=f)          # term - term'
    e += f
    comp += e
    return out, total


def _diff_step(total: np.ndarray, term: np.ndarray, comp: np.ndarray,
               out: np.ndarray, e: np.ndarray, f: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """_sum_step(total, -term, ...) with the negation folded into the
    subtractions: negation is exact and rounding symmetric, so out and comp
    get the same floats, and -term is never formed."""
    np.subtract(total, term, out=out)
    np.subtract(total, out, out=f)       # -term' = total - s
    np.add(out, f, out=e)                # total' = s + (-term')
    np.subtract(total, e, out=e)         # total - total'
    f -= term                            # -term - term'
    e += f
    comp += e
    return out, total


#: Bytes in a cache line of the x86-64 and arm64 hosts numpy runs on.
_CACHE_LINE = 64


def _line_aligned(x: np.ndarray) -> np.ndarray:
    """An uninitialised float64 array of x's shape, 0-d included, whose data
    starts on a _CACHE_LINE boundary: a view into a block 8 doubles longer,
    from its first aligned element."""
    raw = np.empty(x.size + _CACHE_LINE // 8, dtype=np.float64)
    skip = -raw.ctypes.data % _CACHE_LINE // 8
    return raw[skip:skip + x.size].reshape(x.shape)


def _em_laurent(x: np.ndarray, n_terms: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Coefficients (c0, c1) of zeta(1+eps, x) = 1/eps + c0 + c1*eps + ...

    Vectorized over x > 0. Returns (c0, c1, error_bound) where the bound is
    the first omitted Bernoulli term, valid for both coefficients.

    Each sum carries a compensation that receives the exact rounding error
    of every addition and is added once at the end. Everything runs in
    buffers allocated once per call: each new sum goes into a spare buffer,
    which then swaps roles with the old sum.

    The 12 buffers start on cache lines (_line_aligned). np.empty_like puts
    a 16384-point buffer 16 or 32 bytes past a line, so numpy's AVX-512
    loops split stores across lines: a 3-operand add over 16384 doubles
    took 10.8 us there against 4.9 us aligned, and a 16384-point call 4.8
    to 5.5 ms against 4.2 to 4.4 ms (medians of 200 calls, 2-core x86-64,
    numpy 2.4). The arithmetic is the same, so are the bits.
    """
    x = np.asarray(x, dtype=np.float64)
    c0, c1, comp0, comp1, t0, t1, xk, inv, w, v, err, tmp = (
        _line_aligned(x) for _ in range(12))
    for acc in (c0, c1, comp0, comp1):
        acc.fill(0.0)
    for k in range(n_terms):
        np.add(x, k, out=xk)
        np.divide(1.0, xk, out=inv)
        # c0 += 1/(x+k): the terms are positive and decreasing, so c0 >= inv
        # from k = 1 on and Fast2Sum is exact (at k = 0 it gives +0.0)
        np.add(c0, inv, out=t0)
        np.subtract(c0, t0, out=err)
        err += inv
        comp0 += err
        c0, t0 = t0, c0
        # c1 -= log(x+k)/(x+k), whose terms change sign
        np.log(xk, out=w)
        w *= inv
        c1, t1 = _diff_step(c1, w, comp1, t1, err, tmp)
    # the tail at u = x + N: w = log u, inv = 1/u, and xk, once its minimum
    # is read, holds a term and then the powers u^(-2j)
    np.add(x, n_terms, out=xk)
    umin = float(np.min(xk))
    np.log(xk, out=w)
    np.divide(1.0, xk, out=inv)
    c0, t0 = _diff_step(c0, w, comp0, t0, err, tmp)         # - log u
    np.multiply(inv, 0.5, out=v)
    c0, t0 = _sum_step(c0, v, comp0, t0, err, tmp)          # + 1/(2u)
    np.multiply(w, 0.5, out=v)
    np.multiply(v, w, out=xk)
    c1, t1 = _sum_step(c1, xk, comp1, t1, err, tmp)         # + (log u)^2/2
    v *= inv
    c1, t1 = _diff_step(c1, v, comp1, t1, err, tmp)         # - log u/(2u)
    xk.fill(1.0)
    for b2j, hodd in zip(_BERN_OVER_2J, _HARMONIC_ODD):
        xk *= inv
        xk *= inv
        np.multiply(xk, b2j, out=v)
        c0, t0 = _sum_step(c0, v, comp0, t0, err, tmp)
        np.subtract(hodd, w, out=err)
        v *= err
        c1, t1 = _sum_step(c1, v, comp1, t1, err, tmp)
    c0 += comp0
    c1 += comp1
    tail = _B14_OVER_14 * umin**-14
    return c0, c1, tail * max(1.0, _H13 + abs(math.log(umin)))


def stieltjes01(a: int, q: int,
                n_terms: int = DEFAULT_EM_TERMS) -> StieltjesPair:
    """gamma_0(a/q) and gamma_1(a/q) with an a-priori error estimate.

    Preconditions: a >= 1, q >= 1, n_terms >= 10.
    """
    if a < 1 or q < 1:
        raise ValueError(f"need a >= 1 and q >= 1, got a={a}, q={q}")
    _check_em_terms(n_terms)
    c0, c1, err = _em_laurent(np.float64(a / q), n_terms)
    return StieltjesPair(a=a, q=q, gamma0=float(c0), gamma1=float(-c1),
                         err_estimate=err)


def stieltjes_pair_table(
    q: int, n_terms: int = DEFAULT_EM_TERMS
) -> tuple[np.ndarray, np.ndarray, float]:
    """(gamma0, gamma1) at a/q for a = 1..q, as arrays indexed by a-1."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    _check_em_terms(n_terms)
    x = np.arange(1, q + 1, dtype=np.float64) / q
    c0, c1, err = _em_laurent(x, n_terms)
    return c0, -c1, err
