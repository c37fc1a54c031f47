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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .accum import neumaier_step

#: Euler-Mascheroni constant, 20 digits.
EULER_GAMMA = 0.57721566490153286061

#: Default number of Euler-Maclaurin partial terms.
DEFAULT_EM_TERMS = 50

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


class PrecisionError(ArithmeticError):
    """Requested target precision is not reachable; carries the estimate."""

    def __init__(self, estimate: float, target: float) -> None:
        super().__init__(
            f"estimated error {estimate:.3e} exceeds target {target:.3e}; "
            "increase n_terms"
        )
        self.estimate = estimate
        self.target = target


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


def _em_laurent(x: np.ndarray, n_terms: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Coefficients (c0, c1) of zeta(1+eps, x) = 1/eps + c0 + c1*eps + ...

    Vectorized over x > 0. Returns (c0, c1, error_bound) where the bound is
    the first omitted Bernoulli term, valid for both coefficients.
    """
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


def stieltjes01(
    a: int,
    q: int,
    n_terms: int = DEFAULT_EM_TERMS,
    *,
    err_target: float | None = None,
) -> StieltjesPair:
    """gamma_0(a/q) and gamma_1(a/q) with an a-priori error estimate.

    Preconditions: a >= 1, q >= 1, n_terms >= 10. If err_target is given and
    the estimate exceeds it, PrecisionError is raised carrying the estimate.
    """
    if a < 1 or q < 1:
        raise ValueError(f"need a >= 1 and q >= 1, got a={a}, q={q}")
    if n_terms < 10:
        raise ValueError(f"n_terms must be >= 10, got {n_terms}")
    c0, c1, err = _em_laurent(np.float64(a / q), n_terms)
    if err_target is not None and err > err_target:
        raise PrecisionError(err, err_target)
    return StieltjesPair(a=a, q=q, gamma0=float(c0), gamma1=float(-c1),
                         err_estimate=err)


def stieltjes_pair_table(
    q: int, n_terms: int = DEFAULT_EM_TERMS
) -> tuple[np.ndarray, np.ndarray, float]:
    """(gamma0, gamma1) at a/q for a = 1..q, as arrays indexed by a-1."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if n_terms < 10:
        raise ValueError(f"n_terms must be >= 10, got {n_terms}")
    x = np.arange(1, q + 1, dtype=np.float64) / q
    c0, c1, err = _em_laurent(x, n_terms)
    return c0, -c1, err
