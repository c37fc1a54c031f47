"""Dirichlet L-values at s = 1 and the averaged prime-sum proxy.

For non-principal chi mod q the Hurwitz expansion gives, with the pole
cancelling against sum_a chi(a) = 0:

    L(1, chi)  = -(1/q) * sum_a chi(a) * digamma(a/q)
    L'(1, chi) = -log(q) * L(1, chi) - (1/q) * sum_a chi(a) * gamma_1(a/q)

The proxy Phi_chi(x) = (1/(x-1)) * integral_1^x (sum_{n<=t} Lambda(n) chi(n)/n) dt
collapses exactly, the integrand being a step function, to

    Phi_chi(x) = (1/(x-1)) * sum_{n<=x} (Lambda(n) chi(n) / n) * (x - n).

Phi_chi(x) approaches -L'/L(1, chi) as x grows; the two routes are kept
independent so each can check the other. The library computes L'/L(1, chi)
only per conductor, by the DFT in ekgamma; the per-character route through
the second formula lives in the test suite as its cross-check.
"""
from __future__ import annotations

import math

import numpy as np

from .accum import fsum_complex
from .characters import DirichletCharacter
from .sieve import ArithmeticTables
from .stieltjes import digamma_rational

#: Below this |L(1, chi)| the log-derivative is numerically untrustworthy.
MIN_ABS_L = 1e-6


def l_at_one(chi: DirichletCharacter) -> complex:
    """L(1, chi) for non-principal chi, by the digamma closed form."""
    if chi.is_principal:
        raise ValueError("L(s, chi) has a pole at s = 1 for principal chi")
    q = chi.modulus
    vals = chi.value_table()
    terms = np.array(
        [vals[a] * digamma_rational(a, q) for a in range(1, q) if vals[a] != 0],
        dtype=np.complex128,
    )
    return -fsum_complex(terms) / q


def phi_chi(chi: DirichletCharacter, x: float,
            tables: ArithmeticTables) -> complex:
    """Averaged prime-sum proxy Phi_chi(x), exact step-function closed form."""
    if not 1 < x <= tables.bound:
        raise ValueError(
            f"x must satisfy 1 < x <= {tables.bound} (table bound), got {x}")
    xf = math.floor(x)
    count = int(np.searchsorted(tables.prime_powers, xf, side="right"))
    pp = tables.prime_powers[:count]
    logs = tables.prime_power_logs[:count]
    vals = chi.value_table()
    weights = logs * (x - pp) / pp
    total = np.dot(weights, vals[pp % chi.modulus])
    return complex(total) / (x - 1.0)
