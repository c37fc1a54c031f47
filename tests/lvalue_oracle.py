"""Per-character routes that cross-check the library's per-conductor ones.

l_values: each character's L(1, chi) comes from the digamma closed form
(ekconst.l_at_one) and its L'(1, chi) from one character sum over the
gamma_1(a/q) table of stieltjes_pair_table; no FFT and no conductor grid is
involved, and the character sum of L'(1, chi) is a math.fsum of its real
and imaginary parts, not the library's fsum_array. It checks the DFT of
ekgamma.

phi_chi: the averaged prime-sum proxy of one character,

    Phi_chi(x) = (1/(x-1)) * integral_1^x (sum_{n<=t} Lambda(n) chi(n)/n) dt
               = (1/(x-1)) * sum_{n<=x} (Lambda(n) chi(n) / n) * (x - n),

the integrand being a step function. Phi_chi(x) approaches -L'/L(1, chi) as
x grows. It reads the complex value table of chi, where the library reads
integer class tables once per modulus (decomp).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ekconst import (DEFAULT_EM_TERMS, ArithmeticTables, l_at_one,
                     stieltjes_pair_table)
from ekconst.characters import DirichletCharacter
from ekconst.ekgamma import MIN_ABS_L


@dataclass(frozen=True)
class LValueRecord:
    modulus: int
    exponents: tuple[int, ...]
    l_one: complex
    l_prime_one: complex
    logderiv: complex
    err_estimate: float


@lru_cache(maxsize=100_000)
def l_values(chi: DirichletCharacter,
             n_terms: int = DEFAULT_EM_TERMS) -> LValueRecord:
    """L(1, chi), L'(1, chi) and their ratio, with a propagated error bound."""
    q = chi.modulus
    l_one = l_at_one(chi)
    if abs(l_one) <= MIN_ABS_L:
        raise ArithmeticError(
            f"|L(1, chi)| = {abs(l_one):.3e} <= {MIN_ABS_L} for chi mod {q}, "
            f"exponents {chi.exponents}; log-derivative would be unreliable"
        )
    g1, em_err = stieltjes_pair_table(q, n_terms)[1:]
    vals = chi.value_table()
    terms = np.array(
        [vals[a] * g1[a - 1] for a in range(1, q) if vals[a] != 0],
        dtype=np.complex128,
    )
    logq = math.log(q)
    char_sum = complex(math.fsum(terms.real.tolist()),
                       math.fsum(terms.imag.tolist()))
    l_prime = -logq * l_one - char_sum / q
    logderiv = l_prime / l_one
    # Each table entry carries em_err; the character sum has at most q unit
    # coefficients, so both L and L' inherit about em_err after the 1/q.
    err_l = em_err
    err = (err_l * (1.0 + logq) + err_l * abs(logderiv)) / abs(l_one)
    return LValueRecord(
        modulus=q,
        exponents=chi.exponents,
        l_one=l_one,
        l_prime_one=l_prime,
        logderiv=logderiv,
        err_estimate=err,
    )


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
