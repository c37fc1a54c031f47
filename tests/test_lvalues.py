"""L(1, chi), L'(1, chi) and the averaged prime-sum proxy.

L'(1, chi) per character comes from the scalar route in lvalue_oracle, and
so does the per-character proxy phi_chi.
"""
import math

import numpy as np
import pytest

from ekconst import (build_group, enumerate_characters, l_at_one,
                     primitive_characters)
from lvalue_oracle import l_values, phi_chi


def _chi_minus4():
    group = build_group(4)
    (chi,) = primitive_characters(group)
    return chi


def _euler_transform_leibniz(n_terms=80):
    # independent oracle for L(1, chi_-4): repeated averaging of the Leibniz
    # partial sums (Euler transform); converges geometrically, so 80 terms
    # reach machine precision
    total = 0.0
    sums = []
    for k in range(n_terms):
        total += (-1.0) ** k / (2 * k + 1)
        sums.append(total)
    while len(sums) > 1:
        sums = [(a + b) / 2.0 for a, b in zip(sums, sums[1:])]
    return sums[0]


def test_l_one_chi_minus4_is_pi_over_4():
    assert abs(l_at_one(_chi_minus4()) - math.pi / 4.0) < 1e-10


def test_l_one_chi_minus4_against_series_oracle():
    oracle = _euler_transform_leibniz()
    assert abs(oracle - math.pi / 4.0) < 1e-13  # oracle self-check
    assert abs(l_at_one(_chi_minus4()) - oracle) < 1e-10


def test_l_one_real_cubic_character():
    # chi mod 3: L(1) = pi / (3 sqrt 3), classical closed form recomputed here
    group = build_group(3)
    (chi,) = primitive_characters(group)
    want = math.pi / (3.0 * math.sqrt(3.0))
    assert abs(l_at_one(chi) - want) < 1e-12


def test_principal_character_rejected():
    with pytest.raises(ValueError):
        l_at_one(enumerate_characters(build_group(5))[0])
    with pytest.raises(ValueError):
        l_values(enumerate_characters(build_group(4))[0])


def test_conjugate_symmetry():
    for q in (5, 7, 12):
        chars = enumerate_characters(build_group(q))
        for chi in chars:
            if chi.is_principal:
                continue
            conj = next(c for c in chars
                        if all((a + b) % d == 0 for a, b, d in
                               zip(c.exponents, chi.exponents,
                                   chi.group.orders)))
            rec = l_values(chi)
            rec_c = l_values(conj)
            assert abs(rec.l_one - rec_c.l_one.conjugate()) < 1e-12
            assert abs(rec.l_prime_one - rec_c.l_prime_one.conjugate()) < 1e-11


def test_l_values_record_consistency():
    for q in (3, 4, 5, 8):
        for chi in primitive_characters(build_group(q)):
            rec = l_values(chi)
            assert rec.modulus == q
            assert abs(rec.logderiv - rec.l_prime_one / rec.l_one) < 1e-13
            assert rec.err_estimate < 1e-9


def test_phi_chi_approximates_minus_logderiv(tables_big):
    # the two routes to L'/L(1, chi): digamma/Stieltjes closed form vs the
    # averaged prime sum; Phi_chi(x) -> -L'/L as x grows, close at x = 1e7
    for q in (3, 4, 5, 7):
        for chi in primitive_characters(build_group(q)):
            rec = l_values(chi)
            proxy = phi_chi(chi, 1e7, tables_big)
            assert abs(proxy - (-rec.logderiv)) < 5e-3, (q, chi.exponents)


def test_phi_chi_mod_one_direct_sum(tables_big):
    # chi mod 1 is identically 1, so Phi is a plain weighted prime-power sum
    chi = enumerate_characters(build_group(1))[0]
    x = 10_000.0
    pp = tables_big.prime_powers[tables_big.prime_powers <= 10_000]
    lg = tables_big.prime_power_logs[: len(pp)]
    want = float(np.sum(lg * (x - pp) / pp)) / (x - 1.0)
    assert phi_chi(chi, x, tables_big) == pytest.approx(want, rel=1e-12)
