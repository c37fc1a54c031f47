"""Decomposition terms and the exact identity.

Every term has an independent route in here: literal character sums for the
conductor correction and the proxy defect, piecewise-exact integration for
the window terms (the implementation swaps summation and integration, the
oracle does not), plain enumeration for the progression and ramified terms.
The per-term route, one full-length pass per term over the prime powers
with the characters' class tables as the proxy's weights, is the oracle of
the library's one sliced pass, bit for bit.
"""
import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from ekconst import (EULER_GAMMA, ConductorCache, DecompositionReport,
                     build_group, build_tables, conductor_correction,
                     decompose, divisors, factorize, gamma_q,
                     gamma_q_from_prime_sums, layer_weight, mobius,
                     mobius_layer_sum, primitive_characters, psi, psi_mod,
                     ramified_term, totient)
from ekconst.accum import CHUNK, fsum_array
from ekconst.sieve import _prefix, coprime_mask, residues
from lvalue_oracle import l_values, phi_chi


def _prime_powers(tables, hi):
    pp = tables.prime_powers
    k = int(np.searchsorted(pp, math.floor(hi), side="right"))
    return pp[:k], tables.prime_power_logs[:k]


# ------------------------------------------------------- per-term oracle


def _remainder_sum(q, x, pp, vals):
    # (phi(q) * sum of vals[n = 1 mod q] - sum of vals) / (x - 1), both
    # sums exactly rounded
    full = fsum_array(vals)
    prog = fsum_array(vals[residues(pp, q) == 1 % q])
    return (totient(q) * prog - full) / (x - 1.0)


def progression_term(q, x, tables):
    pp, lg = _prefix(tables, x)
    return _remainder_sum(q, x, pp, lg * np.log(x / pp))


def window_term(q, x, x_split, tables, part):
    # each prime power n <= hi contributes Lambda(n) J(max(lo, n), hi),
    # with J(a, b) = x(1/a - 1/b) - log(b/a)
    if part not in (1, 2, 3):
        raise ValueError(f"part must be 1, 2 or 3, got {part}")
    lo, hi = [(1.0, float(q)), (float(q), float(x_split)),
              (float(x_split), float(x))][part - 1]
    if hi <= lo:
        return 0.0
    pp, lg = _prefix(tables, hi)
    if pp.size == 0:
        return 0.0
    a = np.maximum(pp.astype(np.float64), lo)
    jw = x * (1.0 / a - 1.0 / hi) - (math.log(hi) - np.log(a))
    return _remainder_sum(q, x, pp, lg * jw)


def _class_table(d):
    # T[r] = sum of chi(r) over the primitive chi mod d: for gcd(r, d) = 1
    # that is sum_{e | gcd(d, r-1)} phi(e) mu(d/e), else 0
    table = np.zeros(d, dtype=np.int64)
    for e in divisors(d):
        me = mobius(d // e)
        if me:
            table[1 % e::e] += totient(e) * me
    table[~coprime_mask(d)] = 0
    return table


def _tiled_class_tables(q):
    # the class tables of every conductor d > 1 dividing q, each repeated
    # q/d times, added into one table mod q
    weights = np.zeros(q, dtype=np.int64)
    for d in divisors(q)[1:]:
        weights += np.tile(_class_table(d), q // d)
    return weights


def _weighted_prime_sum(weights, x, tables):
    # exactly rounded sum of Lambda(n) (x - n)/n * weights[n mod m] over
    # the prime powers n <= x, m = len(weights)
    pp, lg = _prefix(tables, x)
    w = weights[residues(pp, weights.size)]
    nz = w != 0
    n = pp[nz]
    return fsum_array(lg[nz] * (x - n) / n * w[nz])


def _proxy_average(q, x, tables):
    return _weighted_prime_sum(_tiled_class_tables(q), x, tables) / (x - 1.0)


def proxy_defect(q, x, tables, cache):
    parts = cache.fill(divisors(q)[1:])
    parts.append(_proxy_average(q, x, tables))
    return math.fsum(parts)


def _decompose_per_term(q, x, x_split, tables, cache):
    lhs = gamma_q(q, cache).value
    a_val = proxy_defect(q, x, tables, cache)
    b_val = conductor_correction(q, x, tables)
    g2 = progression_term(q, x, tables)
    g3 = ramified_term(q, x, tables)
    w1, w2, w3 = (window_term(q, x, x_split, tables, part)
                  for part in (1, 2, 3))
    rhs = math.fsum([EULER_GAMMA, a_val, b_val, g3, -g2, -g3, -w1, -w2, -w3])
    return DecompositionReport(
        q=q, x=float(x), x_split=float(x_split), proxy_defect=a_val,
        conductor_correction=b_val, progression=g2, ramified=g3,
        window_head=w1, window_mid=w2, window_tail=w3, gamma_q_direct=lhs,
        residual=lhs - rhs)


def _primitive_phi_sum(d, x, tables):
    # the per-conductor route: the sum of avg_chi(x) over the primitive chi
    # mod d, one pass over the class table of d alone
    return _weighted_prime_sum(_class_table(d), x, tables) / (x - 1.0)


def _hex_fields(rep):
    return [float(getattr(rep, f.name)).hex()
            for f in dataclasses.fields(rep)]


# ------------------------------------------------------------- layer sums


def test_mobius_layer_sum_literal_values():
    # q = 12, p = 2: the p-free part is 3, so only d in {1, 3} survive
    assert mobius_layer_sum(3, 2, 12) == 1
    assert mobius_layer_sum(1, 2, 12) == 0
    assert mobius_layer_sum(6, 2, 12) == 0   # p | d: empty sum
    assert mobius_layer_sum(12, 2, 12) == 0


def test_mobius_layer_sum_is_indicator():
    # collapses to [d == p-free part of q]
    for q in (4, 12, 45, 100, 360):
        for p in set(int(x) for x in _factor_list(q)):
            r = q
            while r % p == 0:
                r //= p
            for d in divisors(q):
                assert mobius_layer_sum(d, p, q) == (1 if d == r else 0)


def _factor_list(n):
    out = []
    m, p = n, 2
    while p * p <= m:
        while m % p == 0:
            out.append(p)
            m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def test_layer_weight_dual_route():
    # layer_weight(p, v, q) must equal the uncollapsed double sum
    # sum_{d | p^v - 1} phi(d) * mobius_layer_sum(d, p, q)
    for q in (4, 12, 45, 100):
        for p in sorted(set(_factor_list(q))):
            pv = p
            v = 1
            while pv <= 10_000:
                direct = layer_weight(p, v, q)
                double = sum(totient(d) * mobius_layer_sum(d, p, q)
                             for d in divisors(q) if (pv - 1) % d == 0)
                assert direct == double, (p, v, q)
                pv *= p
                v += 1


# ------------------------------------------- conductor correction (B term)


def _b_brute_character_sum(q, x, tables):
    # pre-collapse triple sum: for each ramified prime power, weight by the
    # full primitive-character sum over every conductor dividing the p-free
    # part of q (including conductor 1)
    terms = []
    for p in sorted(set(_factor_list(q))):
        r = q
        while r % p == 0:
            r //= p
        chars = []
        for d in divisors(r):
            chars.extend(primitive_characters(build_group(d)))
        n = p
        while n <= x:
            s = sum(chi.value_table()[n % chi.modulus] for chi in chars)
            assert abs(s.imag) < 1e-12
            terms.append(math.log(p) * (x - n) / n * s.real)
            n *= p
    return -math.fsum(terms) / (x - 1.0)


@pytest.mark.parametrize("q,x", [(4, 100.0), (12, 200.0), (45, 500.0),
                                 (8, 64.0)])
def test_conductor_correction_vs_brute_character_sum(q, x, tables_small):
    brute = _b_brute_character_sum(q, x, tables_small)
    got = conductor_correction(q, x, tables_small)
    assert got == pytest.approx(brute, abs=1e-12)


def test_conductor_correction_known_spots(tables_small):
    # frozen from the brute-force route above on first run
    assert conductor_correction(4, 100.0, tables_small) == pytest.approx(
        -0.647199924273, abs=1e-9)
    assert conductor_correction(12, 200.0, tables_small) == pytest.approx(
        -0.686807507086, abs=1e-9)


def test_conductor_correction_nonpositive_sample(tables_small):
    for q in range(1, 200):
        assert conductor_correction(q, 1e4, tables_small) <= 0.0, q


def test_trivial_modulus_terms_vanish(shared_cache, tables_small):
    # q = 1 has no prime factors and no nonprincipal characters
    assert conductor_correction(1, 1000.0, tables_small) == 0.0
    assert ramified_term(1, 1000.0, tables_small) == 0.0
    rep = decompose(1, 1000.0, 1.0, tables_small, shared_cache)
    assert rep.proxy_defect == 0.0


# ------------------------------------------------- ramified / progression


def test_ramified_term_direct_enumeration(tables_small):
    q, x = 12, 500.0
    want = []
    for n in range(2, 501):
        base = _factor_list(n)
        if len(set(base)) == 1 and q % base[0] == 0:
            want.append(math.log(base[0]) * (x - n) / n)
    assert ramified_term(q, x, tables_small) == pytest.approx(
        math.fsum(want) / (x - 1.0), abs=1e-12)


def test_ramified_term_nonnegative(tables_small):
    for q in (1, 2, 7, 12, 45, 128, 1999):
        for x in (10.0, 1e3, 1e4):
            assert ramified_term(q, x, tables_small) >= 0.0


def test_progression_term_direct_enumeration(shared_cache, tables_small):
    q, x = 7, 300.0
    full, prog = [], []
    for n in range(2, 301):
        base = _factor_list(n)
        if len(set(base)) == 1:
            v = math.log(base[0]) * math.log(x / n)
            full.append(v)
            if n % q == 1:
                prog.append(v)
    want = (totient(q) * math.fsum(prog) - math.fsum(full)) / (x - 1.0)
    got = decompose(q, x, float(q), tables_small, shared_cache).progression
    assert got == pytest.approx(want, abs=1e-12)


def test_terms_accept_modulus_above_table_bound():
    # only x is bounded by the table; q and d may exceed it
    small, large = build_tables(1000), build_tables(2000)
    for q in (1009, 1500, 1998):
        assert (gamma_q_from_prime_sums(q, 500.0, small)
                == gamma_q_from_prime_sums(q, 500.0, large)), q
        assert (_primitive_phi_sum(q, 500.0, small)
                == _primitive_phi_sum(q, 500.0, large)), q


@pytest.mark.parametrize("q,want", [
    (2**32, "0x1.e138152538053p+2"),
    (2**32 + 1, "0x1.06c2cb919e884p+3"),
    (2**40, "0x1.e138152538053p+2")])
def test_gamma_q_from_prime_sums_of_a_modulus_past_uint32(q, want):
    # the residues mod q of the uint32 prime powers are the prime powers
    # themselves; the values are those of the int64 tables
    got = gamma_q_from_prime_sums(q, 1e4, build_tables(10**4))
    assert got.hex() == want


def test_decompose_makes_no_full_length_copy(tables_big):
    # every search of the uint32 tables casts its needle: one that numpy
    # promotes copies the prime powers to int64, 5.3 MB at x = 1e7, while
    # the pass itself holds slice-sized buffers
    tracemalloc.start()
    try:
        decompose(45, 1e7, 2025.0, tables_big, ConductorCache(None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tables_big.prime_powers.nbytes, peak


def test_progression_term_mod_one_vanishes(shared_cache, tables_small):
    # phi(1) = 1 and every n is 0 = 1 mod 1, so the bracket cancels exactly
    got = decompose(1, 1e4, 1.0, tables_small, shared_cache).progression
    assert got == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------- windows


def _window_oracle_piecewise(q, x, lo, hi, tables):
    # independent route: R(u) = phi(q) psi(u; q, 1) - psi(u) is a step
    # function, so integrate (x-u)/u^2 exactly on each flat piece using the
    # antiderivative -x/u - log(u)
    if hi <= lo:
        return 0.0
    pp, lg = _prime_powers(tables, hi)
    breaks = sorted({float(lo), float(hi)}
                    | {float(n) for n in pp if lo < n < hi})

    def anti(u):
        return -x / u - math.log(u)

    phi_q = totient(q)
    total = []
    for a, b in zip(breaks, breaks[1:]):
        r_val = phi_q * psi_mod(tables, a, q, 1 % q) - psi(tables, a)
        total.append(r_val * (anti(b) - anti(a)))
    return math.fsum(total) / (x - 1.0)


@pytest.mark.parametrize("q,x,x_split", [(5, 100.0, 25.0), (7, 2000.0, 49.0),
                                         (6, 10_000.0, 36.0),
                                         (12, 500.0, 12.0)])
def test_window_terms_vs_piecewise_integration(q, x, x_split, shared_cache,
                                               tables_small):
    rep = decompose(q, x, x_split, tables_small, shared_cache)
    windows = (rep.window_head, rep.window_mid, rep.window_tail)
    for part, (lo, hi) in enumerate(
            [(1.0, float(q)), (float(q), x_split), (x_split, x)], start=1):
        got = windows[part - 1]
        want = _window_oracle_piecewise(q, x, lo, hi, tables_small)
        assert got == pytest.approx(want, abs=1e-9), (q, part)


def test_window_piecewise_oracle_vs_scipy_quad(tables_small):
    # validate the oracle itself on a small window with few breakpoints
    q, x = 7, 49.0
    pp, _ = _prime_powers(tables_small, x)

    def integrand(u):
        r = totient(q) * psi_mod(tables_small, u, q, 1) - psi(
            tables_small, u)
        return r * (x - u) / (u * u)

    val, est_err = quad(integrand, q, x,
                        points=[float(n) for n in pp if q < n < x],
                        limit=200)
    want = _window_oracle_piecewise(q, x, q, x, tables_small)
    assert val / (x - 1.0) == pytest.approx(want, abs=1e-7)


def test_window_edge_cases(shared_cache, tables_small):
    # degenerate split points give empty windows, and the head+mid+tail
    # total is split-invariant
    q, x = 11, 3000.0
    assert decompose(q, x, float(q), tables_small,
                     shared_cache).window_mid == 0.0
    assert decompose(q, x, x, tables_small, shared_cache).window_tail == 0.0
    totals = []
    for x_split in (float(q), 121.0, 1500.0, x):
        rep = decompose(q, x, x_split, tables_small, shared_cache)
        totals.append(math.fsum([rep.window_head, rep.window_mid,
                                 rep.window_tail]))
    for t in totals[1:]:
        assert t == pytest.approx(totals[0], abs=1e-10)


def test_window_part_validation(shared_cache, tables_small):
    with pytest.raises(ValueError):
        window_term(5, 100.0, 25.0, tables_small, 4)
    # the library's windows come only through decompose, which checks the
    # split
    with pytest.raises(ValueError, match="need q <= x_split <= x"):
        decompose(5, 100.0, 3.0, tables_small, shared_cache)   # x_split < q
    with pytest.raises(ValueError, match="need q <= x_split <= x"):
        decompose(5, 100.0, 200.0, tables_small, shared_cache)  # > x


# ------------------------------------------------------------ proxy defect


def _primitive_phi_sum_full_pass(d, x, tables):
    # the per-divisor route: one full residue pass over the prime powers
    # for each e | d, weighting n by phi(e) mu(d/e) [n = 1 mod e], then a
    # gcd pass that zeroes the n sharing a factor with d
    pp, lg = _prime_powers(tables, x)
    if pp.size == 0:
        return 0.0
    weight = np.zeros(pp.size, dtype=np.int64)
    for e in divisors(d):
        me = mobius(d // e)
        if me == 0:
            continue
        weight += (totient(e) * me) * (pp % e == 1 % e)
    weight[np.gcd(pp, d) != 1] = 0
    return math.fsum((lg * (x - pp) / pp * weight).tolist()) / (x - 1.0)


_ORACLE_MODULI = sorted(set(range(1, 401)) | set(divisors(2310))
                        | set(divisors(3600)) | set(divisors(4620)))


def test_closed_form_proxy_weight_equals_the_class_tables():
    # the weight the pass gives a prime power n = r mod q, the total of
    # chi(r) over the primitive chi of every conductor d > 1 dividing q, is
    # phi(q_r) [r = 1 mod q_r] - 1 with q_r the largest divisor of q
    # coprime to r
    for q in range(1, 501):
        coprime_part = {}
        for g in divisors(q):
            q_r = q
            for p, _ in factorize(g):
                while q_r % p == 0:
                    q_r //= p
            coprime_part[g] = q_r
        got = [totient(q_r) * (r % q_r == 1 % q_r) - 1
               for r in range(q)
               for q_r in (coprime_part[math.gcd(r, q)],)]
        assert got == _tiled_class_tables(q).tolist(), q


@pytest.mark.parametrize("x", [1e4, 1e6])
def test_primitive_phi_sum_bit_identical_to_full_pass(tables_big, x):
    for d in _ORACLE_MODULI:
        got = _primitive_phi_sum(d, x, tables_big)
        want = _primitive_phi_sum_full_pass(d, x, tables_big)
        assert got.hex() == want.hex(), (d, x)


@pytest.mark.parametrize("x", [1e4, 1e6])
def test_proxy_defect_vs_full_pass_parts(shared_cache, tables_big, x):
    # one residue pass against the fsum of the per-divisor parts
    for q in (12, 45, 997, 1810, 2310, 3600, 4620):
        conductors = divisors(q)[1:]
        parts = shared_cache.fill(conductors)
        assert [t.hex() for t in parts] == [shared_cache.get(d)[0].hex()
                                            for d in conductors], q
        parts += [_primitive_phi_sum_full_pass(d, x, tables_big)
                  for d in conductors]
        got = decompose(q, x, float(q), tables_big, shared_cache).proxy_defect
        assert got == pytest.approx(math.fsum(parts), rel=0, abs=1e-14), q


def test_primitive_phi_sum_vs_per_character(tables_small):
    for d in (1, 3, 4, 5, 8, 9, 12, 16, 45):
        want = math.fsum(
            phi_chi(chi, 5000.0, tables_small).real
            for chi in primitive_characters(build_group(d)))
        got = _primitive_phi_sum(d, 5000.0, tables_small)
        assert got == pytest.approx(want, abs=1e-10), d


def test_primitive_phi_sum_imag_cancellation(tables_small):
    # the imaginary parts cancel in conjugate pairs; the integer-weight
    # route is real by construction, so compare against the complex total
    for d in (5, 7, 9):
        total = sum(phi_chi(chi, 2000.0, tables_small)
                    for chi in primitive_characters(build_group(d)))
        assert abs(total.imag) < 1e-12


def test_proxy_defect_vs_per_character(shared_cache, tables_small):
    for q in (4, 12, 45):
        want = []
        for d in divisors(q):
            if d == 1:
                continue
            for chi in primitive_characters(build_group(d)):
                want.append(l_values(chi).logderiv.real)
                want.append(phi_chi(chi, 2000.0, tables_small).real)
        got = decompose(q, 2000.0, float(q), tables_small,
                        shared_cache).proxy_defect
        assert got == pytest.approx(math.fsum(want), abs=1e-9), q


def test_proxy_defect_shrinks_with_x(shared_cache, tables_big):
    # the proxy converges to -L'/L, so the defect at 1e7 is much smaller
    # than at 1e3
    for q in (3, 4, 7):
        small, large = (abs(decompose(q, x, float(q), tables_big,
                                      shared_cache).proxy_defect)
                        for x in (1e3, 1e7))
        assert large < small
        assert large < 5e-3


# ---------------------------------------------------- prime-sum estimate


@pytest.mark.parametrize("x", [1e4, 1e6])
def test_gamma_q_from_prime_sums_vs_per_character(tables_big, x):
    # gamma - sum of Re Phi_chi(x) over the primitive chi of every
    # conductor d > 1 dividing q, one complex value table per character
    per_conductor = {}
    for q in (*range(1, 61), 997, 2310):
        for d in divisors(q)[1:]:
            if d not in per_conductor:
                per_conductor[d] = math.fsum(
                    phi_chi(chi, x, tables_big).real
                    for chi in primitive_characters(build_group(d)))
        want = EULER_GAMMA - math.fsum(per_conductor[d]
                                       for d in divisors(q)[1:])
        got = gamma_q_from_prime_sums(q, x, tables_big)
        assert got == pytest.approx(want, rel=0, abs=1e-11), q


@pytest.mark.parametrize("x", [1e4, 1e6])
def test_gamma_q_from_prime_sums_is_gamma_q_minus_proxy_defect(
        shared_cache, tables_big, x):
    for q in (*range(1, 61), 97, 120, 997, 2310):
        want = (gamma_q(q, shared_cache).value
                - decompose(q, x, float(q), tables_big,
                            shared_cache).proxy_defect)
        got = gamma_q_from_prime_sums(q, x, tables_big)
        assert got == pytest.approx(want, rel=0, abs=1e-14), q


def test_gamma_q_from_prime_sums_domain_validation(tables_big):
    # the module's one q/x check, with the message of every other function
    with pytest.raises(ValueError, match="q must be >= 1, got 0"):
        gamma_q_from_prime_sums(0, 1e4, tables_big)
    for x in (1.0, 0.5, 2e7, math.nan):
        with pytest.raises(ValueError, match=r"^x must satisfy 1 < x <= "
                                             r"10000000 \(table bound\), got"):
            gamma_q_from_prime_sums(4, x, tables_big)


# -------------------------------------------------------------- decompose


def test_identity_residual_spot_checks(shared_cache, tables_small):
    for q, x, x_split in [(3, 1000.0, 9.0), (12, 10_000.0, 144.0),
                          (45, 2025.0, 2025.0), (2, 100.0, 4.0),
                          (1, 50.0, 1.0), (30, 900.0, 900.0)]:
        rep = decompose(q, x, x_split, tables_small, shared_cache)
        assert abs(rep.residual) < 1e-9, (q, x, x_split)


def test_report_fields_consistent(shared_cache, tables_small):
    q, x, x_split = 12, 5000.0, 144.0
    rep = decompose(q, x, x_split, tables_small, shared_cache)
    assert rep.q == q and rep.x == x and rep.x_split == x_split
    assert rep.gamma_q_direct == gamma_q(q, shared_cache).value
    # the per-term oracle, one function per term
    assert rep.proxy_defect == proxy_defect(q, x, tables_small, shared_cache)
    assert rep.conductor_correction == conductor_correction(q, x,
                                                            tables_small)
    assert rep.progression == progression_term(q, x, tables_small)
    assert rep.ramified == ramified_term(q, x, tables_small)
    assert rep.window_head == window_term(q, x, x_split, tables_small, 1)
    assert rep.window_mid == window_term(q, x, x_split, tables_small, 2)
    assert rep.window_tail == window_term(q, x, x_split, tables_small, 3)
    # reconstruct the residual from the published fields
    rhs = math.fsum([EULER_GAMMA, rep.proxy_defect,
                     rep.conductor_correction, rep.ramified,
                     -rep.progression, -rep.ramified, -rep.window_head,
                     -rep.window_mid, -rep.window_tail])
    assert rep.residual == rep.gamma_q_direct - rhs


#: x whose count of prime powers is CHUNK - 1, CHUNK and CHUNK + 1, as the
#: index of the last prime power <= x. A split at the last of the first
#: CHUNK prime powers ends a window's prefix exactly on a slice boundary.
_SLICE_EDGES = {"CHUNK - 1": CHUNK - 2, "CHUNK": CHUNK - 1,
                "CHUNK + 1": CHUNK}
#: Below x = 1e6 every oracle modulus runs. At 1e6 and at the slice edges,
#: where one modulus costs 10-40 ms, the divisors of 2310, 3600 and 4620
#: cover the ramified and the n = 1 mod q cases, and those of 4620 the
#: slice edges; the whole grid took 40 s more.
_LARGE_X_MODULI = sorted(set(divisors(2310)) | set(divisors(3600))
                         | set(divisors(4620)))


@pytest.mark.parametrize("x", [2.0, 2.5, 1e3, 12345.6, 1e6, *_SLICE_EDGES])
def test_decompose_bits_equal_the_per_term_oracle(shared_cache, tables_big,
                                                  x):
    # every field of the one sliced pass against one full-length pass per
    # term, bit for bit
    pp = tables_big.prime_powers
    moduli = (_ORACLE_MODULI if x in (2.0, 2.5, 1e3, 12345.6)
              else _LARGE_X_MODULI)
    if x in _SLICE_EDGES:
        x, moduli = float(pp[_SLICE_EDGES[x]]), divisors(4620)
    edge = float(pp[CHUNK - 1])
    for q in moduli:
        if q > x:
            break
        for x_split in sorted({float(q), float(min(q * q, x)), x}
                              | ({edge} if q <= edge <= x else set())):
            got = decompose(q, x, x_split, tables_big, shared_cache)
            want = _decompose_per_term(q, x, x_split, tables_big,
                                       shared_cache)
            assert _hex_fields(got) == _hex_fields(want), (q, x, x_split)


@pytest.mark.parametrize("x", [2.0, 2.5, 1e4, 1e7])
def test_gamma_q_from_prime_sums_bits_equal_the_oracle(tables_big, x):
    # the criterion-6 moduli, and some above x
    for q in (3, 4, 5, 7, 8, 9, 11, 12, 1009, 4620):
        want = EULER_GAMMA - _proxy_average(q, x, tables_big)
        got = gamma_q_from_prime_sums(q, x, tables_big)
        assert got.hex() == want.hex(), (q, x)


#: sha256 of the float.hex of every DecompositionReport field of
#: decompose(q, 1e6, min(q^2, 1e6)) for these moduli: 45, 997, 2310, 4620
#: and six of the seeded benchmark moduli. Generated at the commit before
#: fsum_array summed without Python floats; every exact sum must keep
#: every bit.
DECOMPOSE_1E6_MODULI = (45, 997, 2310, 4620, 541, 637, 1460, 2185, 3713,
                        4770)
DECOMPOSE_1E6_DIGEST = (
    "5b06918a0c48be649574c9ed331ffbe2485ccbdbdfc58ed0847b793c0499dd05")


def test_decompose_1e6_bits_frozen(shared_cache, tables_big):
    lines = []
    for q in DECOMPOSE_1E6_MODULI:
        rep = decompose(q, 1e6, float(min(q * q, 10**6)), tables_big,
                        shared_cache)
        lines += [f"{q} {f.name} {float(getattr(rep, f.name)).hex()}"
                  for f in dataclasses.fields(rep)]
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DECOMPOSE_1E6_DIGEST


@pytest.mark.parametrize("x", [1e3, 12345.6, 1e5])
def test_decompose_does_not_depend_on_the_table_bound(shared_cache,
                                                      tables_small, x):
    # every term reads the prime powers up to x alone, so tables sieved to
    # ceil(x) give the bits of tables sieved to 1e5
    tight = build_tables(math.ceil(x))
    for q in (1, 2, 12, 45, 115, 997):
        x_split = float(min(q * q, x))
        got = [[float(getattr(rep, f.name)).hex()
                for f in dataclasses.fields(rep)]
               for rep in (decompose(q, x, x_split, tables, shared_cache)
                           for tables in (tight, tables_small))]
        assert got[0] == got[1], q


def test_decompose_validation(shared_cache, tables_small):
    with pytest.raises(ValueError):
        decompose(5, 100.0, 3.0, tables_small, shared_cache)
    with pytest.raises(ValueError):
        decompose(5, 100.0, 101.0, tables_small, shared_cache)
    with pytest.raises(ValueError):
        decompose(5, 2e5, 25.0, tables_small, shared_cache)
    with pytest.raises(ValueError):
        decompose(0, 100.0, 1.0, tables_small, shared_cache)
