"""Exact finite-range decomposition of cyclotomic Euler-Kronecker constants.

Write, for a Dirichlet character chi mod m,

    avg_chi(x) = (1/(x-1)) * sum_{n <= x} Lambda(n) chi(n) (x - n)/n,

the smoothed prime-power average whose limit for growing x is -L'/L(1, chi).
Starting from

    gamma_q = gamma + sum_{d | q, d > 1} sum_{chi primitive mod d} L'/L(1, chi),

three exact bookkeeping moves turn the character side into prime-counting
sums, valid for every admissible pair (x, x_split):

1. Proxy defect. Add and subtract the averages:
   proxy_defect = sum of [L'/L(1, chi) + avg_chi(x)] over the same characters.

2. Conductor correction. Each primitive chi mod d also induces a character
   mod q; the two agree except on prime powers p^v with p | q, where the
   induced one vanishes. Trading every avg_chi(x) for its induced version
   (the principal character mod q trades against the constant function 1)
   costs

   correction = -(1/(x-1)) * sum_{p | q} sum_{p^v <= x}
                (log p / p^v) * w(p, v, q) * (x - p^v),

   where w(p, v, q) is sum chi(p^v) over every primitive character of
   conductor dividing q. Grouping that sum by the divisor d of p^v - 1
   picked out by each character and applying Moebius inversion collapses it:
   the layer sum over moduli m with d | m | q and p coprime to m of mu(m/d)
   equals 1 exactly when d is the largest divisor of q coprime to p (call it
   r) and 0 otherwise, so w = phi(r) if r | p^v - 1, else 0. Hence w >= 0
   and correction <= 0.

3. Full-modulus splitting. After the trade, the character sum runs over all
   nonprincipal chi mod q, where orthogonality gives sum chi(n) =
   phi(q)*[n == 1 mod q] - [gcd(n, q) = 1]. Partial summation against the
   weight (x - n)/n, with the step function R(u) = phi(q) psi(u; q, 1) -
   psi(u), splits the traded sum into

   progression = (1/(x-1)) * integral_1^x R(u)/u du,
   ramified    = (1/(x-1)) * sum_{gcd(n,q) > 1} Lambda(n) (x - n)/n  >= 0,
   windows     = (1/(x-1)) * integral R(u) (x - u)/u^2 du
                 taken over [1, q], [q, x_split], [x_split, x].

Combining the three moves, the ramified term cancels between the
correction's principal layer and the splitting, leaving the exact identity

    gamma_q = gamma + proxy_defect + (correction + ramified)
              - progression - ramified - window1 - window2 - window3.

Every term below is evaluated by exact order-swapped sums over prime powers
(no numerical quadrature in this module); decompose() reports the identity's
residual, which vanishes up to floating-point rounding for any admissible
x and x_split.

The averages avg_chi(x) never evaluate a character: the sum of chi(n) over
the primitive chi mod d is an integer that depends only on n mod d, so each
conductor's averages read one integer table over the residues mod d
(_class_table). The proxy defect adds the tables of every conductor d | q,
each repeated q/d times, into one table mod q, and reads it in a single pass
over the prime powers with one exactly rounded sum. The per-conductor sum,
one pass over one conductor's table, is the tests' oracle for that pass.
gamma_q_from_prime_sums, the estimate of gamma_q from prime sums alone,
reads the same pass: it is gamma - (that sum).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accum import fsum_array
from .ekgamma import ConductorCache, gamma_q
from .sieve import (ArithmeticTables, _lambda_of, _prefix, coprime_mask,
                    divisors, factorize, mobius, residues, totient)
from .stieltjes import DEFAULT_EM_TERMS, EULER_GAMMA


@dataclass(frozen=True)
class DecompositionReport:
    """All seven terms of the identity plus the directly computed constant.

    residual is gamma_q_direct minus the right-hand side assembled from the
    terms; conductor_correction is reported in its sign-definite collapsed
    form, which absorbs one copy of the ramified term (see module docstring).
    """

    q: int
    x: float
    x_split: float
    proxy_defect: float
    conductor_correction: float
    progression: float
    ramified: float
    window_head: float
    window_mid: float
    window_tail: float
    gamma_q_direct: float
    residual: float


def _check_args(q: int, x: float, tables: ArithmeticTables) -> None:
    """The one check of a modulus q >= 1 and a cutoff 1 < x <= the table
    bound."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not 1 < x <= tables.bound:
        raise ValueError(
            f"x must satisfy 1 < x <= {tables.bound} (table bound), got {x}")


def _check_window(q: int, x: float, x_split: float,
                  tables: ArithmeticTables) -> None:
    _check_args(q, x, tables)
    if not q <= x_split <= x:
        raise ValueError(
            f"need q <= x_split <= x, got q={q}, x_split={x_split}, x={x}")


def _remainder_sum(q: int, x: float, pp: np.ndarray,
                   vals: np.ndarray) -> float:
    """(phi(q) * sum of vals[n = 1 mod q] - sum of vals) / (x - 1), both
    sums exactly rounded, for values vals at the prime powers pp: the
    partial sum of R(u) = phi(q) psi(u; q, 1) - psi(u) against a weight."""
    full = fsum_array(vals)
    prog = fsum_array(vals[residues(pp, q) == 1 % q])
    return (totient(q) * prog - full) / (x - 1.0)


def mobius_layer_sum(d: int, p: int, q: int) -> int:
    """Sum of mu(m/d) over moduli m with d | m | q and p not dividing m.

    Collapses to 1 exactly when d is the largest divisor of q coprime to p,
    else to 0. layer_weight() uses the collapsed form; this literal sum is
    its independent cross-check and is always 0 or 1.
    """
    if d < 1 or p < 2 or q < 1:
        raise ValueError("need d >= 1, p >= 2, q >= 1")
    total = 0
    for m in divisors(q):
        if m % d == 0 and m % p != 0:
            total += mobius(m // d)
    return total


def layer_weight(p: int, v: int, q: int) -> int:
    """Collapsed character-sum weight at p^v: phi(r) if r | p^v - 1 else 0,
    with r the largest divisor of q coprime to p."""
    if v < 1:
        raise ValueError(f"exponent must be >= 1, got {v}")
    r = q
    while r % p == 0:
        r //= p
    if pow(p, v, r) != 1 % r:
        return 0
    return totient(r)


def _ramified_powers(q: int, x: float, tables: ArithmeticTables):
    """(p, v, n, Lambda(n)) for the prime powers n = p^v <= x with p | q."""
    for p, _ in factorize(q):
        n, v = p, 1
        while n <= x:
            yield p, v, n, _lambda_of(tables, n)
            n, v = n * p, v + 1


def conductor_correction(q: int, x: float, tables: ArithmeticTables) -> float:
    """Cost of reading every primitive character mod q instead of mod its
    conductor; nonpositive by construction, and +0.0 when no layer weight
    is nonzero. The weight at p^v is layer_weight(p, v, q)."""
    _check_args(q, x, tables)
    terms = []
    for p, v, n, lam in _ramified_powers(q, x, tables):
        w = layer_weight(p, v, q)
        if w:
            terms.append(w * lam * (x - n) / n)
    return 0.0 - math.fsum(terms) / (x - 1.0)


def ramified_term(q: int, x: float, tables: ArithmeticTables) -> float:
    """Smoothed average over prime powers sharing a factor with q; >= 0."""
    _check_args(q, x, tables)
    return math.fsum(lam * (x - n) / n for _, _, n, lam
                     in _ramified_powers(q, x, tables)) / (x - 1.0)


def progression_term(q: int, x: float, tables: ArithmeticTables) -> float:
    """(1/(x-1)) * [phi(q) sum_{n <= x, n = 1 mod q} Lambda(n) log(x/n)
    - sum_{n <= x} Lambda(n) log(x/n)], evaluated exactly."""
    _check_args(q, x, tables)
    pp, lg = _prefix(tables, x)
    return _remainder_sum(q, x, pp, lg * np.log(x / pp))


def window_term(q: int, x: float, x_split: float, tables: ArithmeticTables,
                part: int) -> float:
    """One window of (1/(x-1)) * integral R(u) (x-u)/u^2 du with
    R(u) = phi(q) psi(u; q, 1) - psi(u).

    part selects [1, q], [q, x_split] or [x_split, x]. The integral is
    evaluated by swapping summation and integration: each prime power n
    contributes its Lambda-weight times J(max(lo, n), hi) where
    J(a, b) = x(1/a - 1/b) - log(b/a) is the exact window integral of
    (x - u)/u^2.
    """
    _check_window(q, x, x_split, tables)
    if part == 1:
        lo, hi = 1.0, float(q)
    elif part == 2:
        lo, hi = float(q), float(x_split)
    elif part == 3:
        lo, hi = float(x_split), float(x)
    else:
        raise ValueError(f"part must be 1, 2 or 3, got {part}")
    if hi <= lo:
        return 0.0
    pp, lg = _prefix(tables, hi)
    if pp.size == 0:
        return 0.0
    a = np.maximum(pp.astype(np.float64), lo)
    jw = x * (1.0 / a - 1.0 / hi) - (math.log(hi) - np.log(a))
    return _remainder_sum(q, x, pp, lg * jw)


def _class_table(d: int) -> np.ndarray:
    """Length-d int64 table T with T[r] = sum_{chi primitive mod d} chi(r).

    For gcd(r, d) = 1 that is sum_{e | gcd(d, r-1)} phi(e) mu(d/e); for
    gcd(r, d) > 1 every chi(r) vanishes and T[r] = 0.
    """
    table = np.zeros(d, dtype=np.int64)
    for e in divisors(d):
        me = mobius(d // e)
        if me:
            table[1 % e::e] += totient(e) * me
    table[~coprime_mask(d)] = 0
    return table


def _weighted_prime_sum(weights: np.ndarray, x: float,
                        tables: ArithmeticTables) -> float:
    """Exactly rounded sum of Lambda(n) (x - n)/n * weights[n mod m] over
    the prime powers n <= x, where m = len(weights)."""
    pp, lg = _prefix(tables, x)
    w = weights[residues(pp, weights.size)]
    nz = w != 0
    n = pp[nz]
    return fsum_array(lg[nz] * (x - n) / n * w[nz])


def _proxy_average(q: int, x: float, tables: ArithmeticTables) -> float:
    """Sum of avg_chi(x) over the primitive characters of every conductor
    d > 1 dividing q, in one residue pass.

    The class tables of those conductors, each repeated q/d times, add up
    to one integer table mod q, and the weighted prime powers go into one
    exactly rounded sum.
    """
    weights = np.zeros(q, dtype=np.int64)
    for d in divisors(q)[1:]:
        weights += np.tile(_class_table(d), q // d)
    return _weighted_prime_sum(weights, x, tables) / (x - 1.0)


def proxy_defect(q: int, x: float, tables: ArithmeticTables,
                 cache: ConductorCache | None = None,
                 n_terms: int = DEFAULT_EM_TERMS) -> float:
    """Total of L'/L(1, chi) + avg_chi(x) over the primitive characters of
    every conductor > 1 dividing q; shrinks as x grows.

    The averages of all conductors d | q share one residue pass
    (_proxy_average), rounded once, not once per conductor, so it can differ
    in the last bit from the exact sum of the per-conductor sums, the tests'
    oracle.
    """
    _check_args(q, x, tables)
    if cache is None:
        cache = ConductorCache()
    parts = cache.fill(divisors(q)[1:], n_terms)
    parts.append(_proxy_average(q, x, tables))
    return math.fsum(parts)


def gamma_q_from_prime_sums(q: int, x: float,
                            tables: ArithmeticTables) -> float:
    """Heuristic estimate of gamma_q from truncated prime sums alone.

    Replaces every L'/L(1, chi) by its averaged prime-sum proxy
    -avg_chi(x), summed over the primitive characters of each conductor
    dividing q, so the estimate is gamma_q - proxy_defect. The proxy error
    shrinks as x grows (slowly and unconditionally); at x = 1e7 it is
    comfortably inside 0.1 for small q. Not an exact method.
    """
    _check_args(q, x, tables)
    return EULER_GAMMA - _proxy_average(q, x, tables)


def decompose(q: int, x: float, x_split: float, tables: ArithmeticTables,
              cache: ConductorCache | None = None,
              n_terms: int = DEFAULT_EM_TERMS) -> DecompositionReport:
    """Evaluate all seven terms and the residual of the exact identity."""
    _check_window(q, x, x_split, tables)
    if cache is None:
        cache = ConductorCache()
    lhs = gamma_q(q, cache, n_terms).value
    a_val = proxy_defect(q, x, tables, cache, n_terms)
    b_val = conductor_correction(q, x, tables)
    g2 = progression_term(q, x, tables)
    g3 = ramified_term(q, x, tables)
    w1 = window_term(q, x, x_split, tables, 1)
    w2 = window_term(q, x, x_split, tables, 2)
    w3 = window_term(q, x, x_split, tables, 3)
    # the identity's correction term is the collapsed one plus the ramified
    # term, so the latter enters the right-hand side once with each sign
    rhs = math.fsum([EULER_GAMMA, a_val, b_val, g3, -g2, -g3, -w1, -w2, -w3])
    return DecompositionReport(
        q=q, x=float(x), x_split=float(x_split), proxy_defect=a_val,
        conductor_correction=b_val, progression=g2, ramified=g3,
        window_head=w1, window_mid=w2, window_tail=w3, gamma_q_direct=lhs,
        residual=lhs - rhs)
