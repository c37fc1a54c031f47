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

The long sums, the progression term, the three windows and the averages
of the proxy defect, come from one pass over the prime powers n <= x in
slices of accum.CHUNK (_prime_power_pass). Each is an exact sum, added a
slice at a time as a fixed_sum integer and rounded once, so the slicing
changes no bit. One residue pass per slice finds the n = 1 mod q for every
term, and the pass holds only slice-sized buffers, whatever x is.

The averages never evaluate a character. Summed over the primitive chi of
every conductor d > 1 dividing q, chi(n) totals

    w(n) = phi(q_n) * [n == 1 mod q_n] - 1,

where q_n is the largest divisor of q coprime to n: the primitive
characters of a d that shares a factor with n vanish at n, those of the
d | q_n induce every character mod q_n once, and orthogonality leaves
phi(q_n) [n == 1 mod q_n], less 1 for d = 1. So w is -1 at almost every
prime power, phi(q) - 1 at the n = 1 mod q, and layer_weight - 1 at the
powers of the primes dividing q. The tests keep the characters' class
tables, one integer table over the residues mod each d, as the oracle of
that closed form and of the pass's bits. gamma_q_from_prime_sums, the
estimate of gamma_q from prime sums alone, reads the same pass: it is
gamma minus the averages.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .accum import CHUNK, fixed_sum, fsum_array, round_fixed
from .ekgamma import ConductorCache, gamma_q
from .sieve import (ArithmeticTables, _lambda_of, _prefix, _search,
                    divisors, factorize, mobius, residues, totient)
from .stieltjes import EULER_GAMMA


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


def _log_ratio(x: float, n: np.ndarray, lam: np.ndarray, out: np.ndarray,
               tmp: np.ndarray) -> np.ndarray:
    """Lambda(n) log(x/n) into out: the progression term's values."""
    np.divide(x, n, out=out)
    np.log(out, out=out)
    return np.multiply(lam, out, out=out)


def _window_values(x: float, lo: float, hi: float, n: np.ndarray,
                   lam: np.ndarray, out: np.ndarray,
                   tmp: np.ndarray) -> np.ndarray:
    """Lambda(n) J(max(lo, n), hi) into out, tmp as scratch, where
    J(a, b) = x(1/a - 1/b) - log(b/a) is the exact integral of (x - u)/u^2
    over [a, b]: swapping summation and integration gives each window of
    the integral of R(u) (x - u)/u^2 as a sum over the n <= hi."""
    a = np.maximum(n, lo, out=tmp)
    np.divide(1.0, a, out=out)
    np.subtract(out, 1.0 / hi, out=out)
    np.multiply(x, out, out=out)
    np.log(a, out=a)
    np.subtract(math.log(hi), a, out=a)
    np.subtract(out, a, out=out)
    return np.multiply(lam, out, out=out)


class _ClassSum:
    """Exact sum of the values at the prime powers n = 1 mod q, gathered a
    slice at a time. The pieces go into one fixed_sum integer whenever they
    hold CHUNK values, so they stay O(CHUNK) however dense the class is."""

    def __init__(self) -> None:
        self.folded: int | None = None
        self.pieces: list[np.ndarray] = [np.empty(0)]
        self.size = 0

    def add(self, values: np.ndarray) -> None:
        self.pieces.append(values)
        self.size += len(values)
        if self.size >= CHUNK:
            self.folded = ((self.folded or 0)
                           + fixed_sum(np.concatenate(self.pieces)))
            self.pieces, self.size = [np.empty(0)], 0

    def value(self) -> float:
        rest = np.concatenate(self.pieces)
        # unfolded, the usual few hundred values take fsum_array's cheaper
        # route to the same float
        if self.folded is None:
            return fsum_array(rest)
        return round_fixed(self.folded + fixed_sum(rest))


def _prime_power_pass(
        q: int, x: float, tables: ArithmeticTables,
        terms: list[tuple[float, Callable[..., np.ndarray]]],
) -> tuple[float, list[float]]:
    """The long sums of the identity in one pass over the prime powers
    n <= x, read in slices of CHUNK.

    Returns the proxy average, (1/(x-1)) sum of Lambda(n) (x - n)/n w(n)
    with the closed-form weight w of the module docstring, and for each
    term (hi, fill) the remainder sum (phi(q) * P - F) / (x - 1): F sums
    fill's values over the n <= hi, and P over those with n = 1 mod q.
    fill(n, lam, out, tmp) writes the value at each prime power n, with
    Lambda(n) = lam, into out and returns it; tmp is scratch.

    Every slice fills three slice-sized buffers made once per call. F and the
    proxy sum are fixed_sum integers added per slice and rounded once, and
    P gathers its values into a _ClassSum, so each float equals the exact
    sum over whole arrays that the tests' per-term oracle takes.
    """
    pp, lg = _prefix(tables, x)
    phi = totient(q)
    counts = [int(_search(pp, math.floor(hi), side="right"))
              for hi, _ in terms]
    size = min(len(pp), CHUNK)
    out, tmp = np.empty(size), np.empty(size)
    quot = np.empty(size, dtype=pp.dtype)
    ramified = [(n, 1 - layer_weight(p, v, q))
                for p, v, n, _ in _ramified_powers(q, x, tables)]
    ram_at = _search(pp, [n for n, _ in ramified])
    ram_factor = np.array([c for _, c in ramified], dtype=np.float64)
    full = [0] * len(terms)
    ones = [_ClassSum() for _ in terms]
    proxy = 0
    # the values are finite and far below 2^1000, so fixed_sum never
    # returns None here
    for start in range(0, len(pp), CHUNK):
        n, lam = pp[start:start + CHUNK], lg[start:start + CHUNK]
        k = len(n)
        at_one = np.flatnonzero(residues(n, q, quot=quot[:k]) == 1 % q)
        for i, (count, (_, fill)) in enumerate(zip(counts, terms)):
            m = min(k, count - start)
            if m > 0:
                values = fill(n[:m], lam[:m], out[:m], tmp[:m])
                full[i] += fixed_sum(values)
                ones[i].add(values[at_one[:_search(at_one, m)]])
        f = out[:k]
        np.subtract(x, n, out=f)
        np.multiply(lam, f, out=f)
        np.divide(f, n, out=f)
        # f w(n): -f, times 1 - phi(q) at the n = 1 mod q and 1 -
        # layer_weight at the ramified powers; as fl(-a) = -fl(a), each
        # product is the float f * w(n)
        np.negative(f, out=f)
        f[at_one] *= 1 - phi
        inside = (ram_at >= start) & (ram_at < start + k)
        f[ram_at[inside] - start] *= ram_factor[inside]
        proxy += fixed_sum(f)
    sums = [(phi * p.value() - round_fixed(total)) / (x - 1.0)
            for total, p in zip(full, ones)]
    return round_fixed(proxy) / (x - 1.0), sums


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
    return EULER_GAMMA - _prime_power_pass(q, x, tables, [])[0]


def decompose(q: int, x: float, x_split: float, tables: ArithmeticTables,
              cache: ConductorCache | None = None) -> DecompositionReport:
    """Evaluate all seven terms and the residual of the exact identity, with
    the conductor totals of the cache's precision tag."""
    _check_window(q, x, x_split, tables)
    if cache is None:
        cache = ConductorCache()
    lhs = gamma_q(q, cache).value
    # the windows [1, q], [q, x_split], [x_split, x]; an empty one is given
    # no prime power, and its sum is 0.0
    windows = [(hi if lo < hi else 0.0,
                functools.partial(_window_values, x, lo, hi))
               for lo, hi in ((1.0, float(q)), (float(q), float(x_split)),
                              (float(x_split), float(x)))]
    average, (g2, w1, w2, w3) = _prime_power_pass(
        q, x, tables, [(x, functools.partial(_log_ratio, x)), *windows])
    a_val = math.fsum(cache.fill(divisors(q)[1:]) + [average])
    b_val = conductor_correction(q, x, tables)
    g3 = ramified_term(q, x, tables)
    # the identity's correction term is the collapsed one plus the ramified
    # term, so the latter enters the right-hand side once with each sign
    rhs = math.fsum([EULER_GAMMA, a_val, b_val, g3, -g2, -g3, -w1, -w2, -w3])
    return DecompositionReport(
        q=q, x=float(x), x_split=float(x_split), proxy_defect=a_val,
        conductor_correction=b_val, progression=g2, ramified=g3,
        window_head=w1, window_mid=w2, window_tail=w3, gamma_q_direct=lhs,
        residual=lhs - rhs)
