"""Sieved prime tables and Chebyshev psi sums.

One segmented sieve yields the primes up to a bound: 2, then the odd
primes a segment at a time, with one flag per odd number. Its base, the
primes up to the square root of the bound, comes from the same sieve one
level down (_primes_upto); there is no second sieve. build_tables()
keeps two full-length ascending arrays: the prime powers as uint32, and
log p at each prime power p^v (the von Mangoldt weight); next to them, the
positions of the few p^v with v >= 2, so the primes are the prime powers
without those positions, and no array of the primes is kept. These are
what every downstream Lambda-weighted sum iterates over: _prefix gives the
prime powers up to x with their weights, and _lambda_of reads Lambda at
given prime powers. Every search of a table goes through _search, which
casts its needle to the table's dtype. The streaming variants of psi and
psi_mod run the same sieve, on int64 segments, but never keep more than
one segment, so their memory stays O(STREAM_SEGMENT + sqrt x) and they
reach beyond the table capacity; they add the exact sums of the segments
as fixed-point integers (accum.fixed_sum) and round once.

Everything that needs the factorization of a single integer (divisors,
totient, Moebius, the prime factors of a modulus) goes through factorize().
Every residue of an integer array mod m goes through residues(), and every
mask of the classes coprime to m through coprime_mask().
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from math import isqrt

import numpy as np

from .accum import fixed_sum, fsum_array, round_fixed

#: Hard cap on table construction; beyond this use the streaming functions.
#: At the cap the tables take 66 MiB, and a process that builds them peaks
#: at about 97 MiB RSS (measured with numpy 2.4 on x86-64). The cap stays
#: below 2^32, so the prime powers fit uint32.
MAX_TABLE_BOUND = 100_000_000
assert MAX_TABLE_BOUND < 2**32

#: Odd numbers per segment of the sieve; a segment spans twice as many
#: integers.
STREAM_SEGMENT = 1 << 20


class CapacityError(MemoryError):
    """Requested table bound exceeds the documented memory capacity."""


@dataclass(frozen=True)
class ArithmeticTables:
    """Immutable compact prime tables on [0, bound]."""

    bound: int
    prime_powers: np.ndarray     # uint32; ascending prime powers p^v <= bound
    prime_power_logs: np.ndarray  # float64; Lambda = log p at prime_powers
    # intp; ascending positions in prime_powers of the p^v with v >= 2,
    # 1,404 at the cap: np.delete(prime_powers, higher_at) are the primes,
    # and _primes_upto gives the primes up to a small bound
    higher_at: np.ndarray


def build_tables(bound: int) -> ArithmeticTables:
    """Sieve the prime powers up to bound (inclusive), with their logs
    and the positions of the higher powers among them.

    Raises CapacityError when bound exceeds MAX_TABLE_BOUND and ValueError
    when bound < 2.
    """
    if bound < 2:
        raise ValueError(f"table bound must be >= 2, got {bound}")
    if bound > MAX_TABLE_BOUND:
        raise CapacityError(
            f"bound {bound} exceeds table capacity {MAX_TABLE_BOUND}; "
            "use psi_stream / psi_mod_stream for large arguments"
        )
    base = _primes_upto(isqrt(bound))
    # each segment is narrowed as it arrives, so no int64 copy of all the
    # primes is ever held
    primes = np.concatenate([found.astype(np.uint32) for found
                             in _segment_primes(bound, base)])
    # the higher prime powers are inserted among the primes in ascending
    # order in one pass; the one before primes[at[i]] lands at at[i] + i
    higher = sorted(_higher_powers(base, bound))
    at = _search(primes, [pv for pv, _ in higher])
    pp = np.insert(primes, at, [pv for pv, _ in higher])
    higher_at = at + np.arange(at.size)
    # the primes go before the logs are made, so the two never coexist
    del primes
    # log p^v is written over with log p at the higher powers
    pp_logs = np.log(pp, dtype=np.float64)
    pp_logs[higher_at] = [logp for _, logp in higher]

    for arr in (pp, pp_logs, higher_at):
        arr.flags.writeable = False
    return ArithmeticTables(bound=bound, prime_powers=pp,
                            prime_power_logs=pp_logs, higher_at=higher_at)


def _check_x(tables: ArithmeticTables, x: float) -> None:
    if not 1 <= x <= tables.bound:
        raise ValueError(f"x must satisfy 1 <= x <= {tables.bound}, got {x}")


def _prefix(tables: ArithmeticTables,
            x: float) -> tuple[np.ndarray, np.ndarray]:
    """The prime powers n <= x and Lambda(n) at them: the leading slices of
    tables.prime_powers and tables.prime_power_logs, views, not copies.
    The one search of the tables for the prime powers up to x."""
    count = int(_search(tables.prime_powers, math.floor(x), side="right"))
    return tables.prime_powers[:count], tables.prime_power_logs[:count]


def _lambda_of(tables: ArithmeticTables, n):
    """Lambda(n) read from the tables, for a prime power n <= tables.bound
    or an array of them."""
    return tables.prime_power_logs[_search(tables.prime_powers, n)]


def _search(table: np.ndarray, needle, side: str = "left"):
    """np.searchsorted(table, needle, side) with the needle, an integer or
    integers that fit the table's dtype, cast to that dtype first.

    A needle of another dtype, a Python int against a uint32 table or an
    int64 array, makes numpy convert the whole table to a common dtype on
    every call: about 0.6 ms against 2 us on a million uint32 elements.
    """
    return np.searchsorted(table, np.asarray(needle, dtype=table.dtype),
                           side=side)


def psi(tables: ArithmeticTables, x: float) -> float:
    """Chebyshev psi(x) = sum of Lambda(n) over n <= x, exactly summed."""
    _check_x(tables, x)
    return fsum_array(_prefix(tables, x)[1])


def _check_class(q: int, a: int) -> None:
    """The one check of a residue class a mod q: q >= 1 and 0 <= a < q."""
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    if not 0 <= a < q:
        raise ValueError(f"residue must satisfy 0 <= a < q, got a={a}, q={q}")


def psi_mod(tables: ArithmeticTables, x: float, q: int, a: int) -> float:
    """psi(x; q, a) = sum of Lambda(n) over n <= x with n congruent to a mod q."""
    _check_class(q, a)
    _check_x(tables, x)
    pp, logs = _prefix(tables, x)
    return fsum_array(logs[residues(pp, q) == a])


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n by trial division: (p, e) pairs, ascending p.

    factorize(1) is empty; n < 1 raises ValueError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


@cache
def _dtype_max(dtype: np.dtype) -> int:
    """The largest value of an integer dtype, read once per dtype: building
    np.iinfo takes about 1.7 us, and residues runs once per block and top
    of a residue pass (17,391 times in a serial probe 1e7 at epsilon 0.5)."""
    return int(np.iinfo(dtype).max)


def residues(values: np.ndarray, m: int, quot: np.ndarray | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
    """values mod m for an array of nonnegative integers, computed as
    values - (values // m) * m: the same integers as `values % m`.

    numpy divides an integer array by a scalar with a SIMD multiply and
    shift (division by an invariant integer), but `%` divides element by
    element: on 664,579 primes below 1e7 the quotient takes 0.25 ms against
    1.5 ms for `%` on uint32, and 0.62 ms against 2.6 ms on int64. quot
    (the dtype of values) and out (any integer dtype that holds m - 1) are
    buffers to reuse across calls. The subtraction stays in the dtype of
    values, over the quotients, and one copy casts the residues into out
    when it is given: on a uint32 block that takes 0.21 + 0.29 ns an
    element against 0.68 ns for a subtraction that casts into an intp out.
    Without buffers the call allocates one array, as `%` does.

    An m above the largest value of the dtype exceeds every value, which is
    then its own residue: the values themselves are returned, or copied to
    out. Such an m does not fit the dtype, and numpy would refuse it.
    """
    if m > _dtype_max(values.dtype):
        if out is None:
            return values
        np.copyto(out, values, casting="unsafe")
        return out
    quot = np.floor_divide(values, m, out=quot)
    np.multiply(quot, m, out=quot)
    np.subtract(values, quot, out=quot)
    if out is None:
        return quot
    np.copyto(out, quot, casting="unsafe")
    return out


def coprime_mask(m: int) -> np.ndarray:
    """Boolean array over the residues 0..m-1, True where gcd(r, m) = 1:
    the multiples of each prime factor of m are struck out. m = 1 keeps its
    single class."""
    mask = np.ones(m, dtype=bool)
    for p, _ in factorize(m):
        mask[::p] = False
    return mask


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def totient(n: int) -> int:
    """Euler totient; exact for any positive int."""
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def mobius(n: int) -> int:
    """Moebius function."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return (-1) ** len(fac)


def _primes_upto(n: int) -> list[int]:
    """The primes <= n from _segment_primes, whose base, the primes <=
    isqrt(n), comes from this function in turn: five levels reach the
    table cap."""
    base = _primes_upto(isqrt(n)) if n >= 4 else []
    return [p for found in _segment_primes(n, base) for p in found.tolist()]


def _segment_primes(xi: int, base: list[int]) -> Iterator[np.ndarray]:
    """The primes in [2, xi], ascending: 2 alone, then the odd primes one
    segment of STREAM_SEGMENT odd numbers at a time; base must hold the
    primes up to isqrt(xi)."""
    if xi < 2:
        return
    yield np.array([2], dtype=np.int64)
    odd_base = base[1:]
    lo = 3
    while lo <= xi:
        hi = min(lo + 2 * STREAM_SEGMENT, xi + 1)
        # flags[i] stands for lo + 2i; the odd multiples of p are p apart
        flags = np.ones((hi - lo + 1) // 2, dtype=bool)
        for p in odd_base:
            if p * p >= hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            flags[(start - lo) // 2:: p] = False
        # Base primes land in the first segments and are kept: marking
        # starts at p*p, so p itself is never struck.
        found = np.flatnonzero(flags)
        found *= 2
        found += lo
        yield found
        lo = hi


def _higher_powers(base: list[int],
                   xi: int) -> Iterator[tuple[int, float]]:
    """(p^v, log p) for v >= 2 and p^v <= xi, p running over base."""
    for p in base:
        logp = math.log(p)
        pv = p * p
        while pv <= xi:
            yield pv, logp
            pv *= p


def psi_stream(x: float) -> float:
    """Chebyshev psi(x) without tables; memory stays O(STREAM_SEGMENT +
    sqrt(x)). Equal to psi(build_tables(bound), x) bit for bit: the same
    logs, summed exactly."""
    return psi_mod_stream(x, 1, 0)


def psi_mod_stream(x: float, q: int, a: int) -> float:
    """psi(x; q, a) without tables, same contract as psi_mod and equal to it
    bit for bit; memory stays O(STREAM_SEGMENT + sqrt(x)).

    The segmented sieve yields the primes a segment at a time; the exact
    sums of the logs of the primes of each segment and of the higher prime
    powers are added as fixed-point integers and rounded once."""
    _check_class(q, a)
    if not 1 <= x < math.inf:
        raise ValueError(f"x must be finite and >= 1, got {x}")
    xi = int(math.floor(x))
    base = _primes_upto(isqrt(xi))
    segments = _segment_primes(xi, base)
    if q > 1:
        segments = (found[residues(found, q) == a] for found in segments)
    higher_logs = [logp for pv, logp in _higher_powers(base, xi)
                   if pv % q == a]
    # logs are finite and small, so fixed_sum never returns None here
    total = fixed_sum(np.array(higher_logs, dtype=np.float64))
    for found in segments:
        total += fixed_sum(np.log(found.astype(np.float64)))
    return round_fixed(total)
