"""Arithmetic tables and Chebyshev sums.

Oracles are brute-force enumerations computed inside the test (trial division,
literal definition sums), never values typed in from elsewhere.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekconst import (CapacityError, build_tables, divisors, factorize, mobius,
                     psi, psi_mod, psi_mod_stream, psi_stream, totient)
from ekconst import sieve
from ekconst.sieve import (MAX_TABLE_BOUND, STREAM_SEGMENT, coprime_mask,
                           residues)
from sieve_oracle import plain_sieve


def _factor(n):
    out = {}
    m, p = n, 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _lam_ref(n):
    f = _factor(n)
    if len(f) == 1:
        (p, _), = f.items()
        return math.log(p)
    return 0.0


@pytest.fixture(scope="module")
def tables():
    return build_tables(3000)


def test_factorization_functions_against_trial_division():
    for n in range(1, 2001):
        f = _factor(n)
        assert factorize(n) == sorted(f.items()), n
        assert mobius(n) == (0 if any(e > 1 for e in f.values())
                             else (-1) ** len(f)), n
        phi_ref = n
        for p in f:
            phi_ref = phi_ref // p * (p - 1)
        assert totient(n) == phi_ref, n
        div_ref = [1]
        for p, e in f.items():
            div_ref = [d * p**k for d in div_ref for k in range(e + 1)]
        assert divisors(n) == sorted(div_ref), n


def _is_prime(n):
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


@given(st.integers(min_value=1, max_value=10**12))
@settings(max_examples=60, deadline=None)
def test_factorize_reconstructs_with_ascending_prime_bases(n):
    fac = factorize(n)
    assert math.prod(p**e for p, e in fac) == n
    bases = [p for p, _ in fac]
    assert bases == sorted(set(bases))
    assert all(_is_prime(p) for p in bases)
    assert all(e >= 1 for _, e in fac)


@pytest.mark.parametrize("n", [0, -1, -12])
def test_factorize_rejects_nonpositive(n):
    with pytest.raises(ValueError):
        factorize(n)


def _segment_edges(S):
    """The bounds where the segments of S odd numbers meet; see
    test_segmented_primes_match_plain_sieve."""
    return [2, 3, 4, 9, 25, S - 1, S, S + 1, S + 2, 2 * S + 1, 2 * S + 2,
            2 * S + 3, 2 * S + 4, 2 * S + 7, 4 * S + 3, 4 * S + 5]


@pytest.mark.parametrize("bound", _segment_edges(STREAM_SEGMENT))
def test_segmented_primes_match_plain_sieve(bound):
    # 2 alone, then segments of S = STREAM_SEGMENT odd numbers,
    # [3 + 2kS, 3 + 2(k+1)S): 2S + 1 and 2S + 2 fill the first one exactly,
    # 2S + 3 and 2S + 4 open a second with one odd number and 2S + 7 with
    # three, 4S + 3 and 4S + 5 open a third; S - 1 to S + 2 end inside the
    # first; 4, 9 and 25 end on a prime square. The tables narrow each
    # segment to uint32; the streaming routes read the int64 segments.
    tables = build_tables(bound)
    primes = plain_sieve(bound)
    assert tables.prime_powers.dtype == np.uint32
    assert np.array_equal(np.delete(tables.prime_powers, tables.higher_at),
                          primes)
    segments = list(sieve._segment_primes(
        bound, plain_sieve(math.isqrt(bound)).tolist()))
    assert {found.dtype for found in segments} == {np.dtype(np.int64)}
    assert np.array_equal(np.concatenate(segments), primes)


def test_primes_upto_matches_plain_sieve():
    ref = plain_sieve(3000).tolist()
    for n in range(3001):
        assert sieve._primes_upto(n) == [p for p in ref if p <= n], n


_S = 256


@pytest.mark.parametrize("n", _segment_edges(_S) + [(2 * _S + 3) ** 2])
def test_primes_upto_at_the_segment_edges(monkeypatch, n):
    # segments of S = 256 odd numbers: 4S + 5 recurses through the bases
    # 32, 5 and 2, and (2S + 3)^2 through 2S + 3, whose primes are sieved
    # in two segments
    monkeypatch.setattr(sieve, "STREAM_SEGMENT", _S)
    assert sieve._primes_upto(n) == plain_sieve(n).tolist()


def test_prime_listing(tables):
    ref = [n for n in range(2, 3001) if len(_factor(n)) == 1
           and sum(_factor(n).values()) == 1]
    assert np.delete(tables.prime_powers, tables.higher_at).tolist() == ref


def test_prime_powers_sorted_and_complete(tables):
    ref = sorted(n for n in range(2, 3001) if len(_factor(n)) == 1)
    assert tables.prime_powers.dtype == np.uint32
    assert tables.prime_powers.tolist() == ref
    assert np.allclose(tables.prime_power_logs,
                       [_lam_ref(n) for n in ref], atol=1e-15)


def _check_table_invariants(tables):
    """The prime powers less the positions higher_at are the plain sieve's
    primes, and at those positions the tables hold the p^v with v >= 2 of
    a direct enumeration and log p, bit for bit."""
    bound = tables.bound
    higher = sorted((p**v, p) for p in plain_sieve(math.isqrt(bound)).tolist()
                    for v in range(2, bound.bit_length()) if p**v <= bound)
    at = tables.higher_at
    assert at.dtype == np.intp and not at.flags.writeable
    assert np.all(np.diff(at) > 0)
    assert np.array_equal(np.delete(tables.prime_powers, at),
                          plain_sieve(bound))
    assert tables.prime_powers[at].tolist() == [pv for pv, _ in higher]
    assert [v.hex() for v in tables.prime_power_logs[at].tolist()] == \
        [math.log(p).hex() for _, p in higher]


@pytest.mark.parametrize("bound", _segment_edges(STREAM_SEGMENT))
def test_table_invariants_at_the_segment_edges(bound):
    _check_table_invariants(build_tables(bound))


def test_table_invariants_up_to_3000():
    for bound in range(2, 3001):
        _check_table_invariants(build_tables(bound))


def test_tables_at_1e7_hold_at_most_8_mib(tables_big):
    # the prime powers (uint32), their logs (float64) and the few hundred
    # positions of the higher powers: 7.6 MiB, where a uint32 copy of the
    # primes brought them to 10.2
    arrays = [v for v in vars(tables_big).values() if hasattr(v, "nbytes")]
    assert sum(a.nbytes for a in arrays) <= 8.0 * 2**20


def test_psi_small_enumeration(tables):
    # psi(10) = 3 log 2 + 2 log 3 + log 5 + log 7, summed from the definition
    ref = math.fsum(_lam_ref(n) for n in range(1, 11))
    assert psi(tables, 10) == pytest.approx(ref, abs=1e-12)
    assert psi(tables, 10.9) == pytest.approx(ref, abs=1e-12)
    assert ref == pytest.approx(7.832014180505469, abs=1e-12)


def test_psi_mod_enumeration(tables):
    # class 1 mod 4 up to 20 holds the prime powers 5, 9, 13, 17
    ref = math.fsum(_lam_ref(n) for n in range(1, 21) if n % 4 == 1)
    assert psi_mod(tables, 20, 4, 1) == pytest.approx(ref, abs=1e-12)
    assert ref == pytest.approx(8.106212902619963, abs=1e-11)


def test_psi_mod_classes_partition_psi(tables):
    for q in (3, 4, 7, 12):
        total = math.fsum(psi_mod(tables, 2500, q, a) for a in range(q))
        assert total == pytest.approx(psi(tables, 2500), abs=1e-10)


def test_psi_rejects_out_of_range(tables):
    with pytest.raises(ValueError):
        psi(tables, 3001)
    with pytest.raises(ValueError):
        psi(tables, 0.5)


@given(st.integers(min_value=1, max_value=100_000))
def test_totient_and_mobius_scalars(n):
    f = _factor(n)
    phi_ref = n
    for p in f:
        phi_ref = phi_ref // p * (p - 1)
    assert totient(n) == phi_ref
    mu_ref = 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)
    assert mobius(n) == mu_ref


@given(st.integers(min_value=1, max_value=50_000))
@settings(max_examples=80)
def test_divisors_definition(n):
    ref = [d for d in range(1, n + 1) if n % d == 0]
    assert divisors(n) == ref


def test_divisor_sum_of_totient(tables):
    # sum_{d|n} phi(d) = n, a cross-column identity
    for n in range(1, 500):
        assert sum(totient(d) for d in divisors(n)) == n


@pytest.mark.parametrize("bound", [
    2 * _S + 1, 2 * _S + 2, 2 * _S + 3, 2 * _S + 4, 2 * _S + 7, 4 * _S + 3,
    4 * _S + 5, 3000])
def test_streaming_matches_tables(tables, monkeypatch, bound):
    # the segment edges of test_segmented_primes_match_plain_sieve, at
    # segments of S = 256 odd numbers
    monkeypatch.setattr(sieve, "STREAM_SEGMENT", _S)
    calls = []
    real = sieve._segment_primes

    def spy(xi, base):
        calls.append((xi, []))
        for found in real(xi, base):
            calls[-1][1].append(found.tolist())
            yield found

    monkeypatch.setattr(sieve, "_segment_primes", spy)
    assert psi_stream(bound).hex() == psi(tables, bound).hex()
    assert psi_mod_stream(bound, 4, 1).hex() == \
        psi_mod(tables, bound, 4, 1).hex()
    # both streams sieve up to the bound, and every sieve, the bases' too,
    # reads 2 alone and then segments of S odd numbers, [3 + 2kS,
    # 3 + 2(k + 1)S), the last one cut at xi
    assert [xi for xi, _ in calls].count(bound) == 2
    for xi, segments in calls:
        edges = [2] + list(range(3, xi + 1, 2 * _S)) + [xi + 1]
        ref = plain_sieve(xi).tolist()
        assert segments == [[p for p in ref if lo <= p < hi]
                            for lo, hi in zip(edges, edges[1:])], xi


def test_streaming_equals_tables_bit_for_bit(tables_small, tables_big,
                                             monkeypatch):
    # the same logs, rounded once: per-segment sums rounded first move
    # psi_stream(1e6) by one ulp
    small = build_tables(10**6)
    assert psi_stream(10**6).hex() == psi(small, 10**6).hex()
    assert psi_stream(1e7).hex() == psi(tables_big, 1e7).hex()
    assert psi_mod_stream(50007, 7, 3) == psi_mod(tables_small, 50007, 7, 3)
    monkeypatch.setattr(sieve, "STREAM_SEGMENT", 1000)
    for q, a in ((1, 0), (4, 3), (30, 7), (97, 0)):
        assert psi_mod_stream(99999, q, a) == \
            psi_mod(tables_small, 99999, q, a), (q, a)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("stream", [psi_stream,
                                    lambda x: psi_mod_stream(x, 4, 1)],
                         ids=["psi_stream", "psi_mod_stream"])
def test_streaming_rejects_non_finite_x(stream, x, tables_small):
    # as psi does: a ValueError that names x, not an OverflowError or a
    # message about int
    with pytest.raises(ValueError, match=f"got {x}$"):
        psi(tables_small, x)
    with pytest.raises(ValueError, match=f"x must be finite and >= 1, "
                                         f"got {x}$"):
        stream(x)


def test_streaming_equals_tables_at_the_cap():
    # the largest tables, 0.3 s and about 119 MB
    expected = psi(build_tables(MAX_TABLE_BOUND), MAX_TABLE_BOUND)
    assert psi_stream(MAX_TABLE_BOUND) == expected


def test_capacity_guard():
    with pytest.raises(CapacityError):
        build_tables(MAX_TABLE_BOUND + 1)
    with pytest.raises(ValueError):
        build_tables(1)


def _residue_bases():
    """The prime powers below 1e5 and the edges of the dtype, as uint32
    and as int64 (with values up to 2^40)."""
    pp = build_tables(100_000).prime_powers
    u32 = np.concatenate([pp, [0, 2**32 - 2, 2**32 - 1]]).astype(np.uint32)
    i64 = np.concatenate([pp, [0, 2**32, 2**40 - 1, 2**40]]).astype(np.int64)
    return u32, i64


def test_residues_equal_mod_for_every_probe_level():
    # every level of probe 1e7 at epsilon 0.5, with and without buffers
    for base in _residue_bases():
        quot = np.empty_like(base)
        out = np.empty(base.size, dtype=np.intp)
        for m in range(1, 3163):
            want = base % m
            got = residues(base, m)
            assert got.dtype == base.dtype
            assert np.array_equal(got, want), (base.dtype, m)
            assert residues(base, m, quot, out) is out
            assert np.array_equal(out, want), (base.dtype, m)


@pytest.mark.parametrize("side", ["left", "right"])
def test_search_equals_an_int64_search(tables, side):
    # Python ints, lists and int64 arrays, at and between the table's
    # values and at its ends
    pp = tables.prime_powers
    wide = pp.astype(np.int64)
    for needle in (0, 1, 2, 3, 4, 1000, 2999, 3000, [], [2, 9, 2048],
                   np.arange(0, 3001, 7, dtype=np.int64)):
        got = sieve._search(pp, needle, side)
        assert np.array_equal(got, np.searchsorted(wide, needle, side))


def test_residues_of_a_modulus_past_the_dtype():
    # an m the dtype cannot hold exceeds every value, so each value is its
    # own residue
    for base in _residue_bases():
        top = int(np.iinfo(base.dtype).max)
        for m in (top + 1, top + 2, 2**64, 2**70):
            want = [v % m for v in base.tolist()]
            assert residues(base, m).tolist() == want, (base.dtype, m)
            out = np.empty(base.size, dtype=base.dtype)
            assert residues(base, m, np.empty_like(base), out) is out
            assert out.tolist() == want, (base.dtype, m)


@pytest.mark.parametrize("q", [2**32, 2**32 + 1, 2**40])
def test_psi_mod_of_a_modulus_past_uint32(q):
    # the uint32 tables take residues mod a q they cannot hold: every
    # prime power up to 1000 is its own residue, and only 7 is 7 mod q
    got = psi_mod(build_tables(1000), 1000, q, 7)
    assert got.hex() == (1.9459101490553132).hex()
    assert got == psi_mod_stream(1000, q, 7)


def _near_multiples(top):
    """Values at and around multiples of m, 0 and m - 1 among them, plus
    arbitrary values below top."""
    def build(m):
        near = st.integers(min_value=0, max_value=top // m).flatmap(
            lambda k: st.sampled_from([k * m - 1, k * m, k * m + 1]))
        vals = st.one_of(near, st.integers(min_value=0, max_value=top),
                         st.sampled_from([0, m - 1, m, top]))
        return st.tuples(st.just(m), st.lists(
            vals.filter(lambda v: 0 <= v <= top), min_size=1, max_size=40))
    return st.integers(min_value=1, max_value=top).flatmap(build)


@settings(max_examples=300, deadline=None)
@given(_near_multiples(2**32 - 1))
def test_residues_sweep_uint32(case):
    m, vals = case
    arr = np.array(vals, dtype=np.uint32)
    assert np.array_equal(residues(arr, m), arr % m)
    out = np.empty(arr.size, dtype=np.intp)
    residues(arr, m, np.empty_like(arr), out)
    assert out.tolist() == [v % m for v in vals]


@settings(max_examples=300, deadline=None)
@given(_near_multiples(2**40))
def test_residues_sweep_int64(case):
    m, vals = case
    arr = np.array(vals, dtype=np.int64)
    assert residues(arr, m).tolist() == [v % m for v in vals]


def test_coprime_mask_matches_gcd_rule():
    for m in range(1, 5001):
        assert np.array_equal(coprime_mask(m),
                              np.gcd(np.arange(m), m) == 1), m
