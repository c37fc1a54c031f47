"""Dyadic-range experiments, probes and serialization."""
import dataclasses
import hashlib
import json
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ekconst import (ConductorCache, EhProbeRecord, RatioBin, ScanRecord,
                     build_tables, decompose, dyadic_mean, eh_probe, emit,
                     experiments, gamma_q, psi,
                     ratio_histogram, render, residue_sum_check,
                     residue_sum_checks, scan_range, theorem_statistic)
from ekconst import ekgamma, sieve
from ekconst.experiments import PER_M_HEADER, PROBE_HEADER, SCAN_HEADER
from sieve_oracle import plain_sieve


def _toy_records():
    # hand-built: ratios 0.5, 1.0, 1.5 and one sub-zero / one overflow
    rows = [
        (10, 0.5), (11, 1.0), (12, 1.5), (13, -0.5), (14, 2.5),
    ]
    out = []
    for q, ratio in rows:
        lq = math.log(q)
        out.append(ScanRecord(q=q, gamma_q=ratio * lq, log_q=lq,
                              ratio=ratio, abs_dev=abs(ratio * lq - lq)))
    return out


# ------------------------------------------------------------------ scans


def test_scan_range_matches_gamma_q(shared_cache):
    for block in (4, 512):
        records = scan_range(block, shared_cache)
        assert [r.q for r in records] == list(range(block + 1,
                                                    2 * block + 1))
        for r in records:
            want = gamma_q(r.q, shared_cache).value
            assert r.gamma_q.hex() == want.hex(), r.q
            assert r.log_q == math.log(r.q)
            assert r.ratio == want / math.log(r.q)
            assert r.abs_dev == abs(want - math.log(r.q))


#: sha256 of the float.hex of every field of every record of
#: scan_range(1024), made before the block assembly walked the multiples of
#: each conductor (it took the divisors of each q).
SCAN_1024_DIGEST = (
    "b93690ee2bd0bcc300d7726335d02914ab5709165e9ac0ade060eb464af56214")


def test_scan_1024_bits_frozen(shared_cache):
    lines = [" ".join([str(r.q)] + [getattr(r, f.name).hex()
                                    for f in dataclasses.fields(r)
                                    if f.name != "q"])
             for r in scan_range(1024, shared_cache)]
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SCAN_1024_DIGEST


def test_warm_scan_range_only_reads_the_cache(monkeypatch, shared_cache):
    want = scan_range(96, shared_cache)

    def refuse(*args, **kwargs):
        raise AssertionError("a warm scan computed something")
    for module, name in [(ekgamma, "conductor_totals"),
                         (ekgamma, "build_group"), (sieve, "divisors"),
                         (ekgamma, "divisors")]:
        monkeypatch.setattr(module, name, refuse)
    assert scan_range(96, shared_cache, workers=2) == want
    assert scan_range(96, shared_cache, workers=1) == want


def test_scan_range_parallel_equals_serial():
    serial = scan_range(8, ConductorCache(path=None), workers=1)
    parallel = scan_range(8, ConductorCache(path=None), workers=2)
    assert serial == parallel  # bit-identical records either way


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size and the
    number of chunks, and the chunks themselves, and maps in this process,
    so no process starts."""

    made: list = []
    chunks: list = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.max_workers = max_workers
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        chunks = list(chunks)
        _RecordingPool.made.append((self.max_workers, len(chunks)))
        _RecordingPool.chunks.extend(chunks)
        return [fn(c) for c in chunks]


#: the library's core count, before recording_pool patches it
_CORE_COUNT = ekgamma._core_count


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(ekgamma.concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(ekgamma, "_core_count", lambda: 2)
    _RecordingPool.made = []
    _RecordingPool.chunks = []
    return _RecordingPool.made


def test_scan_range_pool_capped_at_core_count(recording_pool):
    serial = scan_range(40, ConductorCache(path=None), workers=1)
    assert recording_pool == []
    pooled = scan_range(40, ConductorCache(path=None), workers=10_000)
    assert recording_pool == [(2, 2 * ekgamma.CHUNKS_PER_WORKER)]
    assert pooled == serial


def test_eh_probe_pool_capped_at_core_count(recording_pool, tables_small):
    serial = eh_probe(1e4, 0.5, tables_small, workers=1)
    pooled = eh_probe(1e4, 0.5, tables_small, workers=10_000)
    assert recording_pool == [(2, 2 * ekgamma.CHUNKS_PER_WORKER)]
    assert pooled == serial


def test_core_count_is_the_affinity_where_there_is_one(monkeypatch):
    monkeypatch.setattr(ekgamma.os, "sched_getaffinity", lambda pid: {3},
                        raising=False)
    monkeypatch.setattr(ekgamma.os, "cpu_count", lambda: 64)
    assert _CORE_COUNT() == 1
    monkeypatch.delattr(ekgamma.os, "sched_getaffinity")
    assert _CORE_COUNT() == 64


def test_unknown_core_count_runs_serially(recording_pool, monkeypatch,
                                          tables_small):
    monkeypatch.setattr(ekgamma, "_core_count", _CORE_COUNT)
    monkeypatch.delattr(ekgamma.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(ekgamma.os, "cpu_count", lambda: None)
    scan_range(12, ConductorCache(path=None), workers=8)
    eh_probe(1e4, 0.5, tables_small, workers=8)
    assert recording_pool == []


def test_gamma_q_and_decompose_never_start_a_pool(recording_pool,
                                                  tables_small):
    cache = ConductorCache(path=None)
    gamma_q(720, cache)
    decompose(840, 1e4, 1e4, tables_small, cache)
    assert len(cache) > 1           # both computed conductors, serially
    assert recording_pool == []


def test_fill_pooled_stores_the_serial_rows():
    qs = [97, 5, 720, *range(1, 30), 12, 5]    # unsorted, repeated
    serial, pooled = ConductorCache(path=None), ConductorCache(path=None)

    def bits(records):
        return [(key, total.hex(), imag.hex())
                for key, (total, imag) in records]
    got = [t.hex() for t in pooled.fill(qs, workers=2)]
    want = [t.hex() for t in serial.fill(qs, workers=1)]
    assert got == want == [serial.get(q)[0].hex() for q in qs]
    assert bits(pooled.records()) == bits(serial.records())


def _fill_cost(q):
    """The cost model of a cold fill, in unit points: phi(q) plus 250 for a
    conductor with primitive characters, nothing for one without."""
    return 0 if q == 1 or q % 4 == 2 else sieve.totient(q) + 250


@pytest.mark.parametrize("cores", [2, 3, 4])
def test_cold_fill_chunks_cost_the_same(recording_pool, monkeypatch, cores):
    monkeypatch.setattr(ekgamma, "_core_count", lambda: cores)
    monkeypatch.setattr(
        ekgamma, "conductor_totals",
        lambda qs, n_terms: [(q, 0.0, 0.0) for q in qs])
    scan_range(2048, ConductorCache(path=None), workers=cores)
    chunks = _RecordingPool.chunks
    assert recording_pool == [(cores, cores * ekgamma.CHUNKS_PER_WORKER)]
    assert sorted(q for c in chunks for q in c) == list(range(2, 4097))
    costs = [sum(map(_fill_cost, c)) for c in chunks]
    # within one conductor's cost of each other; the ascending order of
    # the conductors dealt round robin gave max / mean = 1.56 at 2 cores
    assert max(costs) - min(costs) <= max(map(_fill_cost, range(2, 4097)))
    assert all(any(_fill_cost(q) for q in c) for c in chunks)


@pytest.mark.parametrize("cores", [3, 4])
def test_fill_pooled_at_other_strides(recording_pool, monkeypatch, cores):
    monkeypatch.setattr(ekgamma, "_core_count", lambda: cores)
    qs = [97, 5, 720, *range(1, 30), 12, 5]    # unsorted, repeated
    serial, pooled = ConductorCache(path=None), ConductorCache(path=None)

    def bits(records):
        return [(key, total.hex(), imag.hex())
                for key, (total, imag) in records]
    got = [t.hex() for t in pooled.fill(qs, workers=cores)]
    assert recording_pool == [(cores, cores * ekgamma.CHUNKS_PER_WORKER)]
    want = [t.hex() for t in serial.fill(qs, workers=1)]
    assert got == want == [serial.get(q)[0].hex() for q in qs]
    assert bits(pooled.records()) == bits(serial.records())


def test_scan_range_warm_cache_reuses(shared_cache):
    first = scan_range(6, shared_cache)
    again = scan_range(6, shared_cache)
    assert first == again


def test_scan_range_validation(shared_cache):
    with pytest.raises(ValueError):
        scan_range(1, shared_cache)


# ------------------------------------------------------------- statistics


def test_theorem_statistic_exact_toy():
    recs = [
        ScanRecord(q=3, gamma_q=2.0, log_q=1.0, ratio=2.0, abs_dev=1.0),
        ScanRecord(q=4, gamma_q=0.5, log_q=1.0, ratio=0.5, abs_dev=0.5),
    ]
    stat = theorem_statistic(recs)
    assert stat.n_records == 2
    assert stat.mean_abs_dev == 0.75
    assert stat.normalized == 0.75 / math.log(2)


def test_theorem_statistic_zero_deviation_is_zero():
    recs = [ScanRecord(q=5, gamma_q=1.0, log_q=1.0, ratio=1.0, abs_dev=0.0)]
    stat = theorem_statistic(recs)
    assert stat.normalized == 0.0    # 0/0 guarded to 0, not nan


def test_theorem_statistic_single_nonzero_is_inf():
    recs = [ScanRecord(q=5, gamma_q=2.0, log_q=1.0, ratio=2.0, abs_dev=1.0)]
    assert theorem_statistic(recs).normalized == math.inf


def test_theorem_statistic_empty_rejected():
    with pytest.raises(ValueError):
        theorem_statistic([])


def test_dyadic_mean_exact_toy():
    recs = [
        ScanRecord(q=3, gamma_q=1.0, log_q=1.0, ratio=1.0, abs_dev=0.0),
        ScanRecord(q=4, gamma_q=3.0, log_q=1.0, ratio=3.0, abs_dev=2.0),
    ]
    stat = dyadic_mean(recs, 2)
    assert stat.mean == 2.0
    assert stat.deviation == abs(2.0 - math.log(2))


# -------------------------------------------------------------- histogram


def test_ratio_histogram_toy_counts():
    bins = ratio_histogram(_toy_records(), bins=2)
    assert len(bins) == 4   # underflow + 2 + overflow
    assert bins[0].count == 1 and bins[0].lo == -math.inf
    assert (bins[1].lo, bins[1].hi, bins[1].count) == (0.0, 1.0, 1)
    assert (bins[2].lo, bins[2].hi, bins[2].count) == (1.0, 2.0, 2)
    assert bins[3].count == 1 and bins[3].hi == math.inf
    assert sum(b.count for b in bins) == 5


def test_ratio_histogram_skips_nan():
    recs = _toy_records() + [
        ScanRecord(q=2, gamma_q=0.5, log_q=0.0, ratio=math.nan, abs_dev=0.5)]
    bins = ratio_histogram(recs, bins=2)
    assert sum(b.count for b in bins) == 5


def test_ratio_histogram_counts_match_numpy():
    rng = np.random.default_rng(7)
    ratios = rng.uniform(-0.5, 2.5, size=400)
    recs = [ScanRecord(q=i + 3, gamma_q=r, log_q=1.0, ratio=r, abs_dev=0.0)
            for i, r in enumerate(ratios)]
    out = ratio_histogram(recs, bins=8)
    counts, edges = np.histogram(ratios, bins=8, range=(0.0, 2.0))
    assert [b.count for b in out[1:-1]] == counts.tolist()
    assert out[0].count == int(np.sum(ratios < 0.0))
    assert out[-1].count == int(np.sum(ratios > 2.0))


def test_ratio_histogram_validation():
    with pytest.raises(ValueError):
        ratio_histogram(_toy_records(), bins=0)


# ------------------------------------------------------------------ probe


def test_eh_probe_m1_is_theta_minus_psi(tables_small):
    # the single class mod 1 compares theta(x) against psi(x)
    x = 1e4
    probe = eh_probe(x, 0.999, tables_small)   # m_max = 1
    assert probe.m_max == 1
    theta = math.fsum(
        math.log(p) for p in plain_sieve(math.floor(x)).tolist())
    want = abs(theta - psi(tables_small, x))
    assert probe.total == pytest.approx(want, abs=1e-10)
    assert probe.per_m == ((1, pytest.approx(want, abs=1e-10)),)


def test_eh_probe_small_case_by_hand(tables_small):
    # x = 100, eps ~ .5 -> m_max = 10; check one level against enumeration
    probe = eh_probe(100.0, 0.5, tables_small)
    assert probe.m_max == 10
    psi_x = psi(tables_small, 100.0)
    devs = []
    for a in (1, 3):   # units mod 4
        s = math.fsum(math.log(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23,
                                            29, 31, 37, 41, 43, 47, 53, 59,
                                            61, 67, 71, 73, 79, 83, 89, 97)
                      if p % 4 == a)
        devs.append(abs(s - psi_x / 2.0))
    (m4,) = [e for m, e in probe.per_m if m == 4]
    assert m4 == pytest.approx(max(devs), abs=1e-10)
    assert probe.total == pytest.approx(
        math.fsum(e for _, e in probe.per_m), abs=1e-12)


def test_eh_probe_prime_powers_variant(tables_small):
    plain = eh_probe(1000.0, 0.5, tables_small)
    powered = eh_probe(1000.0, 0.5, tables_small, prime_powers=True)
    assert plain.m_max == powered.m_max
    # mod 1: primes-only leaves |theta - psi| > 0, prime powers cancel
    assert powered.per_m[0][1] == pytest.approx(0.0, abs=1e-10)
    assert plain.per_m[0][1] > 1.0


def test_eh_probe_validation(tables_small):
    with pytest.raises(ValueError):
        eh_probe(1000.0, 0.0, tables_small)
    with pytest.raises(ValueError):
        eh_probe(1000.0, 1.0, tables_small)
    with pytest.raises(ValueError):
        eh_probe(1.0, 0.5, tables_small)


def test_residue_sum_identity_small(tables_small):
    for m in (1, 2, 6, 30, 97):
        lhs, rhs = residue_sum_check(m, 1e4, tables_small)
        assert lhs == pytest.approx(rhs, abs=1e-9), m


def test_residue_sum_check_prime_powers(tables_small):
    lhs, rhs = residue_sum_check(6, 1e4, tables_small, prime_powers=True)
    assert lhs == pytest.approx(rhs, abs=1e-9)
    with pytest.raises(ValueError):
        residue_sum_check(0, 1e4, tables_small)


@pytest.mark.parametrize("prime_powers", [False, True])
def test_eh_probe_parallel_equals_serial(tables_small, prime_powers):
    serial = eh_probe(1e5, 0.5, tables_small, prime_powers, workers=1)
    pooled = eh_probe(1e5, 0.5, tables_small, prime_powers, workers=2)
    assert pooled.per_m == serial.per_m
    assert pooled.total == serial.total


def _int64_copy(tables):
    """The tables with int64 prime powers, as they were stored before they
    were narrowed to uint32."""
    return dataclasses.replace(
        tables, prime_powers=tables.prime_powers.astype(np.int64))


@pytest.mark.parametrize("prime_powers", [False, True])
def test_uint32_and_int64_residues_agree(tables_small, prime_powers):
    # int64 tables keep the residue base in int64
    wide = _int64_copy(tables_small)
    narrow = eh_probe(1e5, 0.5, tables_small, prime_powers)
    assert eh_probe(1e5, 0.5, wide, prime_powers) == narrow
    levels = range(1, 60)
    assert (residue_sum_checks(levels, 1e5, wide, prime_powers)
            == residue_sum_checks(levels, 1e5, tables_small, prime_powers))


def _probe_bits(probe):
    return (probe.x.hex(), probe.epsilon.hex(), probe.m_max,
            probe.total.hex(), [(m, e.hex()) for m, e in probe.per_m])


@pytest.mark.parametrize("prime_powers", [False, True])
@pytest.mark.parametrize("x", [2, 2.5, 3.7, 1000.5, 1e5])
def test_probe_does_not_depend_on_the_table_bound(tables_small, x,
                                                  prime_powers):
    # the probe and its self-check read the prime powers up to x alone, so
    # tables sieved to ceil(x) give the bits of tables sieved to 1e5
    tight = build_tables(math.ceil(x))
    levels = range(1, min(50, math.floor(x)) + 1)
    got = [(_probe_bits(eh_probe(x, 0.5, tables, prime_powers)),
            [(lhs.hex(), rhs.hex()) for lhs, rhs
             in residue_sum_checks(levels, x, tables, prime_powers)])
           for tables in (tight, tables_small)]
    assert got[0] == got[1]


def _searched_weights(tables, x, prime_powers):
    """The residue base and weights by a search of every base element in
    the prime-power table: the route _weights_upto took before it sliced
    the table. The primes base comes from plain_sieve, in the dtype of the
    table."""
    base = tables.prime_powers if prime_powers else plain_sieve(
        math.floor(x)).astype(tables.prime_powers.dtype)
    arr = base[:np.searchsorted(base, math.floor(x), side="right")]
    w = tables.prime_power_logs[np.searchsorted(tables.prime_powers, arr)]
    return arr, w


def _kept_weights(tables, x, prime_powers):
    """The residue base and weights of _weights_upto with the skipped
    positions removed: copies, as a pass of its own reads them."""
    arr, w, skip = experiments._weights_upto(tables, x, prime_powers)
    return np.delete(arr, skip), np.delete(w, skip)


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("prime_powers", [False, True])
@pytest.mark.parametrize("x", [2, 3, 4, 7.5, 8, 9, 1e4, 12345.6, 1e5, 1e7])
def test_weights_match_search_oracle(tables_small, tables_big, x,
                                     prime_powers, wide):
    tables = tables_small if x <= tables_small.bound else tables_big
    if wide:    # int64 tables keep the residue base in int64
        tables = _int64_copy(tables)
    arr, w, skip = experiments._weights_upto(tables, x, prime_powers)
    want_arr, want_w = _searched_weights(tables, x, prime_powers)
    # the base and its weights are views of the prime-power tables, and
    # skip is ascending and empty on the prime-powers base
    assert np.shares_memory(arr, tables.prime_powers)
    assert np.shares_memory(w, tables.prime_power_logs)
    assert skip.dtype == np.intp and np.all(np.diff(skip) > 0)
    assert skip.size == 0 or not prime_powers
    # what skip leaves is exactly the searched base and weights
    kept_arr, kept_w = np.delete(arr, skip), np.delete(w, skip)
    assert kept_arr.dtype == want_arr.dtype
    assert kept_arr.tobytes() == want_arr.tobytes()
    assert kept_w.dtype == want_w.dtype
    assert kept_w.tobytes() == want_w.tobytes()


@pytest.mark.parametrize("drop", [0, -1])
def test_primes_base_needs_every_higher_power(tables_small, monkeypatch,
                                              drop):
    # the self-check's right side and the primes base both take the higher
    # powers from _higher_powers, so one it misses must raise, not cancel
    real = experiments._higher_powers

    def short(base, xi):
        powers = list(real(base, xi))
        del powers[drop]
        return iter(powers)

    monkeypatch.setattr(experiments, "_higher_powers", short)
    with pytest.raises(RuntimeError, match="not the primes"):
        eh_probe(1e5, 0.5, tables_small)
    with pytest.raises(RuntimeError, match="not the primes"):
        residue_sum_checks([1, 6], 1e5, tables_small)


def _damaged_higher_at(tables, damage):
    """tables whose higher_at lacks its middle position, or holds an extra
    one: the middle position of a prime."""
    at = tables.higher_at
    if damage == "lacks":
        bad = np.delete(at, at.size // 2)
    else:
        primes_at = np.setdiff1d(np.arange(tables.prime_powers.size), at)
        bad = np.union1d(at, primes_at[primes_at.size // 2])
    return dataclasses.replace(tables, higher_at=bad)


@pytest.mark.parametrize("damage", ["lacks", "extra"])
def test_damaged_higher_positions_raise_on_the_primes_base(tables_small,
                                                           damage):
    # the positions are checked against a recomputation of the higher
    # powers that does not read them; the prime-powers base skips nothing
    # and reads none of them
    bad = _damaged_higher_at(tables_small, damage)
    assert bad.higher_at.size == tables_small.higher_at.size + (
        1 if damage == "extra" else -1)
    with pytest.raises(RuntimeError, match="not the primes"):
        eh_probe(1e5, 0.5, bad)
    with pytest.raises(RuntimeError, match="not the primes"):
        residue_sum_checks([1, 6], 1e5, bad)
    assert _probe_and_check_bits(1e5, bad, True) == \
        _probe_and_check_bits(1e5, tables_small, True)


def _coprime_class_sums(arr, w, m):
    """Weight sums of the coprime residue classes mod m, ascending, from a
    pass of their own over the residue base: the route every level took
    before the levels were folded."""
    sums = np.bincount(arr % m, weights=w, minlength=m)
    return sums[np.gcd(np.arange(m), m) == 1]


@given(st.integers(min_value=1, max_value=20_000))
def test_probe_chains_split_the_levels(m_max):
    chains = experiments._chains(range(1, m_max + 1),
                                 partial(experiments._probe_top, m_max))
    assert sorted(m for chain in chains for m in chain) == \
        list(range(1, m_max + 1))
    assert len(chains) == (m_max + 1) // 2      # one per odd part
    for chain in chains:
        assert m_max < 2 * chain[0] <= 2 * m_max
        assert all(hi == 2 * lo for hi, lo in zip(chain, chain[1:]))


def test_pass_counts():
    probe = experiments._chains(range(1, 3163),
                                partial(experiments._probe_top, 3162))
    assert len(probe) == 1581                   # probe 1e7, epsilon 0.5
    check = experiments._chains(range(1, 51),
                                partial(experiments._check_top,
                                        limit=664_579))   # primes < 1e7
    assert len(check) == 25
    assert all(chain[0] % 2**experiments.CHECK_FOLDS == 0 for chain in check)


@pytest.mark.parametrize("x", [1e5, 1e6])
@pytest.mark.parametrize("prime_powers", [False, True])
def test_folded_levels_match_one_pass_oracle(tables_big, x, prime_powers):
    probe = eh_probe(x, 0.5, tables_big, prime_powers)
    m_max = probe.m_max
    psi_x = psi(tables_big, x)
    arr, w, skip = experiments._weights_upto(tables_big, x, prime_powers)
    kept = _kept_weights(tables_big, x, prime_powers)
    errors = dict(probe.per_m)
    chains = experiments._chains(range(1, m_max + 1),
                                 partial(experiments._probe_top, m_max))
    for sweep in experiments._sweeps(chains):
        for m, sums in experiments._chain_class_sums(
                arr, w, skip, sweep, *experiments._residue_buffers(arr)):
            want = _coprime_class_sums(*kept, m)
            want_error = float(np.abs(want - psi_x / want.size).max())
            if 2 * m > m_max:      # a pass of its own: bit for bit
                assert float.hex(errors[m]) == float.hex(want_error), m
                assert np.array_equal(sums, want), m
            else:                  # folded: the same weights, reordered
                assert abs(errors[m] - want_error) <= 1e-13 * psi_x, m
                assert np.abs(sums - want).max() <= 1e-13 * psi_x, m


#: sha256 of the per-level float.hex lines and the total of
#: eh_probe(1e6, 0.5), generated at the commit before residues() and
#: coprime_mask() entered the probe kernel (from `arr % top` and the gcd
#: rule); the kernel must keep every bit.
PROBE_1E6_DIGESTS = {
    False: "9cb3efbaf6804ec3ccf589cebd4f7ff82c9eb30f45fc06e80f587dd0ac997c63",
    True: "1e85d4f1ee983ed2c5485d604da0ac6cc821e27a34a61698679df25b10542634",
}


@pytest.mark.parametrize("prime_powers", [False, True])
def test_probe_1e6_bits_frozen(tables_big, prime_powers):
    probe = eh_probe(1e6, 0.5, tables_big, prime_powers)
    text = "\n".join(f"{m} {e.hex()}" for m, e in probe.per_m)
    text += f"\ntotal {probe.total.hex()}\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PROBE_1E6_DIGESTS[prime_powers]


def test_residue_sum_checks_do_not_depend_on_the_batch(tables_small):
    levels = [30, 1, 97, 64, 6, 2, 6, 128]
    batch = residue_sum_checks(levels, 1e4, tables_small)
    assert batch == [residue_sum_check(m, 1e4, tables_small)
                     for m in levels]
    for m, (lhs, _) in zip(levels, batch):
        sums = _coprime_class_sums(*_kept_weights(tables_small, 1e4, False),
                                   m)
        want = math.fsum((sums - psi(tables_small, 1e4) / sums.size).tolist())
        assert lhs == pytest.approx(want, abs=1e-9), m


def _gcd_filter_rhs(m, x, tables, prime_powers=False):
    """Right side of the residue-sum identity by a gcd filter over every
    weighted integer <= x; shares no code with residue_sum_checks."""
    if prime_powers:
        base, logs = tables.prime_powers, tables.prime_power_logs
    else:
        base = plain_sieve(math.floor(x))
        logs = np.log(base.astype(np.float64))
    keep = (base <= x) & (np.gcd(base, m) == 1)
    return math.fsum(logs[keep].tolist()) - psi(tables, x)


@pytest.mark.parametrize("prime_powers", [False, True])
def test_residue_sum_checks_match_gcd_filter_oracle(tables_small,
                                                    prime_powers):
    levels = range(1, 201)
    checks = residue_sum_checks(levels, 1e5, tables_small, prime_powers)
    for m, (lhs, rhs) in zip(levels, checks):
        oracle = _gcd_filter_rhs(m, 1e5, tables_small, prime_powers)
        assert rhs == pytest.approx(oracle, abs=1e-9), m
        assert lhs == pytest.approx(rhs, abs=1e-8), m
        assert residue_sum_check(m, 1e5, tables_small, prime_powers) == \
            (lhs, rhs)


def test_residue_sum_checks_validation(tables_small):
    with pytest.raises(ValueError):
        residue_sum_checks([3, 0], 1e4, tables_small)
    with pytest.raises(ValueError):
        residue_sum_checks([3], 1e6, tables_small)


@pytest.mark.parametrize("m", [10**4 + 1, 10**6 + 1, 2**27 + 1])
def test_residue_sum_checks_reject_levels_above_x(tables_small, m):
    # a pass at m * 2^5 would take 32M buckets for 10**6 + 1, and
    # 2**27 + 1 does not fit the uint32 residue base
    with pytest.raises(ValueError, match=f"got {m}"):
        residue_sum_checks([3, m], 1e4, tables_small)


@pytest.mark.parametrize("prime_powers", [False, True])
def test_check_passes_have_at_most_max_m_weights_buckets(
        tables_small, monkeypatch, prime_powers):
    levels = [1, 97, 1000, 1229, 1230, 5001, 9999, 10000]
    tops = []
    real = experiments._chain_class_sums

    def spy(arr, w, skip, chains, *buffers):
        # n is the number of weights: the skipped positions are not ones
        tops.extend((chain[0], max(set(chain) & set(levels)),
                     arr.size - skip.size) for chain in chains)
        return real(arr, w, skip, chains, *buffers)

    monkeypatch.setattr(experiments, "_chain_class_sums", spy)
    checks = residue_sum_checks(levels, 1e4, tables_small, prime_powers)
    assert tops and all(top <= max(m, n) for top, m, n in tops)
    for m, (lhs, rhs) in zip(levels, checks):
        assert lhs == pytest.approx(rhs, abs=1e-9), m


def _probe_and_check_bits(x, tables, prime_powers):
    probe = eh_probe(x, 0.5, tables, prime_powers)
    checks = residue_sum_checks(range(1, 51), x, tables, prime_powers)
    return (_probe_bits(probe),
            [(lhs.hex(), rhs.hex()) for lhs, rhs in checks])


@pytest.mark.parametrize("block", [64, 1000])
@pytest.mark.parametrize("prime_powers", [False, True])
@pytest.mark.parametrize("x", [1e4, 1e5])
def test_residue_blocks_keep_the_bits(tables_small, monkeypatch, x,
                                      prime_powers, block):
    # small blocks put block edges among the skipped higher powers; each
    # bucket still adds its weights in element order
    want = _probe_and_check_bits(x, tables_small, prime_powers)
    monkeypatch.setattr(experiments, "_RESIDUE_BLOCK", block)
    assert _probe_and_check_bits(x, tables_small, prime_powers) == want


@pytest.mark.parametrize("prime_powers", [False, True])
@pytest.mark.parametrize("x", [1e4, 1e5])
def test_sweeps_keep_the_bits(tables_small, monkeypatch, x, prime_powers):
    # against one pass per chain in whole blocks: sweeps of a few chains
    # (4 KiB), the default (every chain at these x) and every chain
    # (1 GiB), also with block edges among the skipped higher powers; each
    # bucket still adds its weights in element order from the same zero
    blocks = (experiments._RESIDUE_BLOCK, 64, 1000)
    limits = (0, 2**12, experiments._SWEEP_BUCKET_BYTES, 2**30)
    monkeypatch.setattr(experiments, "_SWEEP_BUCKET_BYTES", 0)
    want = _probe_and_check_bits(x, tables_small, prime_powers)
    for block in blocks:
        for limit in limits:
            monkeypatch.setattr(experiments, "_RESIDUE_BLOCK", block)
            monkeypatch.setattr(experiments, "_SWEEP_BUCKET_BYTES", limit)
            got = _probe_and_check_bits(x, tables_small, prime_powers)
            assert got == want, (block, limit)


@pytest.mark.parametrize("limit", [0, 2**12, None, 2**30])
def test_sweeps_split_the_chains_in_order(monkeypatch, limit):
    if limit is None:
        limit = experiments._SWEEP_BUCKET_BYTES
    monkeypatch.setattr(experiments, "_SWEEP_BUCKET_BYTES", limit)
    # the probe's chains at x = 1e7, epsilon 0.5, then check chains whose
    # tops (up to 664,579 buckets) exceed the default by far
    chains = experiments._chains(range(1, 3163),
                                 partial(experiments._probe_top, 3162))
    chains += experiments._chains([1, 97, 5001, 50_000, 600_001],
                                  partial(experiments._check_top,
                                          limit=664_579))
    sweeps = experiments._sweeps(chains)
    assert [chain for sweep in sweeps for chain in sweep] == chains
    size = [sum(8 * (chain[0] + 1) for chain in sweep) for sweep in sweeps]
    assert all(n <= limit for n, sweep in zip(size, sweeps)
               if len(sweep) > 1)
    # a sweep starts only where its first chain would overflow the last
    assert all(n + 8 * (sweep[0][0] + 1) > limit
               for n, sweep in zip(size, sweeps[1:]))


def test_probe_sweeps_hold_about_ten_tops():
    chains = experiments._chains(range(1, 3163),
                                 partial(experiments._probe_top, 3162))
    sweeps = experiments._sweeps(chains)     # probe 1e7, epsilon 0.5
    assert len(sweeps) == 119
    assert min(map(len, sweeps)) == 10 and max(map(len, sweeps)) == 20


@pytest.mark.parametrize("prime_powers", [False, True])
def test_probe_and_check_allocate_no_full_length_array(tables_big,
                                                       prime_powers):
    # the passes read views of the tables in blocks: at x = 1e7 a masked
    # copy of the weights or a full-length residue buffer is 5.3 MB; at
    # x = 1e6 and epsilon 0.5 a sweep holds up to 256 KiB of buckets
    for run in (lambda: eh_probe(1e7, 0.9, tables_big, prime_powers,
                                 workers=1),
                lambda: eh_probe(1e6, 0.5, tables_big, prime_powers,
                                 workers=1),
                lambda: residue_sum_checks(range(1, 51), 1e7, tables_big,
                                           prime_powers)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak


def test_check_tops_up_to_200_keep_five_factors_of_2():
    # 9,592 primes below 1e5: the bucket bound leaves every level <= 200
    # at x >= 1e5 on its m * 2^5 pass, so its left side keeps every bit
    for m in range(1, 201):
        v = (m & -m).bit_length() - 1
        assert experiments._check_top(m, 9592) == m << max(0, 5 - v), m


@pytest.mark.parametrize("prime_powers", [False, True])
def test_residue_sum_check_sees_psi(tables_small, monkeypatch,
                                    prime_powers):
    # the right side does not use psi(x), so an error in it shows
    lhs, rhs = residue_sum_check(6, 1e5, tables_small, prime_powers)
    assert abs(lhs - rhs) <= 1e-10
    monkeypatch.setattr(experiments, "psi",
                        lambda tables, x: psi(tables, x) + 1e-3)
    lhs, rhs = residue_sum_check(6, 1e5, tables_small, prime_powers)
    assert abs(lhs - rhs) == pytest.approx(1e-3, rel=1e-6)


# -------------------------------------------------------------- emission


def test_render_scan_csv_shape():
    text = render(_toy_records(), "csv")
    lines = text.split("\n")
    assert lines[0] == SCAN_HEADER
    assert len(lines) == 7 and lines[-1] == ""   # trailing newline
    assert lines[1].startswith("10,")


def test_emit_parse_round_trip(tmp_path, shared_cache):
    records = scan_range(16, shared_cache)
    out = tmp_path / "scan.csv"
    emit(records, "csv", out)
    header, *rows = out.read_text(encoding="ascii").splitlines()
    assert header == SCAN_HEADER
    assert len(rows) == len(records)
    for a, row in zip(records, rows):
        q, gamma, log_q, ratio, abs_dev = row.split(",")
        assert int(q) == a.q
        # 12 significant digits in the file
        assert float(gamma) == pytest.approx(a.gamma_q, rel=1e-11)
        assert float(log_q) == pytest.approx(a.log_q, rel=1e-11)
        assert float(ratio) == pytest.approx(a.ratio, rel=1e-11)
        assert float(abs_dev) == pytest.approx(a.abs_dev, rel=1e-11)


def test_emit_is_deterministic(tmp_path, shared_cache):
    records = scan_range(12, shared_cache)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(records, "csv", a)
    emit(records, "csv", b)
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_empty_scan_emits_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    emit([], "csv", out)
    assert out.read_text(encoding="ascii") == SCAN_HEADER + "\n"


def test_scan_json_round_trip(tmp_path, shared_cache):
    records = scan_range(8, shared_cache)
    out = tmp_path / "scan.json"
    emit(records, "json", out)
    data = json.loads(out.read_text(encoding="ascii"))
    assert [d["q"] for d in data] == [r.q for r in records]
    # json carries full precision, not the 12-digit csv clamp
    for d, r in zip(data, records):
        assert d["gamma_q"] == r.gamma_q


def test_scan_json_nan_becomes_null():
    rec = ScanRecord(q=2, gamma_q=0.5, log_q=math.log(2), ratio=math.nan,
                     abs_dev=0.1)
    data = json.loads(render([rec], "json"))
    assert data[0]["ratio"] is None


def test_plotdata_two_columns_and_comments():
    text = render(_toy_records(), "plotdata")
    lines = [ln for ln in text.strip().split("\n")]
    assert lines[0].startswith("#")
    body = [ln for ln in lines if not ln.startswith("#")]
    assert all(len(ln.split()) == 2 for ln in body)


def test_probe_emission_with_per_m(tmp_path, tables_small):
    probe = eh_probe(100.0, 0.5, tables_small)
    main, per_m = tmp_path / "probe.csv", tmp_path / "per_m.csv"
    emit(probe, "csv", main, per_m_path=per_m)
    main_lines = main.read_text(encoding="ascii").split("\n")
    assert main_lines[0] == PROBE_HEADER
    assert main_lines[1].split(",")[2] == "10"
    per_lines = per_m.read_text(encoding="ascii").split("\n")
    assert per_lines[0] == PER_M_HEADER
    assert len(per_lines) == probe.m_max + 2   # header + rows + newline
    assert per_lines[1].startswith("1,")


def test_per_m_path_rejected_for_non_probe(tmp_path):
    with pytest.raises(ValueError):
        emit(_toy_records(), "csv", tmp_path / "a.csv",
             per_m_path=tmp_path / "b.csv")
    # rejected before the first write
    assert not (tmp_path / "a.csv").exists()
    assert not (tmp_path / "b.csv").exists()


def test_unknown_format_and_payload_rejected(tmp_path):
    with pytest.raises(ValueError):
        render(_toy_records(), "yaml")
    with pytest.raises(TypeError):
        render(object(), "csv")
    with pytest.raises(TypeError):
        render([1, 2, 3], "csv")


@pytest.mark.parametrize("payload", [
    [ScanRecord(3, 1.0, 1.0, 1.0, 0.0), 1],
    (RatioBin(0.0, 1.0, 2), "bin"),
    [RatioBin(0.0, 1.0, 2), ScanRecord(3, 1.0, 1.0, 1.0, 0.0)],
    [RatioBin(0.0, 1.0, 2)],     # no command emits a histogram
])
def test_render_checks_every_element(payload):
    with pytest.raises(TypeError, match="cannot emit payload"):
        render(payload, "csv")

