"""Dyadic-range scans, summary statistics, progression-error probes, and
deterministic file emission.

A scan covers one dyadic block Q < q <= 2Q and records gamma_q next to
log q; the statistics measure how tightly the two track each other on
average. The probe measures, for every level m up to x^(1-epsilon), the
worst prime-counting error over the coprime residue classes mod m.

The self-check residue_sum_checks compares the probe's class sums with an
exact sum of Lambda over the prime powers they leave out of psi(x). Each
of the two reads psi(x) and its weights (_weights_upto, slices of the
prime-power table from sieve._prefix) from the tables itself, and the
passes read those slices in place, one block at a time, each block once
for a sweep of several passes: neither allocates an array of the length
of its base.

Emission is deliberately dumb: fixed headers, fixed significant digits,
LF line endings, records in ascending order, so identical inputs produce
byte-identical files.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .accum import fsum_array
from .ekgamma import ConductorCache, _map_chunks
from .sieve import (ArithmeticTables, _higher_powers, _lambda_of, _prefix,
                    _primes_upto, _search, coprime_mask, factorize, psi,
                    residues)
from .stieltjes import EULER_GAMMA

SCAN_HEADER = "q,gamma_q,log_q,ratio,abs_dev"
PROBE_HEADER = "x,epsilon,m_max,total"
PER_M_HEADER = "m,max_abs_error"
FORMATS = ("csv", "json", "plotdata")

#: Histogram support for gamma_q / log q; mass concentrates at 1.
RATIO_RANGE = (0.0, 2.0)

#: A residue-sum check of level m folds its class sums from the pass at
#: m * 2^j, with at least this many factors of 2 in all; so the levels
#: 1..32 share one pass.
CHECK_FOLDS = 5

#: Elements per block of a residue pass: 256 KiB of uint32 quotients and
#: 512 KiB of intp residues, which stay in the L2 cache from the division
#: to the np.add.at that reads them, next to the block of the base and its
#: weights that a sweep reads once for all of its tops. On a 2-core x86-64
#: Xeon (2 MiB of L2 per core), sweeps over the primes below 1e7 at 198 of
#: the tops of probe 1e7 at epsilon 0.5 took a median 1.66 ms a pass,
#: against 1.64 ms in blocks of 2^14, 1.66 ms in blocks of 2^15, 1.87 ms
#: in blocks of 2^17 and 1.92 ms in blocks of 2^18 (7 runs each).
_RESIDUE_BLOCK = 1 << 16

#: Bytes of the bucket arrays that one sweep fills at once (_sweeps):
#: 256 KiB, 10 to 20 tops of probe 1e7 at epsilon 0.5. In the runs above
#: a pass took 1.82 ms with one chain per sweep, 1.77 ms with sweeps of
#: 64 KiB, 1.73 ms with 128 KiB, 1.68 ms with 512 KiB and 1.63 ms with
#: 1 MiB; the larger sweeps gain little for the memory each process adds.
_SWEEP_BUCKET_BYTES = 1 << 18


@dataclass(frozen=True)
class ScanRecord:
    q: int
    gamma_q: float
    log_q: float
    ratio: float      # nan for q <= 2, where log q is too small to divide by
    abs_dev: float


@dataclass(frozen=True)
class RatioBin:
    lo: float
    hi: float
    count: int


@dataclass(frozen=True)
class EhProbeRecord:
    x: float
    epsilon: float
    m_max: int
    total: float
    per_m: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class RangeStatistic:
    n_records: int
    mean_abs_dev: float    # (1/Q) sum |gamma_q - log q| over the block
    normalized: float      # the same divided by log Q


@dataclass(frozen=True)
class MeanStatistic:
    mean: float            # (1/Q) sum gamma_q over the block
    deviation: float       # |mean - log Q|


def scan_range(block: int, cache: ConductorCache | None = None,
               workers: int | None = 1) -> list[ScanRecord]:
    """One record per q in (block, 2*block], ascending.

    The conductors of the block are exactly 2..2*block: d > block is a q of
    the block itself, and d <= block has a multiple in it. One
    cache.fill(conductors, workers) gives their totals under the cache's
    precision tag, the one route to them: it computes those the cache
    lacks, with workers > 1 in a pool of min(workers, cores) processes,
    in chunks of about the same cost. A warm cache computes nothing and
    factors no q.

    Each total then goes to the q of the block that are multiples of its
    conductor, and gamma_q is one math.fsum of gamma and those terms: the
    terms gamma_q(q) takes from the divisors of q, and fsum is correctly
    rounded, so the records are the same bit for bit.
    """
    if block < 2:
        raise ValueError(f"block must be >= 2, got {block}")
    if cache is None:
        cache = ConductorCache()
    top = 2 * block
    conductors = range(2, top + 1)
    totals = cache.fill(conductors, workers)
    terms = [[EULER_GAMMA] for _ in range(block)]    # terms[q - block - 1]
    for d, total in zip(conductors, totals):
        # the multiples of d in (block, top], from the first above block
        for i in range(d - 1 - block % d, block, d):
            terms[i].append(total)
    out = []
    for q, parts in zip(range(block + 1, top + 1), terms):
        val = math.fsum(parts)
        lq = math.log(q)
        ratio = val / lq if q >= 3 else math.nan
        # q, gamma_q, log_q, ratio, abs_dev
        out.append(ScanRecord(q, val, lq, ratio, abs(val - lq)))
    return out


def theorem_statistic(records: list[ScanRecord]) -> RangeStatistic:
    """Block average of |gamma_q - log q|, raw and divided by log Q.

    The divisor Q is recovered as the record count, which equals the dyadic
    base for a full block (Q, 2Q].
    """
    if not records:
        raise ValueError("no records to average")
    n = len(records)
    mean = math.fsum(r.abs_dev for r in records) / n
    lg = math.log(n)
    if lg > 0.0:
        normalized = mean / lg
    else:
        normalized = 0.0 if mean == 0.0 else math.inf
    return RangeStatistic(n_records=n, mean_abs_dev=mean,
                          normalized=normalized)


def dyadic_mean(records: list[ScanRecord], block: int) -> MeanStatistic:
    """Mean of gamma_q over the block against log Q."""
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    if not records:
        raise ValueError("no records to average")
    mean = math.fsum(r.gamma_q for r in records) / block
    return MeanStatistic(mean=mean, deviation=abs(mean - math.log(block)))


def ratio_histogram(records: list[ScanRecord], bins: int) -> list[RatioBin]:
    """Counts of gamma_q / log q in equal bins over [0, 2], plus an
    underflow bin (-inf, 0) and an overflow bin (2, inf).

    Records without a finite ratio (q <= 2) are skipped; the returned
    counts sum to the number of counted records.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    vals = np.asarray([r.ratio for r in records if math.isfinite(r.ratio)],
                      dtype=np.float64)
    lo, hi = RATIO_RANGE
    counts, edges = np.histogram(vals, bins=bins, range=RATIO_RANGE)
    out = [RatioBin(lo=-math.inf, hi=lo,
                    count=int(np.count_nonzero(vals < lo)))]
    out.extend(RatioBin(lo=float(edges[i]), hi=float(edges[i + 1]),
                        count=int(counts[i])) for i in range(bins))
    out.append(RatioBin(lo=hi, hi=math.inf,
                        count=int(np.count_nonzero(vals > hi))))
    return out


def _higher_upto(xi: int) -> list[int]:
    """The prime powers p^v <= xi with v >= 2, from sieve._higher_powers
    over the primes <= sqrt(xi) of sieve._primes_upto: a recomputation
    that does not read the tables."""
    return [pv for pv, _ in _higher_powers(_primes_upto(math.isqrt(xi)), xi)]


def _weights_upto(tables: ArithmeticTables, x: float, prime_powers: bool):
    """The probe's residue base and weights: (arr, w, skip).

    arr and w are the prime powers n <= x and Lambda(n) at them, leading
    slices of tables.prime_powers and tables.prime_power_logs (_prefix),
    views, not copies; the per-level quotient arr // top (sieve.residues)
    takes 0.25 ms on uint32 against 0.62 ms on int64 for the 664,579
    primes below 1e7 on a 2-core x86-64 Xeon with numpy 2.4. skip holds
    the ascending positions in arr of the elements that are not in the
    base: none on the prime-powers base, and on the primes base the higher
    powers p^v (v >= 2), the leading slice of tables.higher_at below
    arr.size, which a pass buckets apart (_chain_class_sums). arr[skip]
    must be the sorted powers of _higher_upto, in count and in place, so
    what skip leaves is the primes <= x: the self-check's right side is
    built from those same powers, so a wrong position raises here instead
    of cancelling there.
    """
    arr, w = _prefix(tables, x)
    if prime_powers:
        return arr, w, np.empty(0, dtype=np.intp)
    xi = math.floor(x)
    skip = tables.higher_at[:_search(tables.higher_at, arr.size)]
    if not np.array_equal(arr[skip], sorted(_higher_upto(xi))):
        raise RuntimeError(f"the prime powers <= {xi} without the "
                           "higher powers are not the primes")
    return arr, w, skip


def _chains(levels, top) -> list[list[int]]:
    """The distinct levels grouped by top(m), a multiple of m by a power of
    2, in ascending order of the tops. Each group is descending and starts
    at its top, added if it is not a level, so one residue pass at the top
    gives the class sums of the whole group."""
    groups: dict[int, set[int]] = {}
    for m in set(levels):
        groups.setdefault(top(m), {top(m)}).add(m)
    return [sorted(groups[t], reverse=True) for t in sorted(groups)]


def _probe_top(m_max: int, m: int) -> int:
    """The largest m * 2^j <= m_max. It lies in (m_max/2, m_max] and is the
    same for every level of one odd part."""
    return m << ((m_max // m).bit_length() - 1)


def _check_top(m: int, limit: int) -> int:
    """m * 2^j with at least CHECK_FOLDS factors of 2, halved while it
    exceeds both m and limit: it depends on m and limit alone, so a level
    checks the same in any batch, and its pass has at most max(m, limit)
    buckets."""
    top = m << max(0, CHECK_FOLDS - ((m & -m).bit_length() - 1))
    while top > max(m, limit):
        top >>= 1
    return top


def _residue_buffers(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The quotient buffer (the dtype of arr) and the intp residue buffer,
    one _RESIDUE_BLOCK each, that _chain_class_sums reuses on every pass
    over arr."""
    return (np.empty(_RESIDUE_BLOCK, dtype=arr.dtype),
            np.empty(_RESIDUE_BLOCK, dtype=np.intp))


def _sweeps(chains) -> list[list]:
    """The chains in their order, split into sweeps whose bucket arrays,
    top + 1 float64 each, total at most _SWEEP_BUCKET_BYTES; a chain whose
    buckets alone exceed that makes a sweep of its own."""
    out, size = [], 0
    for chain in chains:
        need = 8 * (chain[0] + 1)
        if out and size + need <= _SWEEP_BUCKET_BYTES:
            out[-1].append(chain)
            size += need
        else:
            out.append([chain])
            size = need
    return out


def _chain_class_sums(arr: np.ndarray, w: np.ndarray, skip: np.ndarray,
                      chains, quot: np.ndarray, res: np.ndarray
                      ) -> list[tuple[int, np.ndarray]]:
    """(m, weight sums of the residue classes a mod m with gcd(a, m) = 1,
    ascending in a) for each level m of a sweep of chains from _chains
    (_sweeps), over the elements of arr but those at the positions skip
    (_weights_upto).

    One sweep reads arr, w and skip once, in blocks of quot's length (the
    buffers from _residue_buffers), and buckets the weights mod the top of
    every chain, chain[0]. For each top a block's residues are
    arr - (arr // top) * top (sieve.residues), written to res; the block's
    skipped elements go to a spare bucket, top, and one np.add.at adds the
    block's weights into that top's top + 1 buckets, each in element order
    as bincount adds them, from the same zero however the chains are
    grouped, so the sums keep their bits. The spare bucket is then
    dropped. Each lower level of a chain halves the buckets of the level
    above, b[:m] + b[m:], since the classes r and r + m mod 2m make up the
    class r mod m; a folded level adds the same weights in another order.
    coprime_mask(m) picks the coprime classes by striking out the
    multiples of each prime factor of m.
    """
    tops = [chain[0] for chain in chains]
    sweep = [np.zeros(top + 1) for top in tops]
    step = quot.size
    for start in range(0, arr.size, step):
        block = arr[start:start + step]
        weights = w[start:start + step]
        q, r = quot[:block.size], res[:block.size]
        lo, hi = _search(skip, (start, start + block.size))
        spare = skip[lo:hi] - start
        for top, buckets in zip(tops, sweep):
            part = residues(block, top, q, r)
            part[spare] = top
            np.add.at(buckets, part, weights)
    out = []
    for chain, buckets in zip(chains, sweep):
        buckets = buckets[:chain[0]]
        for m in chain:
            while buckets.size > m:
                half = buckets.size // 2
                buckets = buckets[:half] + buckets[half:]
            out.append((m, buckets[coprime_mask(m)]))
    return out


def _level_errors(arr, w, skip, psi_x: float,
                  chains) -> list[tuple[int, float]]:
    """(m, max over coprime a of |E(x; m, a)|) for each level of chains."""
    out = []
    quot, res = _residue_buffers(arr)
    for sweep in _sweeps(chains):
        for m, sums in _chain_class_sums(arr, w, skip, sweep, quot, res):
            out.append((m, float(np.abs(sums - psi_x / sums.size).max())))
    return out


def eh_probe(x: float, epsilon: float, tables: ArithmeticTables,
             prime_powers: bool = False,
             workers: int | None = 1) -> EhProbeRecord:
    """Worst-residue progression errors totalled over levels m <= x^(1-eps).

    E(x; m, a) sums log p over primes p <= x with p = a mod m and subtracts
    psi(x)/phi(m); the maximum of |E| runs over the coprime classes a. With
    prime_powers=True the sum runs over prime powers instead (the classical
    progression count). m = 1 has the single class a = 1 and contributes
    theta(x) - psi(x).

    The levels run in chains of one odd part (_chains): one residue pass
    per odd o <= m_max, at the multiple o * 2^k in (m_max/2, m_max], and
    the levels o * 2^j below it folded from that pass, so (m_max + 1) // 2
    passes in all. The levels above m_max/2 get the sums of a pass, each
    bucket added in element order as bincount adds it; a folded level can
    differ from a pass of its own in the last bits. A pass takes its
    residues by division by the invariant top (sieve.residues). The passes
    run in sweeps (_sweeps) of the chains of a serial run or pool chunk,
    whose buckets total at most _SWEEP_BUCKET_BYTES, 10 to 20 tops at
    x = 1e7 and epsilon 0.5: a sweep reads each block of the base, the
    weights and the skipped positions once for all of its tops. A pass
    then takes about 1.7 ms over the 664,579 primes below 1e7, of which
    np.add.at takes 1.0 ms, against 2.0 ms while each pass read the base
    on its own (bincount of a full-length residue array took 1.6 ms). Its
    two buffers, of one _RESIDUE_BLOCK each, are allocated once per serial
    run or pool chunk, so a call allocates no array of length pi(x).

    psi(x) and the residue base, weights and skipped positions
    (_weights_upto: views of the tables and, on the primes base, the
    positions of the higher powers) are read once per call, 4.6 ms and
    0.3 ms at x = 1e7 on the primes base (1.9 ms with the masked copy of
    the weights that the skipped positions replace). With workers > 1 the
    chains, which are independent, run in round-robin chunks in the
    library's one pool (ekgamma._map_chunks), of min(workers, cores)
    processes that receive the residue base, the weights, the skipped
    positions and psi(x) once each. Each chain does the same arithmetic as
    in the serial loop and the total is summed in ascending m, so the
    record is the same bit for bit.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 2.0 <= x <= tables.bound:
        raise ValueError(f"need 2 <= x <= {tables.bound}, got {x}")
    psi_x = psi(tables, x)
    arr, w, skip = _weights_upto(tables, x, prime_powers)
    m_max = int(math.floor(x ** (1.0 - epsilon)))
    chains = _chains(range(1, m_max + 1), partial(_probe_top, m_max))
    per_m = sorted(_map_chunks(_level_errors, chains, workers,
                               arr, w, skip, psi_x))
    return EhProbeRecord(x=float(x), epsilon=float(epsilon), m_max=m_max,
                         total=math.fsum(e for _, e in per_m),
                         per_m=tuple(per_m))


def residue_sum_checks(levels, x: float, tables: ArithmeticTables,
                       prime_powers: bool = False
                       ) -> list[tuple[float, float]]:
    """Both sides of the identity sum_{(a,m)=1} E(x; m, a) =
    sum_{p <= x, gcd(p, m) = 1} log p - psi(x), for each level 1 <= m <= x,
    computed independently.

    The left side sums the class sums of the probe's chains, less psi(x).
    Each level is folded from the pass at _check_top(m, number of weights)
    (pi(x) on the primes base, not the length of the slice the passes
    read), which depends on m, x and the base alone: the levels 1..50 make
    25 passes at x >= 1e4, a level checks the same in any batch, and a
    pass has at most max(m, number of weights) buckets.

    The right side uses no psi(x), no pass over the weights and not the
    positions tables.higher_at that the primes base skips: it is minus one
    exact fsum of the Lambda(n) that psi(x) has and the coprime weights
    lack, a few hundred values read from the tables (sieve._lambda_of) at
    the prime factors of m and the higher powers that _higher_upto
    recomputes from the primes <= sqrt(x).
    """
    levels = list(levels)
    if any(m < 1 for m in levels):
        raise ValueError(f"every m must be >= 1, got {min(levels)}")
    if not 2.0 <= x <= tables.bound:
        raise ValueError(f"need 2 <= x <= {tables.bound}, got {x}")
    if any(m > x for m in levels):
        raise ValueError(f"every m must be <= x={x}, got {max(levels)}")
    psi_x = psi(tables, x)
    arr, w, skip = _weights_upto(tables, x, prime_powers)
    quot, res = _residue_buffers(arr)
    wanted = set(levels)
    limit = arr.size - skip.size    # the number of weights
    chains = _chains(wanted, partial(_check_top, limit=limit))
    lhs = {m: fsum_array(sums - psi_x / sums.size)
           for sweep in _sweeps(chains)
           for m, sums in _chain_class_sums(arr, w, skip, sweep, quot, res)
           if m in wanted}
    higher = _higher_upto(math.floor(x))
    out = []
    for m in levels:
        # psi(x) has Lambda(n) that the coprime weights lack at n = p | m
        # and at the higher powers: all of them on the primes base, those
        # of the p | m on the prime-powers base
        removed = [p for p, _ in factorize(m)] + [
            pv for pv in higher if not prime_powers or math.gcd(pv, m) > 1]
        out.append((lhs[m], -fsum_array(_lambda_of(tables, removed))))
    return out


def residue_sum_check(m: int, x: float, tables: ArithmeticTables,
                      prime_powers: bool = False) -> tuple[float, float]:
    """residue_sum_checks for the single level m."""
    return residue_sum_checks([m], x, tables, prime_powers)[0]


def _g(value) -> str:
    return format(value, ".12g")


def _finite_or_none(value: float):
    return value if math.isfinite(value) else None


def _render_scan(records, fmt: str) -> str:
    if fmt == "csv":
        lines = [SCAN_HEADER]
        lines.extend(
            f"{r.q},{_g(r.gamma_q)},{_g(r.log_q)},{_g(r.ratio)},{_g(r.abs_dev)}"
            for r in records)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        arr = []
        for r in records:
            d = asdict(r)
            d["ratio"] = _finite_or_none(r.ratio)
            arr.append(d)
        return json.dumps(arr, indent=2) + "\n"
    lines = ["# gamma_q / log q per modulus", "# columns: q ratio"]
    lines.extend(f"{r.q} {_g(r.ratio)}" for r in records
                 if math.isfinite(r.ratio))
    return "\n".join(lines) + "\n"


def _render_probe(probe: EhProbeRecord, fmt: str) -> str:
    if fmt == "csv":
        row = f"{_g(probe.x)},{_g(probe.epsilon)},{probe.m_max},{_g(probe.total)}"
        return PROBE_HEADER + "\n" + row + "\n"
    if fmt == "json":
        d = asdict(probe)
        d["per_m"] = [[m, e] for m, e in probe.per_m]
        return json.dumps(d, indent=2) + "\n"
    return (f"# progression error probe: x={_g(probe.x)} "
            f"epsilon={_g(probe.epsilon)} m_max={probe.m_max} "
            f"total={_g(probe.total)}\n" + _render_per_m(probe, "plotdata"))


def _render_per_m(probe: EhProbeRecord, fmt: str) -> str:
    if fmt == "csv":
        lines = [PER_M_HEADER]
        lines.extend(f"{m},{_g(e)}" for m, e in probe.per_m)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps([[m, e] for m, e in probe.per_m], indent=2) + "\n"
    lines = ["# columns: m max_abs_error"]
    lines.extend(f"{m} {_g(e)}" for m, e in probe.per_m)
    return "\n".join(lines) + "\n"


def render(payload, fmt: str) -> str:
    """Text form of any emittable payload in csv, json or plotdata."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    if isinstance(payload, EhProbeRecord):
        return _render_probe(payload, fmt)
    if isinstance(payload, (list, tuple)):
        # every element is checked: an empty list is a scan
        if all(isinstance(r, ScanRecord) for r in payload):
            return _render_scan(payload, fmt)
    raise TypeError(f"cannot emit payload of type {type(payload).__name__}")


def _write(path, text: str) -> None:
    target = Path(path)
    try:
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"writing {target}: {exc}") from exc


def emit(payload, fmt: str, path, per_m_path=None) -> None:
    """Write a payload to path; deterministic bytes for identical inputs.

    For probe records an optional second file receives the per-level table
    (m, max_abs_error).
    """
    text = render(payload, fmt)
    if per_m_path is not None and not isinstance(payload, EhProbeRecord):
        raise ValueError("per_m_path only applies to probe records")
    _write(path, text)
    if per_m_path is not None:
        _write(per_m_path, _render_per_m(payload, fmt))

