"""Euler-Kronecker constants of cyclotomic fields.

gamma_q is gamma plus, for every divisor d > 1 of q, the sum over primitive
characters chi mod d of L'/L(1, chi). Those per-conductor totals are the unit
of work and of caching: they depend only on (d, precision tag), every modulus
reuses them through its divisors, and gamma_{2m} = gamma_m for odd m falls
out because conductors congruent to 2 mod 4 carry no primitive characters.

The batch evaluator computes all character sums of one conductor at once: the
sums sum_a chi(a) w(a/q) over the unit group are a multidimensional DFT of w
arranged on the exponent grid, so one inverse FFT over the grid's axes, of
the two weight tables stacked, yields L(1, chi) and L'(1, chi) for every
character simultaneously. The weights gamma_0(a/q) and gamma_1(a/q) are
needed only at the phi(q) units, and conductor_totals evaluates them for
many conductors at once: it concatenates their unit arguments and runs the
Euler-Maclaurin evaluation over blocks of about EM_BLOCK_POINTS of them, so
numpy's per-call overhead is paid per block rather than per conductor.
characters.primitive_mask picks the primitive characters, and one
accum.fsum_segments call per batch sums the real and imaginary
log-derivatives of every conductor of the batch, each exactly and rounded
once, the same floats as one math.fsum per conductor and part. A
per-character scalar route in the test suite cross-checks the DFT, and a
per-conductor route with its own tables, two FFTs and one sum per part
checks every bit of the batch.

ConductorCache.fill(qs, workers) is the library's one route from
conductors to totals: gamma_q, decompose and scan_range all read their
totals through it, as a list of floats. A cache object holds one precision
tag, named by the Euler-Maclaurin depth it is built with; it reads and
fills that tag alone, so no other function takes a depth. It computes the
conductors the cache lacks with conductor_totals and stores them; with
workers > 1 they go through _map_chunks, the library's one process pool.
fill hands them over in decreasing order of their modelled cost, so the
pool's round-robin chunks cost about the same and no process idles while
another finishes. The probe maps its chains of levels, which cost the same
each, through the same pool. A conductor's row is the float pair (total,
imag_residual): conductor_totals returns it with its q, and the cache holds
it under its (q, tag) key, so no row builds an object.

For non-principal chi mod q the Hurwitz expansion gives, with the pole
cancelling against sum_a chi(a) = 0,

    L(1, chi)  = -(1/q) * sum_a chi(a) * digamma(a/q)
    L'(1, chi) = -log(q) * L(1, chi) - (1/q) * sum_a chi(a) * gamma_1(a/q)

with digamma(a/q) = -gamma_0(a/q); the DFT evaluates both sums for every
character at once, and l_at_one is the scalar check on its L(1, chi).
"""
from __future__ import annotations

# not `from concurrent.futures import ProcessPoolExecutor`: the package
# imports that class, and multiprocessing, on first use, so a run that
# starts no pool loads neither
import concurrent.futures
import contextlib
import fcntl
import io
import math
import os
import tempfile
import threading
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .accum import fsum_array, fsum_segments
from .characters import (CharacterGroup, DirichletCharacter, build_group,
                         primitive_mask)
from .sieve import divisors, totient
from .stieltjes import (DEFAULT_EM_TERMS, EULER_GAMMA, _check_em_terms,
                        _em_laurent, digamma_rational)

#: Below this |L(1, chi)| the log-derivative is numerically untrustworthy.
MIN_ABS_L = 1e-6

#: Conservative per-character error allowance at the default precision tag,
#: validated against the per-character scalar route in the test suite.
PER_CHARACTER_ERR = 5e-12

CACHE_ENV_VAR = "EKCONST_CACHE_DIR"
CACHE_FILE_NAME = "conductors.csv"
_CACHE_HEADER = "q,total,imag_residual,tag"


def precision_tag(n_terms: int) -> str:
    _check_em_terms(n_terms)
    return f"em{n_terms}"


@dataclass(frozen=True)
class GammaQ:
    q: int
    value: float
    err_estimate: float
    tag: str


#: Unit arguments a/q per _em_laurent call in conductor_totals. On a 2-core
#: x86-64 host (numpy 2.4, N = 16) the in-place kernel costs 0.25 us per
#: point in blocks of 4096 to 16384 points, 0.27 us at 32768 and 0.34 us at
#: 1024, where numpy's per-call overhead shows. Whole conductors fill the
#: blocks of a cold scan 2048 to 93% at 16384 (278 calls), against 87% at
#: 8192 (594 calls). In 7 rounds of cold scan 2048 on 2 workers, neither
#: 8192 nor 32768 beat 16384 in every round (medians 1.68 s, 1.67 s and
#: 1.63 s), so the size stays.
EM_BLOCK_POINTS = 16384


#: Chunks per pool process, of conductors or of probe chains. Items dealt
#: round robin in decreasing cost give chunks whose costs differ by at most
#: one item's, so more chunks only even out cores that run at different
#: speeds.
CHUNKS_PER_WORKER = 4

#: Fixed cost of a conductor in a cold fill, in unit points. Timing the
#: chunks of a cold scan 2048 one by one (2-core x86-64, numpy 2.4) fits
#: 0.45 us per unit point plus 0.12 ms per conductor with characters.
_CONDUCTOR_POINTS = 250

#: (fn, shared) of a pool process, set once by _init_chunk_worker.
_CHUNK_TASK: tuple = ()


def _init_chunk_worker(fn, shared: tuple) -> None:
    global _CHUNK_TASK
    _CHUNK_TASK = (fn, shared)


def _run_chunk(chunk) -> list:
    fn, shared = _CHUNK_TASK
    return fn(*shared, chunk)


def _core_count() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one, else os.cpu_count(), and 1 if that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_chunks(fn, items: list, workers: int | None, *shared) -> list:
    """The results of fn(*shared, chunk) over chunks of items, concatenated.

    The library's one process pool. With workers > 1 and more than one
    item it has min(workers, _core_count()) processes, at most the core
    count because a fork pool starts all of its processes at once, and runs
    CHUNKS_PER_WORKER chunks per process, dealt round robin: chunk k of n
    is items[k::n]. Callers pass items in decreasing cost, so the chunks
    cost about the same. fn and shared go to each process once, through
    the pool initializer. Otherwise fn runs once, in this process, on all
    of items. fn must treat each item on its own, so the results are the
    same either way up to their order.
    """
    procs = min(workers or 1, _core_count())
    if procs <= 1 or len(items) <= 1:
        return fn(*shared, items)
    n = min(len(items), procs * CHUNKS_PER_WORKER)
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(procs, n), initializer=_init_chunk_worker,
            initargs=(fn, shared)) as pool:
        return [r for part in pool.map(_run_chunk,
                                       [items[k::n] for k in range(n)])
                for r in part]


def conductor_totals(qs, n_terms: int = DEFAULT_EM_TERMS
                     ) -> list[tuple[int, float, float]]:
    """Primitive-character L'/L totals of the conductors qs, in their order:
    one (q, total, imag_residual) row each, total the sum of Re L'/L(1, chi)
    over the primitive chi mod q and imag_residual the absolute sum of the
    imaginary parts. The row carries its q because _map_chunks returns the
    rows of its chunks in chunk order, not in the order of qs.

    Conductors 1 and 2 mod 4 carry no primitive characters and get a zero
    total without a group. The unit arguments a/q (a coprime to q) of the
    others are concatenated across consecutive conductors into batches of
    at most EM_BLOCK_POINTS, one _em_laurent call each; a conductor with
    more units forms a batch of its own, evaluated block by block. Each
    conductor's values then go back onto its exponent grid for its FFT,
    and the batch's log-derivatives into one segmented exact sum.
    _em_laurent is elementwise and each sum is exact, so every total is the
    same bit for bit as when each conductor is evaluated alone.
    """
    qs = list(qs)
    for q in qs:
        if q < 1:
            raise ValueError(f"conductor must be >= 1, got {q}")
    _check_em_terms(n_terms)
    out: list[tuple[int, float, float] | None] = [None] * len(qs)
    batch: list[tuple[int, CharacterGroup]] = []
    points = 0
    for i, q in enumerate(qs):
        if q == 1 or q % 4 == 2:
            out[i] = (q, 0.0, 0.0)
            continue
        group = build_group(q)
        if batch and points + group.phi > EM_BLOCK_POINTS:
            _batch_totals(batch, n_terms, out)
            batch, points = [], 0
        batch.append((i, group))
        points += group.phi
    if batch:
        _batch_totals(batch, n_terms, out)
    return out


def _batch_totals(batch, n_terms: int, out: list) -> None:
    """Rows of the (index, group) pairs of one batch, stored at out[index]:
    the log-derivatives of every conductor, then one segmented exact sum
    over their real and imaginary parts."""
    x = np.concatenate([g.unit_grid.reshape(-1) / g.modulus
                        for _, g in batch])
    # row 0 gamma_0, row 1 gamma_1, at the batch's unit arguments
    weights = np.empty((2, x.size))
    for start in range(0, x.size, EM_BLOCK_POINTS):
        part = slice(start, start + EM_BLOCK_POINTS)
        c0, c1, _ = _em_laurent(x[part], n_terms)
        weights[0, part] = c0
        weights[1, part] = -c1
    del x    # the FFTs of a large conductor set the peak
    logderivs = []
    start = 0
    for _, group in batch:
        stop = start + group.phi
        logderivs.append(_log_derivatives(
            group, weights[:, start:stop].reshape(
                (2,) + group.unit_grid.shape)))
        start = stop
    del weights
    sizes = [v.size for v in logderivs]
    sums = fsum_segments(np.concatenate([v.real for v in logderivs]
                                        + [v.imag for v in logderivs]),
                         sizes + sizes)
    for (i, group), total, imag in zip(batch, sums, sums[len(batch):]):
        out[i] = (group.modulus, total, abs(imag))


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
    return -complex(fsum_array(terms.real), fsum_array(terms.imag)) / q


def _log_derivatives(group: CharacterGroup, weights: np.ndarray
                     ) -> np.ndarray:
    """L'/L(1, chi) at the primitive characters of one conductor, in the
    order of its exponent grid, from gamma_0 and gamma_1 on its unit grid,
    the two rows of weights. One inverse FFT over the grid's axes takes
    both rows."""
    q = group.modulus
    sums = np.fft.ifftn(weights, axes=range(1, weights.ndim))
    sums *= group.phi
    mask = primitive_mask(group)
    sel0 = sums[0][mask]
    sel1 = sums[1][mask]
    del sums
    min_l = float(np.min(np.abs(sel0))) / q
    if min_l <= MIN_ABS_L:
        raise ArithmeticError(
            f"|L(1, chi)| as small as {min_l:.3e} at conductor {q}; "
            "log-derivatives would be unreliable"
        )
    sel1 /= sel0
    return np.subtract(-math.log(q), sel1, out=sel1)


class CacheCorruption(ValueError):
    """Cache file failed validation; carries the offending conductor if known."""

    def __init__(self, message: str, q: int | None = None) -> None:
        super().__init__(message)
        self.q = q


class ConductorCache:
    """File-backed memo of conductor totals, keyed by (q, precision tag).

    A cache object has one tag, precision_tag(n_terms), fixed and checked
    when it is built: get and fill read and compute rows of that tag only.
    Rows of other tags are loaded, merged and saved with the rest.

    Each row is held as the float pair (total, imag_residual) under its
    key, so loading a file and a warm fill build no object per row; get
    returns a pair, records the sorted (key, pair) items, and fill the
    totals alone. A missing file reads as an empty cache, also
    one that another process's clear removes just before the open. Building
    a cache on a path parses the whole file, so a load that raises no
    CacheCorruption has verified it.

    The file is CSV with header ``q,total,imag_residual,tag``, rows sorted by
    (q, tag), floats written with repr (shortest round-trip form, so a reload
    is bit-identical), LF line endings. Reads are lock-free once loaded;
    writes are serialized by an in-process lock, by fcntl.flock on the
    sidecar file ``<name>.lock`` across processes, and by an atomic replace.
    A save with no new rows since the load or the last save leaves an
    existing file alone and takes no lock.

    If the file changed since this cache last loaded or saved it (another
    process saved), a save re-reads it under the lock and writes the union
    of both sets of rows, so concurrent writers lose none. A key whose rows
    differ in any bit raises CacheCorruption: a precision tag names one bit
    pattern.
    """

    def __init__(self, path: str | os.PathLike | None = None, *,
                 n_terms: int = DEFAULT_EM_TERMS, load: bool = True) -> None:
        self.tag = precision_tag(n_terms)
        self.n_terms = n_terms
        self.path = Path(path) if path is not None else None
        # (q, tag) -> (total, imag_residual)
        self._data: dict[tuple[int, str], tuple[float, float]] = {}
        self._lock = threading.Lock()
        self._dirty = False   # rows put since the load or the last save
        self._stamp = None    # _file_stamp of the file last loaded or saved
        if load and self.path is not None:
            self._data, self._stamp = self._read_file()

    @classmethod
    def default_path(cls, cache_dir: str | os.PathLike | None = None) -> Path:
        if cache_dir is None:
            # an empty value reads as unset, as XDG_CACHE_HOME does
            cache_dir = (os.environ.get(CACHE_ENV_VAR)
                         or Path.home() / ".cache" / "ekconst")
        return Path(cache_dir) / CACHE_FILE_NAME

    def _read_file(self) -> tuple[dict, tuple | None]:
        """The file's rows and the _file_stamp of the file they came from;
        no rows and no stamp if there is no file, as after a concurrent
        clear, or if a parent of the path is not a directory (save then
        reports the path)."""
        try:
            fh = open(self.path, "rb")
        except (FileNotFoundError, NotADirectoryError):
            return {}, None
        with fh:
            raw = fh.read()
            stamp = _file_stamp(os.fstat(fh.fileno()))
        if not raw.isascii():
            # a corrupt file: the codec's UnicodeDecodeError would be a
            # ValueError, which reads as a usage error
            at = next(i for i, byte in enumerate(raw) if byte > 0x7f)
            line = raw.count(b"\n", 0, at) + 1
            raise CacheCorruption(f"{self.path}:{line}: non-ASCII byte "
                                  f"{raw[at]:#04x} at offset {at}")
        # one line at a time, with the newline rules of a text-mode read:
        # a list of all the lines, held next to the rows, raises the peak
        # RSS of a cold scan followed by warm ones by about 0.5 MB
        lines = io.TextIOWrapper(io.BytesIO(raw), encoding="ascii")
        return self._parse(lines), stamp

    def _parse(self, lines) -> dict[tuple[int, str], tuple[float, float]]:
        """The rows of the lines of a cache file, (q, tag) -> (total,
        imag_residual) in file order, which is sorted order."""
        out: dict[tuple[int, str], tuple[float, float]] = {}
        if next(lines, "").rstrip("\n") != _CACHE_HEADER:
            raise CacheCorruption(
                f"{self.path}: bad or missing header line")
        prev_key: tuple[int, str] | None = None
        for lineno, line in enumerate(lines, start=2):
            line = line.rstrip("\n")
            if line == "":
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise CacheCorruption(
                    f"{self.path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                q = int(parts[0])
            except ValueError as exc:
                raise CacheCorruption(
                    f"{self.path}:{lineno}: bad conductor field "
                    f"{parts[0]!r}") from exc
            try:
                total = float(parts[1])
                imag = float(parts[2])
            except ValueError as exc:
                raise CacheCorruption(
                    f"{self.path}:{lineno}: unparseable values for conductor "
                    f"{q} ({exc})", q=q) from exc
            if q < 1:
                raise CacheCorruption(
                    f"{self.path}:{lineno}: conductor {q} out of range", q=q)
            if not (math.isfinite(total) and math.isfinite(imag)):
                raise CacheCorruption(
                    f"{self.path}:{lineno}: non-finite value at conductor {q}",
                    q=q)
            key = (q, parts[3])
            if prev_key is not None and key <= prev_key:
                raise CacheCorruption(
                    f"{self.path}:{lineno}: rows not strictly sorted at "
                    f"conductor {q}", q=q)
            prev_key = key
            out[key] = (total, imag)
        return out

    def get(self, q: int) -> tuple[float, float] | None:
        """The (total, imag_residual) row of conductor q under the cache's
        tag, or None."""
        return self._data.get((q, self.tag))

    def records(self) -> list[tuple[tuple[int, str], tuple[float, float]]]:
        """All cached rows as ((q, tag), (total, imag_residual)), sorted."""
        return sorted(self._data.items())

    def put(self, q: int, total: float, imag_residual: float) -> None:
        """Store a row of conductor q under the cache's tag."""
        with self._lock:
            key = (q, self.tag)
            pair = (total, imag_residual)
            if self._data.get(key) != pair:
                self._data[key] = pair
                self._dirty = True

    def fill(self, qs, workers: int | None = 1) -> list[float]:
        """The totals of the conductors qs under the cache's tag, in their
        order. Those the cache lacks are computed by conductor_totals at
        the cache's depth, in the decreasing cost of _fill_order, and stored:
        as one batch, or with workers > 1 in the pool of _map_chunks, whose
        round-robin chunks that order balances. conductor_totals is
        elementwise, so the totals are the same bit for bit either way."""
        qs = list(qs)
        found = [self._data.get((q, self.tag)) for q in qs]
        missing = sorted({q for q, pair in zip(qs, found) if pair is None},
                         key=_fill_order)
        if not missing:
            return [pair[0] for pair in found]
        fresh = {}
        for q, total, imag in _map_chunks(
                partial(conductor_totals, n_terms=self.n_terms), missing,
                workers):
            self.put(q, total, imag)
            fresh[q] = total
        return [fresh[q] if pair is None else pair[0]
                for q, pair in zip(qs, found)]

    def save(self) -> None:
        if self.path is None:
            raise ValueError("cache has no backing path")
        with self._lock:
            if not self._dirty and self.path.exists():
                return
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self._file_lock():
                self._merge_file()
                rows = [_CACHE_HEADER]
                for (q, tag), (total, imag) in self.records():
                    rows.append(_cache_row(q, total, imag, tag))
                payload = "\n".join(rows) + "\n"
                # a unique temp file per save; mkstemp makes it 0600, a
                # plain write 0644. No fsync: the rows are recomputable, a
                # torn file fails validation, and an fsync's wait depends on
                # every other writer to the disk.
                fd, tmp = tempfile.mkstemp(prefix=self.path.name + ".",
                                           suffix=".tmp",
                                           dir=self.path.parent)
                try:
                    with os.fdopen(fd, "w", encoding="ascii",
                                   newline="") as fh:
                        os.fchmod(fh.fileno(), 0o644)
                        fh.write(payload)
                    os.replace(tmp, self.path)
                except BaseException:
                    os.unlink(tmp)
                    raise
                self._stamp = _file_stamp(os.stat(self.path))
            self._dirty = False

    def _merge_file(self) -> None:
        """Add the rows of a file that changed since this cache last loaded
        or saved it; called under _file_lock."""
        try:
            if _file_stamp(os.stat(self.path)) == self._stamp:
                return
        except FileNotFoundError:
            return
        rows, self._stamp = self._read_file()
        for (q, tag), pair in rows.items():
            mine = self._data.setdefault((q, tag), pair)
            if _bits(mine) != _bits(pair):
                raise CacheCorruption(
                    f"{self.path}: conductor {q} tag {tag} has total "
                    f"{pair[0]!r}, imag_residual {pair[1]!r} in the file and "
                    f"{mine[0]!r}, {mine[1]!r} here", q=q)

    @contextlib.contextmanager
    def _file_lock(self):
        """Hold fcntl.flock on the sidecar ``<name>.lock`` of the file.

        The holder removes the sidecar before it lets go, so none is left
        behind. A process that waited on a removed sidecar finds that the
        path now names another file, or none, and tries again.
        """
        lock_path = self.path.with_name(self.path.name + ".lock")
        while True:
            fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                try:
                    held = os.stat(lock_path).st_ino == os.fstat(fd).st_ino
                except FileNotFoundError:
                    held = False
                if held:
                    try:
                        yield
                    finally:
                        os.unlink(lock_path)
                    return
            finally:
                os.close(fd)    # releases the lock

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            if self.path is not None and self.path.exists():
                with self._file_lock():
                    self.path.unlink(missing_ok=True)
            self._stamp = None

    def __len__(self) -> int:
        return len(self._data)


def _fill_order(q: int) -> tuple[int, int]:
    """Sort key of a fill: decreasing modelled cost, then increasing q. The
    cost of conductor q is phi(q) + _CONDUCTOR_POINTS unit points, and 0
    for q = 1 and q = 2 mod 4, which have no primitive characters."""
    if q == 1 or q % 4 == 2:
        return (0, q)
    return (-totient(q) - _CONDUCTOR_POINTS, q)


def _file_stamp(st: os.stat_result) -> tuple[int, int, int]:
    """(inode, size, mtime in ns): a saved file gets a new inode, so a save
    by another process changes it."""
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _bits(pair: tuple[float, float]) -> tuple[str, str]:
    return (pair[0].hex(), pair[1].hex())


def _cache_row(q: int, total: float, imag: float, tag: str) -> str:
    """The line of one row of the cache file, without its newline."""
    return f"{q},{total!r},{imag!r},{tag}"


def gamma_q(q: int, cache: ConductorCache | None = None) -> GammaQ:
    """Euler-Kronecker constant of the q-th cyclotomic field, at the
    precision tag of the cache."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if cache is None:
        cache = ConductorCache()
    # the conductors d > 1 of q are its divisors
    terms = [EULER_GAMMA] + cache.fill(divisors(q)[1:])
    # one unit per phi(d) over the conductors d, and those phi(d) add up
    # to q - 1
    return GammaQ(q=q, value=math.fsum(terms),
                  err_estimate=(q - 1) * PER_CHARACTER_ERR,
                  tag=cache.tag)
