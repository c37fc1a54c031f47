"""Euler-Kronecker constants and the on-disk conductor cache."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ekconst import (DEFAULT_EM_TERMS, EULER_GAMMA, CacheCorruption,
                     ConductorCache, ConductorTotal, build_group,
                     conductor_grid, conductor_totals, divisors, gamma_q,
                     precision_tag, primitive_characters, scan_range,
                     stieltjes_pair_table, totient)
from ekconst import ekgamma, stieltjes
from ekconst.cli import entry
from ekconst.ekgamma import CACHE_ENV_VAR, MIN_ABS_L, _CACHE_HEADER
from lvalue_oracle import l_values


# ---------------------------------------------------------------- values


def test_gamma_field_of_rationals(shared_cache):
    # q = 1 and q = 2 both give the rationals, so gamma itself
    assert gamma_q(1, shared_cache).value == pytest.approx(EULER_GAMMA,
                                                           abs=1e-15)
    assert gamma_q(2, shared_cache).value == pytest.approx(EULER_GAMMA,
                                                           abs=1e-15)


def test_gamma_2m_equals_gamma_m_for_odd_m(shared_cache):
    # Q(zeta_m) = Q(zeta_2m) for odd m; every even divisor of 2m is 2 mod 4
    # and so contributes no primitive characters
    for m in (3, 5, 9, 15, 21, 45, 105):
        a = gamma_q(m, shared_cache).value
        b = gamma_q(2 * m, shared_cache).value
        assert a == pytest.approx(b, abs=1e-15), m


def test_conductor_total_matches_scalar_characters(shared_cache):
    # dual route: batched group DFT vs per-character digamma evaluation
    for d in (3, 4, 5, 7, 8, 9, 12, 16, 40):
        (rec,) = conductor_totals([d])
        scalar = [l_values(chi).logderiv
                  for chi in primitive_characters(build_group(d))]
        want = math.fsum(v.real for v in scalar)
        imag = math.fsum(v.imag for v in scalar)
        assert rec.total == pytest.approx(want, abs=1e-11), d
        assert abs(imag) < 1e-11, d
        assert rec.imag_residual == pytest.approx(0.0, abs=1e-10)


def test_gamma_q_is_sum_over_conductors(shared_cache):
    for q in (3, 4, 12, 45):
        rec = gamma_q(q, shared_cache)
        total = [EULER_GAMMA]
        for d in (d for d in range(2, q + 1) if q % d == 0):
            total.append(conductor_totals([d])[0].total)
        assert rec.value == pytest.approx(math.fsum(total), abs=1e-13)
        assert rec.q == q
        assert rec.tag == precision_tag(DEFAULT_EM_TERMS)
        assert rec.err_estimate > 0


class _ZeroTotals:
    # stands in for the cache: every conductor total is 0, so gamma_q
    # costs no special-function work
    tag = precision_tag(DEFAULT_EM_TERMS)

    def fill(self, qs):
        return [0.0 for q in qs]


def test_err_estimate_matches_totient_sum():
    # the estimate charges one unit per phi(d) over the conductors d > 1
    for q in range(1, 3001):
        units = sum(totient(d) for d in divisors(q)[1:])
        assert gamma_q(q, _ZeroTotals()).err_estimate == (
            units * ekgamma.PER_CHARACTER_ERR), q


def test_known_small_values(shared_cache):
    # gamma_3 = gamma + L'/L(1, chi_-3), both sides independently computed
    (chi,) = primitive_characters(build_group(3))
    want = EULER_GAMMA + l_values(chi).logderiv.real
    assert gamma_q(3, shared_cache).value == pytest.approx(want, abs=1e-12)
    assert gamma_q(3, shared_cache).value == pytest.approx(
        0.9454972808716822, abs=1e-10)
    assert gamma_q(4, shared_cache).value == pytest.approx(
        0.8228252496788465, abs=1e-10)


def test_no_primitive_layer_conductor_2_mod_4():
    (rec,) = conductor_totals([6])
    assert rec.total == 0.0
    assert rec.imag_residual == 0.0


# ------------------------------------------- batched conductor totals


def _per_table_total(q, n_terms):
    """One conductor's total from its own full table of gamma_0 and gamma_1
    at a/q for a = 1..q, indexed at the units: the route conductor_totals
    replaced, kept as its oracle. Its epilogue is the per-conductor one the
    batch replaced in turn: two inverse FFTs, the characters where
    conductor_grid equals q, and one exact sum per part."""
    tag = precision_tag(n_terms)
    if q == 1:
        return ConductorTotal(q=1, total=0.0, imag_residual=0.0, tag=tag)
    group = build_group(q)
    mask = conductor_grid(group) == q
    if not mask.any():
        return ConductorTotal(q=q, total=0.0, imag_residual=0.0, tag=tag)
    g0, g1, _ = stieltjes_pair_table(q, n_terms)
    grid = group.unit_grid
    big0 = np.fft.ifftn(g0[grid - 1]) * group.phi
    big1 = np.fft.ifftn(g1[grid - 1]) * group.phi
    sel0 = big0[mask]
    sel1 = big1[mask]
    assert float(np.min(np.abs(sel0))) / q > MIN_ABS_L
    logderiv = -math.log(q) - sel1 / sel0
    return ConductorTotal(q=q, total=math.fsum(logderiv.real.tolist()),
                          imag_residual=abs(math.fsum(logderiv.imag.tolist())),
                          tag=tag)


def _bits(rec):
    return (rec.q, rec.total.hex(), rec.imag_residual.hex(), rec.tag)


def test_small_l_value_raises_at_its_conductor(monkeypatch):
    # the first conductor of the batch whose smallest |L(1, chi)| is at or
    # below MIN_ABS_L raises; the conductors after it are not summed
    def min_l(q):
        group = build_group(q)
        g0, _, _ = stieltjes_pair_table(q, DEFAULT_EM_TERMS)
        sums = np.fft.ifftn(g0[group.unit_grid - 1]) * group.phi
        return float(np.min(np.abs(sums[conductor_grid(group) == q]))) / q

    lows = {q: min_l(q) for q in (5, 7, 9)}
    low, high = sorted(lows.values())[:2]
    q = min(lows, key=lows.get)
    monkeypatch.setattr(ekgamma, "MIN_ABS_L", (low + high) / 2)
    with pytest.raises(ArithmeticError,
                       match=rf"as small as {low:.3e} at conductor {q}; "
                             "log-derivatives would be unreliable"):
        conductor_totals([5, 7, 9])
    monkeypatch.setattr(ekgamma, "MIN_ABS_L", low)
    with pytest.raises(ArithmeticError, match=f"at conductor {q};"):
        conductor_totals([5, 7, 9])
    monkeypatch.setattr(ekgamma, "MIN_ABS_L", math.nextafter(low, 0.0))
    assert len(conductor_totals([5, 7, 9])) == 3


@pytest.mark.parametrize("n_terms", [DEFAULT_EM_TERMS, 50])
def test_conductor_totals_bit_identical_to_per_conductor_tables(n_terms):
    # includes q = 1 and every q = 2 mod 4, which get the zero total; at 50
    # it pins that --em-terms 50 still reproduces the em50 rows. The batch's
    # one FFT call per conductor, its primitive mask and its one segmented
    # exact sum keep every bit: 30011 is a prime whose 60,018 values pass
    # one chunk of the sum, 60060 has four odd components and a 2-part of
    # 4, and 65536 the {-1, 5} pair alone
    qs = list(range(1, 1501)) + [30011, 60060, 65536]
    got = conductor_totals(qs, n_terms)
    assert [_bits(r) for r in got] == [_bits(_per_table_total(q, n_terms))
                                       for q in qs]


def test_conductor_totals_honours_em_terms():
    qs = [1, 3, 6, 40, 97]
    got = conductor_totals(qs, n_terms=20)
    assert [_bits(r) for r in got] == [_bits(_per_table_total(q, 20))
                                       for q in qs]
    assert conductor_totals([97], 20) == got[-1:]


@pytest.mark.parametrize("qs", [[1], [2], [6, 10], [4]])
def test_too_few_em_terms_rejected_on_every_path(qs, tmp_path):
    # conductors 1 and 2 mod 4 make no Euler-Maclaurin call, and still
    # reject the precision they were asked for; a cache rejects it when it
    # is built, before it reads its file
    with pytest.raises(ValueError, match="n_terms must be >= 10, got 5"):
        conductor_totals(qs, n_terms=5)
    path = tmp_path / "conductors.csv"
    path.write_text("garbage\n", encoding="ascii")
    for where in (None, path):
        with pytest.raises(ValueError, match="n_terms must be >= 10, got 5"):
            ConductorCache(where, n_terms=5)


def test_conductor_totals_block_boundaries(monkeypatch):
    # blocks of 7 points split most conductors across several
    # _em_laurent calls and put several small ones into one
    default = scan_range(40, ConductorCache(path=None))
    monkeypatch.setattr(ekgamma, "EM_BLOCK_POINTS", 7)
    assert scan_range(40, ConductorCache(path=None), workers=1) == default
    assert scan_range(40, ConductorCache(path=None), workers=2) == default


@pytest.mark.parametrize("qs", [[0], [-3], [3, 0, 5], [5, 7, 9, -1]])
def test_conductor_totals_rejects_conductor_below_one(qs):
    with pytest.raises(ValueError):
        conductor_totals(qs)


def test_conductor_totals_skip_per_conductor_tables(monkeypatch):
    # a cold scan and gamma_q must not fall back to full per-conductor
    # special-function tables
    def refuse(*args, **kwargs):
        raise AssertionError("per-conductor table requested")
    monkeypatch.setattr(stieltjes, "stieltjes_pair_table", refuse)
    monkeypatch.setattr(ekgamma, "stieltjes_pair_table", refuse,
                        raising=False)
    scan_range(64, ConductorCache(path=None))
    assert gamma_q(997, ConductorCache(path=None)).value == pytest.approx(
        math.log(997), abs=2.0)


def test_gamma_q_rejects_bad_modulus(shared_cache):
    with pytest.raises(ValueError):
        gamma_q(0, shared_cache)


# ----------------------------------------------------------------- cache


def _sample_records():
    return [
        ConductorTotal(q=3, total=0.3681816159960602, imag_residual=1.2e-17,
                       tag="em50"),
        ConductorTotal(q=4, total=0.2456095847827511, imag_residual=-3.4e-18,
                       tag="em50"),
    ]


def test_cache_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "conductors.csv"
    cache = ConductorCache(path)
    for rec in _sample_records():
        cache.put(rec)
    cache.save()
    reloaded = ConductorCache(path, n_terms=50)
    assert len(reloaded) == 2
    for rec in _sample_records():
        got = reloaded.get(rec.q)
        assert got == rec  # dataclass equality: floats must be identical


def test_cache_save_is_sorted_and_lf(tmp_path):
    path = tmp_path / "conductors.csv"
    cache = ConductorCache(path)
    for rec in reversed(_sample_records()):
        cache.put(rec)
    cache.save()
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("ascii").splitlines()
    assert lines[0] == _CACHE_HEADER
    assert lines[1].startswith("3,")
    assert lines[2].startswith("4,")


def _refuse_totals(*args, **kwargs):
    raise AssertionError("conductor_totals called on a warm cache")


def test_cache_fill_reuses(tmp_path, monkeypatch):
    path = tmp_path / "conductors.csv"
    cache = ConductorCache(path)
    (first,) = cache.fill([5])
    rec = cache.get(5)
    assert first.hex() == rec.total.hex()
    monkeypatch.setattr(ekgamma, "conductor_totals", _refuse_totals)
    (again,) = cache.fill([5])
    assert first is again
    cache.save()
    reloaded = ConductorCache(path)
    assert reloaded.get(5) == rec
    assert reloaded.fill([5])[0].hex() == first.hex()


def test_cache_distinguishes_precision_tags(tmp_path):
    path = tmp_path / "c.csv"
    em30 = ConductorCache(path, n_terms=30)
    (a,) = em30.fill([7])
    em30.save()
    em50 = ConductorCache(path, n_terms=50)
    assert em50.get(7) is None          # the em30 row is not em50's
    (b,) = em50.fill([7])
    assert (em30.tag, em50.tag) == ("em30", "em50")
    rec_a, rec_b = em50.records()
    assert (rec_a.tag, rec_b.tag) == ("em30", "em50")
    assert a.hex() == rec_a.total.hex() == em30.get(7).total.hex()
    assert b.hex() == rec_b.total.hex() == em50.get(7).total.hex()
    assert len(em50) == 2


def test_caches_of_two_tags_keep_each_others_rows(tmp_path):
    # two cache objects of different tags over one file, saving in turn:
    # each save merges the rows the other saved since
    path = tmp_path / "conductors.csv"
    em16, em50 = ConductorCache(path), ConductorCache(path, n_terms=50)
    for qs in ([3, 4], [5], [3, 7]):
        for cache in (em16, em50):
            cache.fill(qs)
            cache.save()
    want = [(q, tag) for q in (3, 4, 5, 7) for tag in ("em16", "em50")]
    # em50 saved last, so its merge holds every row of the file
    for cache in (em50, ConductorCache(path)):
        assert [(r.q, r.tag) for r in cache.records()] == want
    fresh = {tag: conductor_totals([3, 4, 5, 7], int(tag[2:]))
             for tag in ("em16", "em50")}
    for cache in (em16, em50):
        assert [cache.get(q) for q in (3, 4, 5, 7)] == fresh[cache.tag]


def _swap_data_rows(text):
    lines = text.strip().split("\n")
    return "\n".join([lines[0], lines[2], lines[1]]) + "\n"


@pytest.mark.parametrize("mangle,needs_q", [
    (lambda t: t.replace("q,total", "Q,total"), False),          # bad header
    (lambda t: t.replace("\n3,", "\nthree,"), False),            # bad int
    (lambda t: t.replace(",em50\n4", ",em50\n4,nope,0.0,em50\n4", 1), True),
    (_swap_data_rows, False),                                    # unsorted
])
def test_cache_corruption_detected(tmp_path, mangle, needs_q):
    path = tmp_path / "conductors.csv"
    cache = ConductorCache(path)
    for rec in _sample_records():
        cache.put(rec)
    cache.save()
    path.write_text(mangle(path.read_text(encoding="ascii")),
                    encoding="ascii")
    with pytest.raises(CacheCorruption) as info:
        ConductorCache(path)
    if needs_q:
        assert info.value.q == 4


def test_cache_reports_the_first_defect(tmp_path):
    path = tmp_path / "conductors.csv"
    path.write_text(f"{_CACHE_HEADER}\n3,0.5,0.0,em16\n4,nan,0.0,em16\n"
                    "5,0.5,0.0,em16\n6,0.5,0.0\n", encoding="ascii")
    with pytest.raises(CacheCorruption) as info:
        ConductorCache(path)
    assert str(info.value) == f"{path}:3: non-finite value at conductor 4"
    assert info.value.q == 4


# rows sorted by (q, tag): -0.0, subnormals, 1e308, negative residuals and
# two tags per conductor, each written in its repr
_EDGE_ROWS = ["3,-0.0,0.0,em16", "3,0.3681816159960602,1.2e-17,em50",
              "4,5e-324,-3.4e-18,em16", "4,1e+308,2.5e-310,em50",
              "7,-1.7976931348623157e+308,-0.0,em16"]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_cache_edge_rows_round_trip_bit_exact(tmp_path, newline):
    canonical = "\n".join([_CACHE_HEADER, *_EDGE_ROWS]) + "\n"
    path = tmp_path / "blank.csv"
    # blank lines between rows and at the end are skipped, and CRLF reads
    # as LF
    path.write_bytes(newline.join([_CACHE_HEADER, *_EDGE_ROWS[:2], "",
                                   *_EDGE_ROWS[2:], "", ""]).encode("ascii")
                     + newline.encode("ascii"))
    loaded = ConductorCache(path)
    copy = ConductorCache(tmp_path / "copy.csv", load=False)
    for rec in loaded.records():
        copy.put(rec)
    copy.save()
    assert copy.path.read_bytes() == canonical.encode("ascii")
    reloaded = ConductorCache(copy.path)

    def bits(recs):
        return [(r.q, r.total.hex(), r.imag_residual.hex(), r.tag)
                for r in recs]
    want = []
    for row in _EDGE_ROWS:
        q, total, imag, tag = row.split(",")
        want.append((int(q), float(total).hex(), float(imag).hex(), tag))
    for cache in (loaded, reloaded):
        assert bits(cache.records()) == want
        assert bits(ConductorCache(cache.path).records()) == want
        assert bits(ConductorCache(cache.path, n_terms=int(tag[2:])).get(q)
                    for q, _, _, tag in want) == want


@pytest.mark.parametrize("defect", ["", "4,nan,0.0,em16\n"])
def test_cache_non_ascii_byte_reported_at_its_file_offset(tmp_path, defect):
    # the whole file is checked before any row, so a row defect does not
    # hide the byte, and the offset is not one within a decoding chunk; a
    # corrupt file, not a usage error
    rows = "".join(f"{q},0.5,0.0,em16\n" for q in range(5, 2000))
    data = f"{_CACHE_HEADER}\n3,0.5,0.0,em16\n{defect}{rows}".encode("ascii")
    at = 15000
    path = tmp_path / "conductors.csv"
    path.write_bytes(data[:at] + b"\xc3" + data[at + 1:])
    line = data.count(b"\n", 0, at) + 1
    with pytest.raises(CacheCorruption) as info:
        ConductorCache(path)
    assert str(info.value) == (f"{path}:{line}: non-ASCII byte 0xc3 at "
                               f"offset {at}")


def test_cache_cleared_before_the_open_reads_as_empty(tmp_path, capsys,
                                                      monkeypatch):
    # another process's `cache clear` removes the file after any check for
    # it and before the open: the run sees an empty cache
    cache_dir = tmp_path / "cache"
    path = ConductorCache.default_path(cache_dir)
    cache = ConductorCache(path)
    cache.put(_sample_records()[0])
    cache.save()
    real_open = open

    def racing_open(file, *args, **kwargs):
        if Path(file) == path:
            ConductorCache(path, load=False).clear()
        return real_open(file, *args, **kwargs)
    monkeypatch.setattr(ekgamma, "open", racing_open, raising=False)
    assert len(ConductorCache(path)) == 0
    cache.save()        # writes the file again, for the next open to remove
    assert len(ConductorCache(path)) == 0
    cache.save()
    assert entry(["scan", "6", "--cache-dir", str(cache_dir)]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert [r.q for r in ConductorCache(path).records()] == list(range(2, 13))


def test_warm_load_and_scan_build_no_conductor_totals(tmp_path, monkeypatch):
    # a structural guard on the warm path: the cache keeps float pairs,
    # and neither its load nor a warm scan_range builds a row object
    path = tmp_path / "conductors.csv"
    writer = ConductorCache(path)
    for q in range(2, 4097):
        writer.put(ConductorTotal(q, 1.0 / q, 0.0, precision_tag(16)))
    writer.save()
    built = []
    init = ConductorTotal.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["q"])
        init(self, *args, **kwargs)
    monkeypatch.setattr(ConductorTotal, "__init__", counted)
    monkeypatch.setattr(ekgamma, "conductor_totals", _refuse_totals)
    cache = ConductorCache(path)
    assert len(cache) == 4095
    records = scan_range(2048, cache)
    assert len(records) == 2048
    assert built == []
    assert cache.get(4096).total == 1.0 / 4096
    assert built == [4096]      # the wrapper sees a row object being built


def test_cache_rejects_non_finite(tmp_path):
    path = tmp_path / "conductors.csv"
    path.write_text(f"{_CACHE_HEADER}\n3,inf,0.0,em50\n", encoding="ascii")
    with pytest.raises(CacheCorruption) as info:
        ConductorCache(path)
    assert info.value.q == 3


def test_cache_verify_and_clear(tmp_path):
    path = tmp_path / "conductors.csv"
    cache = ConductorCache(path)
    cache.put(_sample_records()[0])
    cache.save()
    # a load parses and checks every row of the file
    assert [r.q for r in ConductorCache(path).records()] == [3]
    ConductorCache(path, load=False).clear()
    assert not path.exists()
    assert len(ConductorCache(path)) == 0


def test_cache_save_requires_path():
    cache = ConductorCache(path=None)
    cache.put(_sample_records()[0])
    with pytest.raises(ValueError):
        cache.save()


def test_cache_atomic_no_partial_file_on_missing_dir(tmp_path):
    # parent dirs are created on save
    path = tmp_path / "deep" / "nested" / "conductors.csv"
    cache = ConductorCache(path)
    cache.put(_sample_records()[0])
    cache.save()
    cache.put(_sample_records()[1])
    cache.save()
    assert path.exists()
    # no temp file of any name is left behind
    assert [p.name for p in path.parent.iterdir()] == ["conductors.csv"]


def test_cache_failed_save_keeps_file_and_leaves_no_temp(tmp_path,
                                                         monkeypatch):
    path = tmp_path / "conductors.csv"
    cache = ConductorCache(path)
    cache.put(_sample_records()[0])
    cache.save()
    before = path.read_bytes()
    cache.put(_sample_records()[1])

    def fail(src, dst):
        raise OSError("disk full")
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        cache.save()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["conductors.csv"]


def test_cache_save_without_new_rows_leaves_file(tmp_path):
    path = tmp_path / "conductors.csv"
    cache = ConductorCache(path)
    cache.put(_sample_records()[0])
    cache.save()
    stranger = path.read_text(encoding="ascii") + "9,0.5,0.0,em50\n"
    path.write_text(stranger, encoding="ascii")
    warm = ConductorCache(path)
    warm.put(_sample_records()[0])       # already there: not a new row
    warm.save()
    cache.save()
    assert path.read_text(encoding="ascii") == stranger
    cache.put(_sample_records()[1])
    cache.save()
    # the file changed since cache saved it, so the save merges: the
    # stranger's row 9 survives next to the new row 4
    assert [r.q for r in ConductorCache(path).records()] == [3, 4, 9]


def test_cache_save_merges_rows_saved_since_load(tmp_path):
    path = tmp_path / "conductors.csv"
    first, second = ConductorCache(path), ConductorCache(path)
    first.put(_sample_records()[0])
    first.save()
    second.put(_sample_records()[1])
    second.save()
    assert ConductorCache(path).records() == _sample_records()
    assert second.records() == _sample_records()
    assert [p.name for p in tmp_path.iterdir()] == ["conductors.csv"]


def test_cache_merge_rejects_a_key_with_other_bits(tmp_path):
    path = tmp_path / "conductors.csv"
    rec = _sample_records()[0]
    first, second = ConductorCache(path), ConductorCache(path)
    first.put(rec)
    first.save()
    second.put(ConductorTotal(q=rec.q, total=rec.total,
                              imag_residual=-rec.imag_residual, tag=rec.tag))
    with pytest.raises(CacheCorruption) as info:
        second.save()
    assert info.value.q == rec.q
    assert ConductorCache(path).records() == [rec]
    # the same bits under the same key merge quietly
    third = ConductorCache(path=path, load=False)
    third.put(rec)
    third.put(_sample_records()[1])
    third.save()
    assert ConductorCache(path).records() == _sample_records()


def test_cache_save_without_new_rows_takes_no_lock(tmp_path, monkeypatch):
    path = tmp_path / "conductors.csv"
    cache = ConductorCache(path)
    cache.put(_sample_records()[0])
    cache.save()
    stamp = path.stat().st_mtime_ns

    def refuse(fd, op):
        raise AssertionError("flock taken by a save with no new rows")
    monkeypatch.setattr(ekgamma.fcntl, "flock", refuse)
    warm = ConductorCache(path, n_terms=50)
    warm.fill([3])
    warm.save()
    cache.save()
    assert path.stat().st_mtime_ns == stamp


_WRITER = """
import sys
from ekconst import ConductorCache
cache = ConductorCache(sys.argv[1])
for q in map(int, sys.argv[2:]):
    cache.fill([q])
    cache.save()
"""


def test_cache_concurrent_writers_keep_every_row(tmp_path, capsys):
    # four processes, disjoint conductors, one cache file, a save per row:
    # each save merges what the others wrote since its last one
    path = tmp_path / "conductors.csv"
    src = str(Path(ekgamma.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    mine = {k: [q for q in range(3, 123) if q % 4 == k] for k in range(4)}
    procs = [subprocess.Popen([sys.executable, "-c", _WRITER, str(path)]
                              + [str(q) for q in qs], env=env)
             for qs in mine.values()]
    for proc in procs:
        assert proc.wait(timeout=120) == 0
    rows = ConductorCache(path).records()
    assert [r.q for r in rows] == list(range(3, 123))
    assert [p.name for p in tmp_path.iterdir()] == ["conductors.csv"]
    capsys.readouterr()
    assert entry(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
    assert f"ok entries={len(rows)}" in capsys.readouterr().out


def test_cache_file_mode_is_not_private(tmp_path):
    path = tmp_path / "conductors.csv"
    cache = ConductorCache(path)
    cache.put(_sample_records()[0])
    cache.save()
    assert path.stat().st_mode & 0o777 == 0o644


def test_default_path_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "override"))
    p = ConductorCache.default_path()
    assert p == tmp_path / "override" / "conductors.csv"
    monkeypatch.delenv(CACHE_ENV_VAR)
    assert "ekconst" in str(ConductorCache.default_path())


def test_empty_cache_env_reads_as_unset(tmp_path, capsys, monkeypatch):
    # as XDG_CACHE_HOME: an empty value is not the current directory
    home, work = tmp_path / "home", tmp_path / "work"
    work.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.chdir(work)
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    unset = ConductorCache.default_path()
    monkeypatch.setenv(CACHE_ENV_VAR, "")
    assert ConductorCache.default_path() == unset == (
        home / ".cache" / "ekconst" / "conductors.csv")
    assert entry(["gamma", "5"]) == 0
    assert f"cache={unset}" in capsys.readouterr().out
    assert unset.exists() and list(work.iterdir()) == []
    # an explicit directory is taken as given, also an empty one
    assert ConductorCache.default_path("") == Path("conductors.csv")
