"""Command line interface: outputs, exit codes, cache handling.

Everything drives entry() in-process with an isolated --cache-dir, matching
exactly what the console script would do; one case runs `python -m ekconst`
in a subprocess, and `decompose 45 --x 1e8`, `probe 1e7 --epsilon 0.9` and
`probe 1e8 --epsilon 0.75` run in fresh interpreters to read their peak RSS.
"""
import argparse
import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ekconst import build_tables, cli, decompose, ekgamma, experiments
from ekconst.cli import (EXIT_CHECK_FAILED, EXIT_IO, EXIT_OK, EXIT_USAGE,
                         entry)


def _run(capsys, *argv):
    code = entry(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _value(out, key):
    for line in out.splitlines():
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"no line {key!r} in output:\n{out}")


# ------------------------------------------------------------------ gamma


def test_gamma_trivial_moduli_agree(tmp_path, capsys):
    code1, out1, _ = _run(capsys, "gamma", "1", "--cache-dir", str(tmp_path))
    code2, out2, _ = _run(capsys, "gamma", "2", "--cache-dir", str(tmp_path))
    assert code1 == code2 == EXIT_OK
    assert _value(out1, "gamma_q") == _value(out2, "gamma_q")
    assert _value(out1, "ratio") == "nan"   # log 1 = 0
    assert math.isfinite(float(_value(out2, "ratio")))


def test_gamma_conjugate_field_pair(tmp_path, capsys):
    # Q(zeta_3) = Q(zeta_6)
    _, out3, _ = _run(capsys, "gamma", "3", "--cache-dir", str(tmp_path))
    _, out6, _ = _run(capsys, "gamma", "6", "--cache-dir", str(tmp_path))
    assert _value(out3, "gamma_q") == _value(out6, "gamma_q")


def test_python_m_runs_the_cli(tmp_path, capsys):
    # `python -m ekconst` from a checkout, with nothing installed
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "ekconst", "gamma", "45",
         "--cache-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    _, out, _ = _run(capsys, "gamma", "45", "--cache-dir", str(tmp_path))
    assert _value(done.stdout, "gamma_q") == _value(out, "gamma_q")


def test_gamma_usage_error(tmp_path, capsys):
    code, _, err = _run(capsys, "gamma", "0", "--cache-dir", str(tmp_path))
    assert code == EXIT_USAGE
    assert "error" in err


def test_gamma_persists_cache(tmp_path, capsys):
    _run(capsys, "gamma", "12", "--cache-dir", str(tmp_path))
    assert (tmp_path / "conductors.csv").exists()
    code, out, _ = _run(capsys, "cache", "list", "--cache-dir",
                        str(tmp_path))
    assert code == EXIT_OK
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    # one row per divisor > 1 of 12
    assert [int(r.split(",")[0]) for r in rows] == [2, 3, 4, 6, 12]


#: sha256 of (stdout with the cache directory written {tmp}, cache file
#: bytes) after each --em-terms 50 command, run in this order on a cache
#: that already holds the em16 rows of `gamma 45` and `scan 64`; frozen
#: before the depth became a property of the cache object.
EM50_DIGESTS = [
    (("gamma", "45", "--em-terms", "50"),
     "32a87959cfe7873c10daef48b0e1c055f9bfc6277aad3651a31264ab8da7942b",
     "a7e7b5c95ea548d4e08d45cc3ae9207673b28fb1164907121a6bece5098676e6"),
    (("decompose", "45", "--x", "1e4", "--em-terms", "50"),
     "3c2c0375ede4ea15e6fa427ee03bfdaac20dce7361e09e971e22f86e42f4c784",
     "a7e7b5c95ea548d4e08d45cc3ae9207673b28fb1164907121a6bece5098676e6"),
    (("scan", "64", "--em-terms", "50", "--workers", "1"),
     "4752d90bcdb29f6a19c3fdeb30750b68788e04148c44d0ed6113db542fc1604c",
     "f68e14ed821b634e13ef764f3b386090d8ed051bd3eed5b68e4bfa179bab0faa"),
]


def test_non_default_tag_end_to_end(tmp_path, capsys):
    # em50 rows are added next to the em16 ones, and every output and the
    # file they leave are the same bytes as before
    cache_dir = str(tmp_path)
    for argv in (("gamma", "45"), ("scan", "64", "--workers", "1")):
        assert _run(capsys, *argv, "--cache-dir", cache_dir)[0] == EXIT_OK
    got = []
    for argv, _, _ in EM50_DIGESTS:
        code, out, _ = _run(capsys, *argv, "--cache-dir", cache_dir)
        assert code == EXIT_OK, argv
        out = out.replace(cache_dir, "{tmp}").encode()
        got.append((argv, hashlib.sha256(out).hexdigest(),
                    hashlib.sha256((tmp_path / "conductors.csv")
                                   .read_bytes()).hexdigest()))
    assert got == EM50_DIGESTS


# -------------------------------------------------------------- decompose


def test_decompose_identity_ok(tmp_path, capsys):
    code, out, _ = _run(capsys, "decompose", "12", "--x", "5000",
                        "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert "identity_check = ok" in out
    assert abs(float(_value(out, "residual"))) <= 1e-6
    assert float(_value(out, "conductor_correction")) <= 0.0
    assert float(_value(out, "ramified")) >= 0.0


def test_decompose_zero_conductor_correction_is_unsigned(tmp_path, capsys):
    # 115 = 5 * 23 has no nonzero layer weight: the sum is empty
    code, out, _ = _run(capsys, "decompose", "115", "--x", "1e5",
                        "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert _value(out, "conductor_correction") == "0"


def test_decompose_explicit_split(tmp_path, capsys):
    code, out, _ = _run(capsys, "decompose", "5", "--x", "1000", "--e", "2",
                        "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert _value(out, "x_split") == "25"


def test_decompose_default_split_is_clamped(tmp_path, capsys):
    # q^2 = 12^2 > x = 100, so the default split clamps to x
    code, out, _ = _run(capsys, "decompose", "12", "--x", "100",
                        "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert _value(out, "x_split") == "100"


@pytest.mark.parametrize("default, want", [(2.0, "64"), (1.5, "22.627416998")])
def test_decompose_default_split_reads_the_constant(tmp_path, capsys,
                                                    monkeypatch, default,
                                                    want):
    # no --e: x_split = q^DEFAULT_SPLIT_EXPONENT, as the same --e gives
    monkeypatch.setattr(cli, "DEFAULT_SPLIT_EXPONENT", default)
    outs = [_run(capsys, "decompose", "8", "--x", "1000", *e,
                 "--cache-dir", str(tmp_path))[1]
            for e in ((), ("--e", str(default)))]
    assert _value(outs[0], "x_split") == want
    assert outs[0] == outs[1]


def test_decompose_oversized_explicit_split_rejected(tmp_path, capsys):
    code, _, err = _run(capsys, "decompose", "3", "--x", "100", "--e", "10",
                        "--cache-dir", str(tmp_path))
    assert code == EXIT_USAGE
    assert "exceeds" in err


@pytest.mark.parametrize("e", ["1e6", "inf", "nan"])
def test_decompose_overflowing_split_exponent_rejected(tmp_path, capsys, e):
    # 10.0 ** 1e6 overflows a float; a non-finite exponent is no split
    code, out, err = _run(capsys, "decompose", "10", "--e", e,
                          "--cache-dir", str(tmp_path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("ekconst: error: ")


def test_decompose_x_below_q_rejected(tmp_path, capsys):
    code, _, err = _run(capsys, "decompose", "3", "--x", "2",
                        "--cache-dir", str(tmp_path))
    assert code == EXIT_USAGE
    assert "error" in err


def test_decompose_sieves_up_to_x(tmp_path, capsys, shared_cache):
    # the tables follow x, so an x past the 1e6 default cap needs no option
    code, out, _ = _run(capsys, "decompose", "45", "--x", "2e6",
                        "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    report = decompose(45, 2e6, 2025.0, build_tables(2_000_000),
                       shared_cache)
    for name, value in dataclasses.asdict(report).items():
        want = str(value) if isinstance(value, int) else experiments._g(value)
        assert _value(out, name) == want, name


def _run_fresh(*argv):
    """Run the CLI in a fresh interpreter that reports its own peak RSS
    on stderr after the command; require exit code 0 and return the stdout
    bytes and the peak RSS in MiB.

    The peak is VmHWM (KiB) from /proc/self/status, the high-water mark of
    the interpreter's own memory. ru_maxrss would carry over the peak of
    the test process that forked it: inside the whole test module it read
    111 MiB for a run that peaks at 53 MiB on its own.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = ("import sys\n"
              "from ekconst.cli import entry\n"
              "code = entry(sys.argv[1:])\n"
              "with open('/proc/self/status') as fh:\n"
              "    print(*[line.split()[1] for line in fh\n"
              "            if line.startswith('VmHWM:')], file=sys.stderr)\n"
              "sys.exit(code)\n")
    done = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, env=env, timeout=300)
    assert done.returncode == EXIT_OK, done.stderr
    return done.stdout, int(done.stderr.split()[-1]) / 1024


#: sha256 of the stdout of `decompose 45 --x 1e8`, frozen before decompose
#: read the prime powers in slices.
DECOMPOSE_1E8_DIGEST = (
    "d54f51daeaff88e78308fda0a86e86910f89b7f16c6c07b0e3f927916291af9b")
#: Peak RSS of that run in MiB: about 100, the tables to 1e8 and no
#: primes array next to them. They brought it to 122 while they held a
#: uint32 copy of the primes and to 212 while they held int64 primes;
#: full-length temporaries of the long sums took it to 348.
DECOMPOSE_1E8_MAX_RSS_MB = 115


def test_decompose_1e8_output_and_peak_rss(tmp_path):
    out, peak_mb = _run_fresh("decompose", "45", "--x", "1e8",
                              "--cache-dir", str(tmp_path))
    assert (hashlib.sha256(out).hexdigest()
            == DECOMPOSE_1E8_DIGEST), out.decode()
    assert peak_mb < DECOMPOSE_1E8_MAX_RSS_MB, peak_mb


#: sha256 of the stdout of `probe 1e7 --epsilon 0.9 --workers 1`, made
#: while the tables held int64 primes.
PROBE_1E7_EPS09_DIGEST = (
    "810e2b0e8ba2a3c4a5f957669fb70da53de9898959003d39725ef68b3088209d")
#: Peak RSS of that run in MiB: about 40 with no primes array in the
#: tables, 42.5 while they held a uint32 copy of the primes, 53 while the
#: primes base held a masked copy of the weights and a full-length residue
#: buffer, 65 while the tables held int64 primes and the probe copied its
#: base.
PROBE_1E7_MAX_RSS_MB = 45


def test_probe_1e7_output_and_peak_rss():
    # five levels: the run is the sieve, the probe's and the self-check's
    # reads of the base and a few passes, so the tables and what is copied
    # from them set its peak
    out, peak_mb = _run_fresh("probe", "1e7", "--epsilon", "0.9",
                              "--workers", "1")
    assert (hashlib.sha256(out).hexdigest()
            == PROBE_1E7_EPS09_DIGEST), out.decode()
    assert peak_mb < PROBE_1E7_MAX_RSS_MB, peak_mb


#: sha256 of the stdout of `probe 1e8 --epsilon 0.75 --workers 1`, made
#: while the primes base held a masked copy of the weights.
PROBE_1E8_DIGEST = (
    "2fcec33cec5bfff565ed0616a6b4c70de76a085fbebd42ce7e665e2f0e89b171")
#: Peak RSS of that run in MiB: about 98, the tables to 1e8, against 120
#: while they held a uint32 copy of the primes and 241 with a masked copy
#: of the weights and a full-length residue buffer of 46 MB each.
PROBE_1E8_MAX_RSS_MB = 115


def test_probe_1e8_output_and_peak_rss():
    # 100 levels at the largest table bound: the passes must read the
    # tables in place
    out, peak_mb = _run_fresh("probe", "1e8", "--epsilon", "0.75",
                              "--workers", "1")
    assert (hashlib.sha256(out).hexdigest()
            == PROBE_1E8_DIGEST), out.decode()
    assert peak_mb < PROBE_1E8_MAX_RSS_MB, peak_mb


def test_decompose_rejects_the_depth_before_the_sieve(tmp_path, capsys,
                                                     monkeypatch):
    # the cache checks --em-terms when it is opened, before the tables to
    # x are built
    def refuse(n):
        raise AssertionError(f"tables to {n} built")
    monkeypatch.setattr(cli, "build_tables", refuse)
    code, out, err = _run(capsys, "decompose", "45", "--x", "1e8",
                          "--em-terms", "5", "--cache-dir", str(tmp_path))
    assert (code, out, err) == (
        EXIT_USAGE, "", "ekconst: error: n_terms must be >= 10, got 5\n")


_SIEVED = [
    (("decompose", "12", "--x", "1000"), 1000),
    (("decompose", "12", "--x", "12345.6"), 12346),
    (("decompose", "12"), 100_000),
    (("probe", "1000.5", "--workers", "1"), 1001),
]


@pytest.mark.parametrize("argv,bound", _SIEVED,
                         ids=[" ".join(argv) for argv, _ in _SIEVED])
def test_tables_are_sieved_up_to_x(tmp_path, capsys, monkeypatch, argv,
                                   bound):
    # one table, at ceil(x): the smallest bound the library accepts
    built = []

    def recording(n):
        built.append(n)
        return build_tables(n)

    monkeypatch.setattr(cli, "build_tables", recording)
    monkeypatch.setenv("EKCONST_CACHE_DIR", str(tmp_path))
    assert _run(capsys, *argv)[0] == EXIT_OK
    assert built == [bound]


# ------------------------------------------------------------------- scan


def test_scan_to_file(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, out, _ = _run(capsys, "scan", "8", "--out", str(out_file),
                        "--workers", "1", "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert "# ekconst scan Q=8" in out
    assert f"# wrote {out_file}" in out
    header, *rows = out_file.read_text(encoding="ascii").splitlines()
    assert header == experiments.SCAN_HEADER
    assert [int(row.split(",")[0]) for row in rows] == list(range(9, 17))


def test_scan_to_stdout(tmp_path, capsys):
    code, out, err = _run(capsys, "scan", "4", "--workers", "1",
                          "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert out.splitlines()[0] == "q,gamma_q,log_q,ratio,abs_dev"
    assert len(out.splitlines()) == 5
    assert "# ekconst scan Q=4" in err     # summary moves to stderr


def test_scan_json_format(tmp_path, capsys):
    out_file = tmp_path / "scan.json"
    code, _, _ = _run(capsys, "scan", "4", "--format", "json", "--out",
                      str(out_file), "--workers", "1",
                      "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    import json
    data = json.loads(out_file.read_text())
    assert [d["q"] for d in data] == [5, 6, 7, 8]


def test_scan_usage_error(tmp_path, capsys):
    code, _, _ = _run(capsys, "scan", "1", "--cache-dir", str(tmp_path))
    assert code == EXIT_USAGE
    code, _, _ = _run(capsys, "scan", "8", "--workers", "0",
                      "--cache-dir", str(tmp_path))
    assert code == EXIT_USAGE


def test_scan_repeat_runs_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _run(capsys, "scan", "16", "--out", str(a), "--workers", "1",
         "--cache-dir", str(tmp_path))
    _run(capsys, "scan", "16", "--out", str(b), "--workers", "1",
         "--cache-dir", str(tmp_path))
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------ probe


def test_probe_selfcheck_ok(tmp_path, capsys):
    out_file = tmp_path / "probe.csv"
    per_m = tmp_path / "per_m.csv"
    code, out, _ = _run(capsys, "probe", "1000", "--epsilon", "0.5",
                        "--out", str(out_file),
                        "--per-m-out", str(per_m))
    assert code == EXIT_OK
    assert "selfcheck=ok" in out
    assert out_file.read_text().startswith("x,epsilon,m_max,total\n")
    assert per_m.read_text().startswith("m,max_abs_error\n")


def test_probe_stdout_and_prime_powers(capsys, tmp_path):
    code, out, _ = _run(capsys, "probe", "500", "--epsilon", "0.6",
                        "--prime-powers")
    assert code == EXIT_OK
    assert "prime_powers=True" in out
    assert "x,epsilon,m_max,total" in out


def test_probe_usage_errors(tmp_path, capsys):
    code, _, _ = _run(capsys, "probe", "1000", "--epsilon", "1.5")
    assert code == EXIT_USAGE
    code, _, _ = _run(capsys, "probe", "1")
    assert code == EXIT_USAGE
    code, _, _ = _run(capsys, "probe", "1000", "--per-m-out",
                      str(tmp_path / "x.csv"))
    assert code == EXIT_USAGE
    code, _, err = _run(capsys, "probe", "1000", "--workers", "0")
    assert code == EXIT_USAGE
    assert "workers must be >= 1" in err


@pytest.mark.parametrize("x", ["inf", "nan", "-inf"])
def test_probe_non_finite_x_rejected(capsys, x):
    code, out, err = _run(capsys, "probe", x)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("ekconst: error: x must be finite")


@pytest.mark.parametrize("argv,shown", [
    (("probe", "-1e3"), "got -1000.0"),
    (("probe", "-2.5E+1", "--epsilon", "0.3"), "got -25.0"),
    (("decompose", "10", "--x", "-1e3"), "x=-1000.0"),
    (("decompose", "10", "--x", "-inf"), "x=-inf"),
])
def test_negative_float_literal_is_named(capsys, argv, shown):
    # exponent and word forms of a negative x are values, not options;
    # x is rejected before any cache is opened
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("ekconst: error: ")
    assert shown in err
    assert "required" not in err


def test_probe_workers_default_is_cpu_count(capsys):
    code, out, _ = _run(capsys, "probe", "1000")
    assert code == EXIT_OK
    header = out.splitlines()[0]
    assert header.startswith("# ekconst probe ")
    assert f" workers={ekgamma._core_count()} " in header


def test_probe_worker_counts_byte_identical(tmp_path, capsys):
    outputs = []
    for workers in ("1", "2"):
        main = tmp_path / f"probe_{workers}.csv"
        per_m = tmp_path / f"per_m_{workers}.csv"
        code, out, _ = _run(capsys, "probe", "1e5", "--out", str(main),
                            "--per-m-out", str(per_m), "--workers", workers)
        assert code == EXIT_OK
        summary = [ln for ln in out.splitlines() if ln.startswith("# m_max=")]
        outputs.append((main.read_bytes(), per_m.read_bytes(), summary))
    assert outputs[0] == outputs[1]


def test_probe_failed_out_prints_nothing(tmp_path, capsys):
    # the files are written before the header lines, so a failed write
    # leaves stdout empty instead of reporting selfcheck=ok
    (tmp_path / "file").write_text("", encoding="ascii")
    target = tmp_path / "file" / "f.csv"
    code, out, err = _run(capsys, "probe", "1000", "--out", str(target))
    assert code == EXIT_IO
    assert out == ""
    assert err == (f"ekconst: error: writing {target}: [Errno 17] File "
                   f"exists: '{tmp_path / 'file'}'\n")


def test_probe_selfcheck_failure_detected(monkeypatch, capsys):
    real = experiments._chain_class_sums

    def corrupted(arr, w, skip, chains, quot, res):
        # one sweep returns the levels of all of its chains
        out = real(arr, w, skip, chains, quot, res)
        for m, sums in out:
            if m == 7:
                sums[2] += 1e-3      # one bucket of one level <= 50
        return out

    monkeypatch.setattr(experiments, "_chain_class_sums", corrupted)
    code, out, _ = _run(capsys, "probe", "1e4", "--workers", "1")
    assert code == EXIT_CHECK_FAILED
    assert "selfcheck=FAILED" in out


def test_probe_selfcheck_sees_psi(monkeypatch, capsys):
    # the right side of the self-check does not use psi(x)
    real = experiments.psi
    monkeypatch.setattr(experiments, "psi",
                        lambda tables, x: real(tables, x) + 1e-3)
    code, out, _ = _run(capsys, "probe", "1e4", "--workers", "1")
    assert code == EXIT_CHECK_FAILED
    assert "selfcheck=FAILED" in out


# ------------------------------------------------------------------ cache


def test_cache_list_empty(tmp_path, capsys):
    code, out, _ = _run(capsys, "cache", "list", "--cache-dir",
                        str(tmp_path))
    assert code == EXIT_OK
    assert "entries=0" in out


def test_cache_verify_and_clear_cycle(tmp_path, capsys):
    _run(capsys, "gamma", "45", "--cache-dir", str(tmp_path))
    code, out, _ = _run(capsys, "cache", "verify", "--cache-dir",
                        str(tmp_path))
    assert code == EXIT_OK and "ok" in out
    code, out, _ = _run(capsys, "cache", "clear", "--cache-dir",
                        str(tmp_path))
    assert code == EXIT_OK
    assert not (tmp_path / "conductors.csv").exists()
    code, out, _ = _run(capsys, "cache", "verify", "--cache-dir",
                        str(tmp_path))
    assert code == EXIT_OK and "entries=0" in out


def test_cache_verify_corrupted_names_conductor(tmp_path, capsys):
    _run(capsys, "gamma", "12", "--cache-dir", str(tmp_path))
    path = tmp_path / "conductors.csv"
    lines = path.read_text(encoding="ascii").splitlines()
    for i, line in enumerate(lines):
        if line.startswith("4,"):
            parts = line.split(",")
            parts[1] = "not-a-float"
            lines[i] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    code, _, err = _run(capsys, "cache", "verify", "--cache-dir",
                        str(tmp_path))
    assert code == EXIT_IO
    assert "corrupted" in err and "conductor 4" in err


def test_corrupted_cache_blocks_gamma(tmp_path, capsys):
    _run(capsys, "gamma", "12", "--cache-dir", str(tmp_path))
    path = tmp_path / "conductors.csv"
    path.write_text("garbage\n", encoding="ascii")
    code, _, err = _run(capsys, "gamma", "12", "--cache-dir",
                        str(tmp_path))
    assert code == EXIT_IO
    assert "corrupted" in err


@pytest.mark.parametrize("argv", [("cache", "verify"), ("gamma", "5")])
def test_non_ascii_cache_byte_is_corruption(tmp_path, capsys, argv):
    # the codec error is a ValueError, which would exit with the usage code
    (tmp_path / "conductors.csv").write_bytes(
        b"q,total,imag_residual,tag\n3,0.5,0.0,em16\n4,0.\xc35,0.0,em16\n")
    code, out, err = _run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert (code, out) == (EXIT_IO, "")
    assert err.startswith("ekconst: error: cache corrupted")
    assert "non-ASCII byte 0xc3" in err


# ------------------------------------------------------------ error table

_BAD_ROW = "4,not-a-float,0.0,em50"
_BAD_ROW_TEXT = ("{tmp}/cache/conductors.csv:2: unparseable values for "
                 "conductor 4 (could not convert string to float: "
                 "'not-a-float')")

# (argv, setup, exit code, stderr after "ekconst: error: "); {tmp} is the
# test's directory. setup "file" makes {tmp}/file a regular file, "corrupt"
# puts a cache with a bad row at conductor 4 under {tmp}/cache.
_ERRORS = [
    (("gamma", "0"), None, EXIT_USAGE, "q must be >= 1, got 0"),
    (("gamma", "1", "--em-terms", "-7"), None, EXIT_USAGE,
     "n_terms must be >= 10, got -7"),
    (("gamma", "2", "--em-terms", "5"), None, EXIT_USAGE,
     "n_terms must be >= 10, got 5"),
    (("gamma", "4", "--em-terms", "5"), None, EXIT_USAGE,
     "n_terms must be >= 10, got 5"),
    (("decompose", "0"), None, EXIT_USAGE, "q must be >= 1, got 0"),
    (("decompose", "3", "--x", "2"), None, EXIT_USAGE,
     "need q <= x and x > 1, got q=3, x=2.0"),
    (("decompose", "5", "--x", "2e8"), None, EXIT_USAGE,
     "x=200000000 exceeds table capacity 100000000"),
    (("decompose", "5", "--e", "0"), None, EXIT_USAGE,
     "split exponent must be finite and positive, got 0.0"),
    (("decompose", "5", "--e", "nan"), None, EXIT_USAGE,
     "split exponent must be finite and positive, got nan"),
    (("decompose", "50", "--x", "1000", "--e", "3"), None, EXIT_USAGE,
     "x_split = q^e = 125000 exceeds x = 1000"),
    (("decompose", "10", "--e", "1e6"), None, EXIT_USAGE,
     "x_split = q^e = inf exceeds x = 100000"),
    (("decompose", "5", "--em-terms", "5"), None, EXIT_USAGE,
     "n_terms must be >= 10, got 5"),
    (("scan", "1"), None, EXIT_USAGE, "Q must be >= 2, got 1"),
    (("scan", "4", "--workers", "0"), None, EXIT_USAGE,
     "workers must be >= 1, got 0"),
    (("scan", "4", "--out", "{tmp}/file/scan.csv"), "file", EXIT_IO,
     "writing {tmp}/file/scan.csv: [Errno 17] File exists: '{tmp}/file'"),
    (("probe", "1"), None, EXIT_USAGE, "x must be finite and >= 2, got 1.0"),
    (("probe", "inf"), None, EXIT_USAGE,
     "x must be finite and >= 2, got inf"),
    (("probe", "1000", "--epsilon", "0"), None, EXIT_USAGE,
     "epsilon must lie in (0, 1), got 0.0"),
    (("probe", "1000", "--epsilon", "1"), None, EXIT_USAGE,
     "epsilon must lie in (0, 1), got 1.0"),
    (("probe", "2e8"), None, EXIT_USAGE,
     "x=200000000 exceeds table capacity 100000000"),
    (("probe", "1000", "--per-m-out", "{tmp}/g.csv"), None, EXIT_USAGE,
     "--per-m-out requires --out"),
    (("probe", "1000", "--workers", "0"), None, EXIT_USAGE,
     "workers must be >= 1, got 0"),
    (("probe", "1000", "--out", "{tmp}/file/f.csv"), "file", EXIT_IO,
     "writing {tmp}/file/f.csv: [Errno 17] File exists: '{tmp}/file'"),
    (("gamma", "45", "--cache-dir", "{tmp}/file"), "file", EXIT_IO,
     "[Errno 17] File exists: '{tmp}/file'"),
    (("gamma", "12"), "corrupt", EXIT_IO,
     "cache corrupted: " + _BAD_ROW_TEXT),
    (("cache", "list"), "corrupt", EXIT_IO,
     "cache corrupted: " + _BAD_ROW_TEXT),
    (("cache", "verify"), "corrupt", EXIT_IO,
     "cache corrupted (conductor 4): " + _BAD_ROW_TEXT),
]


@pytest.mark.parametrize("argv,setup,code,message", _ERRORS,
                         ids=[" ".join(case[0]) for case in _ERRORS])
def test_error_exit_code_and_message(tmp_path, capsys, argv, setup, code,
                                     message):
    tmp = str(tmp_path)
    cache_file = tmp_path / "cache" / "conductors.csv"
    if setup == "file":
        (tmp_path / "file").write_text("", encoding="ascii")
    elif setup == "corrupt":
        cache_file.parent.mkdir()
        cache_file.write_text(f"q,total,imag_residual,tag\n{_BAD_ROW}\n",
                              encoding="ascii")
    before = cache_file.read_bytes() if cache_file.exists() else None
    argv = [arg.format(tmp=tmp) for arg in argv]
    if argv[0] != "probe" and "--cache-dir" not in argv:
        argv += ["--cache-dir", f"{tmp}/cache"]
    got, _, err = _run(capsys, *argv)
    assert (got, err) == (code,
                          f"ekconst: error: {message.format(tmp=tmp)}\n")
    if setup != "file":
        # a usage error writes no cache row, and a corrupted cache is kept
        after = cache_file.read_bytes() if cache_file.exists() else None
        assert after == before


# ---------------------------------------------------------- frozen output

#: sha256 of the outputs of each group of _frozen_outputs, recorded before
#: the emitter's dispatch and the cache verify action were rewritten; the
#: rewrites keep every byte. The histogram group left with the histogram
#: emitter.
FROZEN_OUTPUT_DIGESTS = {
    "scan": "6ad3d35e7f69673e13c74de29e66fa9a11e978aa14744cf371552edc78be872a",
    "scan_tuple":
        "6ad3d35e7f69673e13c74de29e66fa9a11e978aa14744cf371552edc78be872a",
    "scan_empty":
        "ac6d8fb3544ae65002e37d69ae1ef7ddd1f52d522aa7febb5fbe8a71c30c0eca",
    "probe": "876681e8f791634d36e721e62d7eb14e343f1e93983c8fda09a6abe59ab95bfc",
    "probe_prime_powers":
        "77b747c4f90f91d2b39c281864f714a656391881a88a25cb2208318eda06c5a8",
    "rejected":
        "32a5d2df45592c7b521ed01c42ef7976a3022d7b60496f999fe85ad3b0393e46",
    "cache": "f7ff393dff774a9df8fd7e8d5a01274b6134fc04b916903de6f1cb98debf219d",
}


def _frozen_outputs(tmp_path, capsys):
    """group -> [(label, text)]: render and emit of every payload in every
    format, with the per-level file of the probes, the messages of the
    payloads they reject, and the exit code, stdout and stderr of the cache
    actions, with the test's directory read as <dir>."""
    records = []
    for q in range(2, 10):
        # ratios below 0, in [0, 2] and above 2; none at q = 2
        log_q = math.log(q)
        gamma = (q - 5.5) * q * 0.2
        records.append(experiments.ScanRecord(
            q=q, gamma_q=gamma, log_q=log_q,
            ratio=gamma / log_q if q > 2 else math.nan,
            abs_dev=abs(gamma - log_q)))
    tables = build_tables(10**4)
    payloads = {
        "scan": records, "scan_tuple": tuple(records), "scan_empty": [],
        "probe": experiments.eh_probe(1e4, 0.5, tables),
        "probe_prime_powers": experiments.eh_probe(1e4, 0.5, tables, True),
    }
    out = {}
    for name, payload in payloads.items():
        texts = out[name] = []
        for fmt in experiments.FORMATS:
            main, per_m = tmp_path / f"{name}.{fmt}", tmp_path / f"m.{fmt}"
            probe = isinstance(payload, experiments.EhProbeRecord)
            experiments.emit(payload, fmt, main,
                             per_m_path=per_m if probe else None)
            texts += [(f"render {fmt}", experiments.render(payload, fmt)),
                      (f"emit {fmt}", main.read_text(encoding="ascii"))]
            if probe:
                texts.append((f"per_m {fmt}", per_m.read_text("ascii")))
    rejected = out["rejected"] = []
    for payload, fmt in (([1, 2, 3], "csv"), (object(), "json"),
                         (("a",), "plotdata"), (records, "yaml"),
                         (object(), "yaml")):
        with pytest.raises((TypeError, ValueError)) as exc:
            experiments.render(payload, fmt)
        rejected.append(("render", f"{exc.type.__name__}: {exc.value}"))
    for payload in (records, [], tuple(records), object()):
        with pytest.raises((TypeError, ValueError)) as exc:
            experiments.emit(payload, "csv", tmp_path / "a",
                             per_m_path=tmp_path / "b")
        rejected.append(("emit", f"{exc.type.__name__}: {exc.value}"))

    cache_dir = tmp_path / "cache"
    path = ekgamma.ConductorCache.default_path(cache_dir)
    rows = ((1, 0.0, 0.0, "em50"), (3, -0.1234567890123, 1e-17, "em50"),
            (3, -0.12345678901229999, 0.0, "em30"),
            (4, 0.5772156649015329, -2.5e-300, "em50"),
            (12, 1e20 / 3, 0.0, "em50"))
    # one cache per tag; the second save merges the first one's rows
    for tag in ("em30", "em50"):
        cache = ekgamma.ConductorCache(path, n_terms=int(tag[2:]),
                                       load=False)
        for q, total, imag, row_tag in rows:
            if row_tag == tag:
                cache.put(q, total, imag)
        cache.save()
    actions = out["cache"] = []

    def run(label, action):
        code, stdout, stderr = _run(capsys, "cache", action, "--cache-dir",
                                    str(cache_dir))
        actions.append((label, f"{code}\n{stdout}\n{stderr}".replace(
            str(tmp_path), "<dir>")))

    run("list", "list")
    run("verify", "verify")
    run("clear", "clear")
    run("verify missing", "verify")
    run("list missing", "list")
    path.write_text(f"q,total,imag_residual,tag\n1,0.0,0.0,em50\n{_BAD_ROW}\n",
                    encoding="ascii")
    run("verify corrupt", "verify")
    run("list corrupt", "list")
    return out


def test_emitter_and_cache_output_frozen(tmp_path, capsys):
    outputs = _frozen_outputs(tmp_path, capsys)
    digests = {group: hashlib.sha256(repr(texts).encode()).hexdigest()
               for group, texts in outputs.items()}
    assert digests == FROZEN_OUTPUT_DIGESTS


# ------------------------------------------------------------- top level


def test_help_exits_zero(capsys):
    assert entry(["--help"]) == 0
    capsys.readouterr()
    assert entry(["decompose", "--help"]) == 0
    capsys.readouterr()


def test_readme_names_the_parser_options():
    # every option of every subcommand is in the README, and the README
    # names no option the parser lacks
    parser = cli.build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {option for sub in subparsers.choices.values()
               for action in sub._actions for option in action.option_strings
               if option not in ("-h", "--help")}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme)) == options


def test_unknown_flag_exits_usage(capsys):
    assert entry(["gamma", "3", "--frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_subcommand_exits_usage(capsys):
    assert entry([]) == EXIT_USAGE
    capsys.readouterr()


def test_check_failure_exit_code_is_distinct():
    assert EXIT_CHECK_FAILED == 1
    assert EXIT_USAGE == 2
    assert EXIT_IO == 3
    assert EXIT_OK == 0
