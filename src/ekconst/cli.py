"""Command-line entry point.

Subcommands: gamma (one constant), decompose (seven-term identity
self-check), scan (dyadic block with summary statistics), probe
(progression-error totals), cache (list / clear / verify the conductor
cache). Exit codes: 0 success, 1 self-check failure, 2 usage, 3 I/O.
The commands raise their errors, and entry() turns each into the line
'ekconst: error: ...' on stderr and its exit code; only cache verify reports
its own, to name the corrupted conductor.

Every command prints a '#' header naming its effective parameters, so any
reported number can be reproduced from the output alone.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import asdict

from .decomp import decompose
from .ekgamma import (CacheCorruption, ConductorCache, _cache_row,
                      _core_count, gamma_q)
from .experiments import (FORMATS, _g, dyadic_mean, eh_probe, emit, render,
                          residue_sum_checks, scan_range, theorem_statistic)
from .sieve import MAX_TABLE_BOUND, build_tables
from .stieltjes import DEFAULT_EM_TERMS

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

#: decompose without --x uses x = max(1e5, q^2), capped here.
DEFAULT_X_CAP = 1_000_000
RESIDUAL_TOLERANCE = 1e-6
DEFAULT_EPSILON = 0.5
DEFAULT_SPLIT_EXPONENT = 2.0

#: probe self-check: moduli checked and absolute tolerance at x = 1e5,
#: scaled linearly with x to track accumulation error growth.
SELF_CHECK_MODULI = 50
SELF_CHECK_TOL = 1e-8
SELF_CHECK_BASE_X = 1e5


def _err(message: str) -> None:
    print(f"ekconst: error: {message}", file=sys.stderr)


def _open_cache(args) -> ConductorCache:
    """The cache of --cache-dir at the precision of --em-terms, which it
    checks."""
    return ConductorCache(ConductorCache.default_path(args.cache_dir),
                          n_terms=args.em_terms)


def _workers(args) -> int:
    """--workers, defaulting to the cores this process may run on; at
    least 1."""
    workers = args.workers if args.workers is not None else _core_count()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _check_capacity(x: float) -> None:
    """x past the table capacity is a usage error: the commands sieve their
    tables up to ceil(x), and build_tables would raise CapacityError."""
    if x > MAX_TABLE_BOUND:
        raise ValueError(
            f"x={_g(x)} exceeds table capacity {MAX_TABLE_BOUND}")


def cmd_gamma(args) -> int:
    if args.q < 1:
        raise ValueError(f"q must be >= 1, got {args.q}")
    cache = _open_cache(args)
    result = gamma_q(args.q, cache)
    cache.save()
    log_q = math.log(args.q)
    ratio = result.value / log_q if log_q > 0.0 else math.nan
    print(f"# ekconst gamma q={args.q} em_terms={args.em_terms} "
          f"cache={cache.path}")
    print(f"q = {args.q}")
    print(f"gamma_q = {_g(result.value)}")
    print(f"log_q = {_g(log_q)}")
    print(f"ratio = {_g(ratio)}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    q = args.q
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    x = (args.x if args.x is not None
         else float(min(max(10**5, q * q), DEFAULT_X_CAP)))
    if not (q <= x and 1 < x):
        raise ValueError(f"need q <= x and x > 1, got q={q}, x={x}")
    _check_capacity(x)
    e = DEFAULT_SPLIT_EXPONENT if args.e is None else args.e
    if not (math.isfinite(e) and e > 0):
        raise ValueError(
            f"split exponent must be finite and positive, got {e}")
    try:
        x_split = float(q) ** e
    except OverflowError:
        x_split = math.inf
    if x_split > x and args.e is not None:
        raise ValueError(f"x_split = q^e = {_g(x_split)} exceeds x = {_g(x)}")
    x_split = float(min(max(q, x_split), x))    # the default clamps to x
    cache = _open_cache(args)       # rejects a bad depth before the sieve
    tables = build_tables(math.ceil(x))
    report = decompose(q, x, x_split, tables, cache)
    cache.save()
    print(f"# ekconst decompose q={q} x={_g(x)} x_split={_g(x_split)} "
          f"em_terms={args.em_terms} "
          f"residual_tolerance={_g(RESIDUAL_TOLERANCE)}")
    for name, value in asdict(report).items():
        print(f"{name} = {value if isinstance(value, int) else _g(value)}")
    if abs(report.residual) <= RESIDUAL_TOLERANCE:
        print("identity_check = ok")
        return EXIT_OK
    print("identity_check = FAILED")
    return EXIT_CHECK_FAILED


def cmd_scan(args) -> int:
    if args.Q < 2:
        raise ValueError(f"Q must be >= 2, got {args.Q}")
    workers = _workers(args)
    cache = _open_cache(args)
    records = scan_range(args.Q, cache, workers)
    cache.save()
    stat = theorem_statistic(records)
    mean_stat = dyadic_mean(records, args.Q)
    summary = (f"# ekconst scan Q={args.Q} n={stat.n_records} "
               f"em_terms={args.em_terms} workers={workers} "
               f"format={args.format} "
               f"mean_abs_dev={_g(stat.mean_abs_dev)} "
               f"normalized={_g(stat.normalized)} "
               f"dyadic_mean={_g(mean_stat.mean)} "
               f"mean_dev={_g(mean_stat.deviation)}")
    if args.out is not None:
        emit(records, args.format, args.out)
        print(summary)
        print(f"# wrote {args.out}")
    else:
        sys.stdout.write(render(records, args.format))
        print(summary, file=sys.stderr)
    return EXIT_OK


def cmd_probe(args) -> int:
    x = args.x
    if not (math.isfinite(x) and x >= 2):
        raise ValueError(f"x must be finite and >= 2, got {x}")
    if not 0.0 < args.epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {args.epsilon}")
    _check_capacity(x)
    if args.per_m_out is not None and args.out is None:
        raise ValueError("--per-m-out requires --out")
    workers = _workers(args)
    tables = build_tables(math.ceil(x))
    probe = eh_probe(x, args.epsilon, tables, args.prime_powers, workers)
    checked = min(probe.m_max, SELF_CHECK_MODULI)
    tolerance = SELF_CHECK_TOL * max(1.0, x / SELF_CHECK_BASE_X)
    checks = residue_sum_checks(range(1, checked + 1), x, tables,
                                args.prime_powers)
    worst = max(abs(lhs - rhs) for lhs, rhs in checks)
    ok = worst <= tolerance
    if args.out is not None:
        # written before any header line, so a failed write prints nothing
        emit(probe, args.format, args.out, per_m_path=args.per_m_out)
    print(f"# ekconst probe x={_g(x)} epsilon={_g(args.epsilon)} "
          f"prime_powers={args.prime_powers} "
          f"workers={workers} format={args.format}")
    print(f"# m_max={probe.m_max} total={_g(probe.total)} "
          f"selfcheck={'ok' if ok else 'FAILED'} checked_m={checked} "
          f"worst={worst:.3e} tolerance={tolerance:.3e}")
    if args.out is not None:
        print(f"# wrote {args.out}")
        if args.per_m_out is not None:
            print(f"# wrote {args.per_m_out}")
    else:
        sys.stdout.write(render(probe, args.format))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_cache(args) -> int:
    path = ConductorCache.default_path(args.cache_dir)
    if args.action == "clear":
        ConductorCache(path, load=False).clear()
        print(f"# cleared {path}")
        return EXIT_OK
    if args.action == "verify":
        # the load parses and checks every row
        try:
            cache = ConductorCache(path)
        except CacheCorruption as exc:
            where = f" (conductor {exc.q})" if exc.q is not None else ""
            _err(f"cache corrupted{where}: {exc}")
            return EXIT_IO
        print(f"# cache={path} ok entries={len(cache)}")
        return EXIT_OK
    cache = ConductorCache(path)
    print(f"# cache={path} entries={len(cache)}")
    for (q, tag), (total, imag) in cache.records():
        print(_cache_row(q, total, imag, tag))
    return EXIT_OK


def _add_cache_options(sub) -> None:
    sub.add_argument("--em-terms", type=int, default=DEFAULT_EM_TERMS,
                     metavar="N",
                     help="Laurent-tail terms in the special-function "
                          f"evaluation; names the precision tag (default "
                          f"{DEFAULT_EM_TERMS})")
    sub.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="conductor cache directory (default: "
                          "$EKCONST_CACHE_DIR or ~/.cache/ekconst)")


def _add_workers_option(sub, what: str) -> None:
    sub.add_argument("--workers", type=int, default=None,
                     help=f"parallel {what} workers (default: usable cores)")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every negative float literal as a value.

    The stock parser only takes '-5' and '-.5' style tokens for negative
    numbers, so '-1e3' or '-inf' ended up as unknown options and the usage
    error named a missing argument instead of the bad value. Subparsers
    inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$",
            re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ekconst",
        description="Euler-Kronecker constants of cyclotomic fields: "
                    "per-modulus values, exact decomposition self-checks, "
                    "dyadic-range scans, progression-error probes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gamma = sub.add_parser(
        "gamma", help="compute gamma_q for one modulus")
    p_gamma.add_argument("q", type=int)
    _add_cache_options(p_gamma)
    p_gamma.set_defaults(func=cmd_gamma)

    p_dec = sub.add_parser(
        "decompose",
        help="evaluate the seven-term identity and self-check its residual")
    p_dec.add_argument("q", type=int)
    p_dec.add_argument("--x", type=float, default=None,
                       help="prime-sum cutoff (default max(1e5, q^2), "
                            f"capped at {DEFAULT_X_CAP})")
    p_dec.add_argument("--e", type=float, default=None,
                       help="window split exponent: x_split = q^e clamped "
                            f"to [q, x] (default {DEFAULT_SPLIT_EXPONENT:g}; "
                            "an explicit value with q^e > x is rejected)")
    _add_cache_options(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_scan = sub.add_parser(
        "scan", help="scan the dyadic block (Q, 2Q] and print statistics")
    p_scan.add_argument("Q", type=int)
    p_scan.add_argument("--out", default=None, metavar="PATH",
                        help="output file (default: records to stdout, "
                             "summary to stderr)")
    p_scan.add_argument("--format", choices=FORMATS, default="csv")
    _add_workers_option(p_scan, "conductor")
    _add_cache_options(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_probe = sub.add_parser(
        "probe",
        help="progression-error totals over levels m <= x^(1-epsilon)")
    p_probe.add_argument("x", type=float)
    p_probe.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p_probe.add_argument("--out", default=None, metavar="PATH")
    p_probe.add_argument("--per-m-out", dest="per_m_out", default=None,
                         metavar="PATH",
                         help="also write the per-level table (needs --out)")
    p_probe.add_argument("--format", choices=FORMATS, default="csv")
    p_probe.add_argument("--prime-powers", action="store_true",
                         help="weight prime powers instead of primes")
    _add_workers_option(p_probe, "level")
    p_probe.set_defaults(func=cmd_probe)

    p_cache = sub.add_parser("cache", help="conductor cache management")
    p_cache.add_argument("action", choices=("list", "clear", "verify"))
    p_cache.add_argument("--cache-dir", default=None, metavar="DIR")
    p_cache.set_defaults(func=cmd_cache)
    return parser


def entry(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 after --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except CacheCorruption as exc:
        _err(f"cache corrupted: {exc}")
        return EXIT_IO
    except OSError as exc:
        _err(str(exc))
        return EXIT_IO
    except ValueError as exc:
        _err(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(entry())
