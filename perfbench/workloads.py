"""Workload passes: the argv each one sends, and the checks on every output.

A pass runs in one fresh worker interpreter with an empty conductor cache in
its own temporary directory. Each CLI invocation is one operation; it fails
on a non-zero exit code or on any failed check of its output.

- scan: a cold ``scan 2048``, then WARM_REPEATS warm repeats of the same
  command against the cache the cold run filled.
- probe: ``probe 1e7 --epsilon 0.5`` with both output files.
- moduli: for each of 40 moduli drawn from the seed, ``gamma q`` and then
  ``decompose q --x 1e6``, all against one cache.

The scan and probe argv do not depend on the seed.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference" / "gamma_reference.csv"

EULER_GAMMA = 0.5772156649015329

SCAN_BLOCK = 2048
WARM_REPEATS = 20
SCAN_HEADER = "q,gamma_q,log_q,ratio,abs_dev"

PROBE_X = 10_000_000
PROBE_EPSILON = 0.5
#: Frozen spot for total/x at x = 1e7 (acceptance criterion 8) and its gate.
PROBE_FRACTION = 0.26028
PROBE_FRACTION_TOL = 1e-3

MODULI_FIXED = (45, 997)
MODULI_RANGE = (500, 5000)
MODULI_COUNT = 40
DECOMPOSE_X = "1e6"

#: Agreement with the mpmath table. Printed values also get half a unit in
#: their 12th significant digit, which is all the CLI prints.
REFERENCE_TOL = 1e-12


@dataclass
class Op:
    kind: str
    seconds: float
    failures: list = field(default_factory=list)


def load_reference(path=REFERENCE_PATH) -> dict[int, float]:
    out = {}
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    if lines[0] != "q,gamma_q":
        raise ValueError(f"{path}: bad header {lines[0]!r}")
    for line in lines[1:]:
        q, value = line.split(",")
        out[int(q)] = float(value)
    return out


def moduli_list(seed: int) -> list[int]:
    """45, 997 and one modulus from each of 38 equal strata of [500, 5000],
    shuffled. Stratifying keeps the total cost close across seeds."""
    rng = random.Random(seed)
    lo, hi = MODULI_RANGE
    drawn = MODULI_COUNT - len(MODULI_FIXED)
    width = (hi - lo + 1) / drawn
    out = list(MODULI_FIXED)
    for i in range(drawn):
        a = lo + round(i * width)
        b = lo + round((i + 1) * width) - 1
        q = rng.randint(a, b)
        while q in out:
            q = rng.randint(a, b)
        out.append(q)
    rng.shuffle(out)
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def printed_tolerance(text: str) -> float:
    """REFERENCE_TOL plus half a unit in the 12th significant digit."""
    value = abs(float(text))
    if value == 0.0:
        return REFERENCE_TOL
    return REFERENCE_TOL + 0.5 * 10.0 ** (math.floor(math.log10(value)) - 11)


def check_reference(q: int, text: str, reference: dict) -> list[str]:
    if q not in reference:
        return []
    err = abs(float(text) - reference[q])
    if err > printed_tolerance(text):
        return [f"gamma_{q} printed {text}, reference {reference[q]!r} "
                f"(|diff| {err:.3e})"]
    return []


def check_cache_file(path, moduli, reference) -> dict[int, list[str]]:
    """Full-precision check: gamma_q assembled from the cache file the run
    wrote (repr floats) must match the reference to REFERENCE_TOL.

    A pass starts from an empty cache and uses one precision tag, so each
    conductor has one row whatever the tag is called.
    """
    totals = {}
    for line in Path(path).read_text().splitlines()[1:]:
        q, total = line.split(",")[:2]
        if int(q) in totals:
            return {q: [f"cache file has two rows for conductor {q}"]
                    for q in moduli if q in reference}
        totals[int(q)] = float(total)
    out = {}
    for q in moduli:
        if q not in reference:
            continue
        try:
            value = math.fsum([EULER_GAMMA] + [totals[d] for d in divisors(q)
                                               if d > 1])
        except KeyError as exc:
            out[q] = [f"cache file lacks conductor {exc} of {q}"]
            continue
        if abs(value - reference[q]) > REFERENCE_TOL:
            out[q] = [f"gamma_{q} from cache file {value!r}, reference "
                      f"{reference[q]!r}"]
    return out


def _fields(stdout: str) -> dict[str, str]:
    """'name = value' lines of a gamma or decompose report."""
    out = {}
    for line in stdout.splitlines():
        name, sep, value = line.partition(" = ")
        if sep and not line.startswith("#"):
            out[name] = value
    return out


def check_gamma(reply, q: int, reference) -> tuple[list[str], str | None]:
    """Failures of one ``gamma q`` call, and the printed gamma_q."""
    if reply["rc"] != 0:
        return [f"gamma {q}: exit {reply['rc']}: {reply['err'][-300:]}"], None
    f = _fields(reply["out"])
    if f.get("q") != str(q) or "gamma_q" not in f:
        return [f"gamma {q}: malformed output {reply['out'][:200]!r}"], None
    fails = check_reference(q, f["gamma_q"], reference)
    if f.get("log_q") != format(math.log(q), ".12g"):
        fails.append(f"gamma {q}: log_q {f.get('log_q')}")
    return fails, f["gamma_q"]


def check_decompose(reply, q: int, gamma_text: str | None) -> list[str]:
    if reply["rc"] != 0:
        return [f"decompose {q}: exit {reply['rc']}: {reply['err'][-300:]}"]
    f = _fields(reply["out"])
    fails = []
    if f.get("q") != str(q):
        fails.append(f"decompose {q}: malformed output")
    if "identity_check = ok" not in reply["out"]:
        fails.append(f"decompose {q}: identity_check is not ok "
                     f"(residual {f.get('residual')})")
    if gamma_text is not None and f.get("gamma_q_direct") != gamma_text:
        fails.append(f"decompose {q}: gamma_q_direct "
                     f"{f.get('gamma_q_direct')} != gamma {gamma_text}")
    return fails


def check_scan_csv(data: bytes, block: int, reference) -> list[str]:
    lines = data.decode("ascii").split("\n")
    if lines[0] != SCAN_HEADER or lines[-1] != "":
        return ["scan csv: bad header or missing final newline"]
    rows = [ln.split(",") for ln in lines[1:-1]]
    qs = [int(r[0]) for r in rows]
    if qs != list(range(block + 1, 2 * block + 1)):
        return [f"scan csv: moduli are not {block + 1}..{2 * block}"]
    fails = []
    for row in rows:
        fails += check_reference(int(row[0]), row[1], reference)
    return fails


def check_probe(reply, out_path, per_m_path) -> list[str]:
    if reply["rc"] != 0:
        return [f"probe: exit {reply['rc']}: {reply['err'][-300:]}"]
    summary = [ln for ln in reply["out"].splitlines()
               if ln.startswith("# m_max=")]
    if len(summary) != 1:
        return ["probe: no '# m_max=' line"]
    f = dict(item.split("=", 1) for item in summary[0][2:].split())
    fails = []
    if f.get("selfcheck") != "ok":
        fails.append(f"probe: selfcheck={f.get('selfcheck')}")
    m_max = math.floor(PROBE_X ** (1.0 - PROBE_EPSILON))
    if f.get("m_max") != str(m_max):
        fails.append(f"probe: m_max={f.get('m_max')}, want {m_max}")
    total = float(f.get("total", "nan"))
    if not abs(total / PROBE_X - PROBE_FRACTION) < PROBE_FRACTION_TOL:
        fails.append(f"probe: total/x={total / PROBE_X!r}, frozen "
                     f"{PROBE_FRACTION}")
    row = Path(out_path).read_text().split("\n")
    if row[0] != "x,epsilon,m_max,total" or \
            row[1].split(",")[2:] != [f.get("m_max"), f.get("total")]:
        fails.append(f"probe: out file {row[:2]!r}")
    per_m = Path(per_m_path).read_text().split("\n")
    pairs = [ln.split(",") for ln in per_m[1:] if ln]
    if per_m[0] != "m,max_abs_error" or \
            [int(m) for m, _ in pairs] != list(range(1, m_max + 1)):
        fails.append("probe: per-m file does not list m = 1..m_max")
    elif abs(math.fsum(float(e) for _, e in pairs) - total) > 1e-9 * total:
        fails.append("probe: per-m errors do not sum to total")
    return fails


def scan_pass(session, reference, serial: bool, seed: int) -> list[Op]:
    tmp = Path(session.tmp)
    workers = "1" if serial else "2"
    cold_out = tmp / "scan_cold.csv"
    warm_out = tmp / "scan_warm.csv"

    def argv(out):
        return ["scan", str(SCAN_BLOCK), "--workers", workers, "--out",
                str(out), "--cache-dir", str(tmp / "cache")]

    reply = session.call(argv(cold_out))
    op = Op("scan_cold", reply["s"])
    ops = [op]
    if reply["rc"] != 0 or not cold_out.exists():
        op.failures.append(f"scan: exit {reply['rc']}: {reply['err'][-300:]}")
        return ops
    cold = cold_out.read_bytes()
    summary = (reply["out"].splitlines() or [""])[0]
    if not summary.startswith(f"# ekconst scan Q={SCAN_BLOCK} "
                              f"n={SCAN_BLOCK} "):
        op.failures.append(f"scan: summary line {summary!r}")
    op.failures += check_scan_csv(cold, SCAN_BLOCK, reference)
    op.failures += sum(check_cache_file(
        tmp / "cache" / "conductors.csv",
        range(SCAN_BLOCK + 1, 2 * SCAN_BLOCK + 1), reference).values(), [])
    for _ in range(WARM_REPEATS):
        reply = session.call(argv(warm_out))
        op = Op("scan_warm", reply["s"])
        ops.append(op)
        if reply["rc"] != 0:
            op.failures.append(f"scan: exit {reply['rc']}")
        elif (reply["out"].splitlines() or [""])[0] != summary:
            op.failures.append("scan: warm summary differs from cold")
        elif warm_out.read_bytes() != cold:
            op.failures.append("scan: warm csv differs from cold csv")
    return ops


def probe_pass(session, reference, serial: bool, seed: int) -> list[Op]:
    tmp = Path(session.tmp)
    out, per_m = tmp / "probe.csv", tmp / "per_m.csv"
    reply = session.call(["probe", "1e7", "--epsilon", str(PROBE_EPSILON),
                          "--out", str(out), "--per-m-out", str(per_m)])
    return [Op("probe", reply["s"], check_probe(reply, out, per_m))]


def moduli_pass(session, reference, serial: bool, seed: int) -> list[Op]:
    cache = Path(session.tmp) / "cache"
    moduli = moduli_list(seed)
    ops = []
    gamma_op = {}
    for q in moduli:
        reply = session.call(["gamma", str(q), "--cache-dir", str(cache)])
        fails, text = check_gamma(reply, q, reference)
        gamma_op[q] = Op("gamma", reply["s"], fails)
        ops.append(gamma_op[q])
        reply = session.call(["decompose", str(q), "--x", DECOMPOSE_X,
                              "--cache-dir", str(cache)])
        ops.append(Op("decompose", reply["s"],
                      check_decompose(reply, q, text)))
    path = cache / "conductors.csv"
    if not os.path.exists(path):
        ops[-1].failures.append("moduli: no cache file written")
        return ops
    for q, fails in check_cache_file(path, moduli, reference).items():
        gamma_op[q].failures += fails
    return ops


PASSES = {"scan": scan_pass, "probe": probe_pass, "moduli": moduli_pass}

#: Call kinds timed as the workload's cold phase, and its repeated call.
COLD_KINDS = {"scan": ("scan_cold",), "probe": ("probe",),
              "moduli": ("gamma", "decompose")}
REPEAT_KIND = {"scan": "scan_warm", "probe": "probe", "moduli": "decompose"}
