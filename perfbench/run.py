"""ekconst benchmark: closed-loop workloads through ekconst.cli.entry.

    python3 perfbench/run.py --workload scan|probe|moduli|all --seed N
                             --seconds S --trace 0|1

This process sends one CLI call at a time to a fresh worker interpreter
(perfbench/worker.py) and checks every output before sending the next.
Each pass gets a fresh interpreter and an empty conductor cache in a
temporary directory under perfbench/_work/, removed at the end; the user's
~/.cache/ekconst and $EKCONST_CACHE_DIR are never read. Passes repeat while
another one fits in --seconds.

--trace 0 reports the end-to-end metrics. --trace 1 runs a traced pass of
the serial work (scan with --workers 1) between two untraced ones and
reports per-layer calls, busy and self time from the spans, plus the
tracing overhead. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import metrics
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_DIR = HERE / "_work"

#: Set-up-only interpreters started before the measured window; every pass
#: worker adds one more set-up sample.
SETUP_SAMPLES = 9

#: Hard stop for one workload run, inside the 180 s the harness allows.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cold_s", "s"),
    ("call_p50_s", "s"),
    ("call_p75_s", "s"),
)

#: Per-workload names of the end-to-end metrics, printed as aliases.
ALIASES = {
    "scan": {"cold_s": "scan_cold_s", "call_p50_s": "scan_warm_p50_s",
             "call_p75_s": "scan_warm_p75_s"},
    "probe": {"cold_s": "probe_s", "call_p50_s": "probe_s",
              "call_p75_s": "probe_s"},
    "moduli": {"cold_s": "moduli_s", "call_p50_s": "decompose_call_p50_s",
               "call_p75_s": "decompose_call_p75_s"},
}


def _span(name, field):
    return ("span", name, field)


def _counter(key):
    return ("counter", key)


#: (metric, unit, better, source) reported with --trace 1.
PER_LAYER = [
    ("sieve.build_tables.calls", "count", "lower",
     _span("sieve.build_tables", "calls")),
    ("sieve.build_tables.s", "s", "lower",
     _span("sieve.build_tables", "busy_s")),
    ("sieve.table_mb", "MB", "lower", _counter("sieve.table_mb")),
    ("characters.build_group.calls", "count", "lower",
     _span("characters.build_group", "calls")),
    ("characters.build_group.s", "s", "lower",
     _span("characters.build_group", "busy_s")),
    ("characters.conductor_grid.s", "s", "lower",
     _span("characters.conductor_grid", "busy_s")),
    ("stieltjes.pair_table.calls", "count", "lower",
     _span("stieltjes.pair_table", "calls")),
    ("stieltjes.pair_table.s", "s", "lower",
     _span("stieltjes.pair_table", "busy_s")),
    ("stieltjes.points", "count", "lower", _counter("stieltjes.points")),
    ("stieltjes.lru_hits", "count", "higher", _counter("stieltjes.lru_hits")),
    ("stieltjes.lru_misses", "count", "lower",
     _counter("stieltjes.lru_misses")),
    ("stieltjes.lru_currsize", "count", "lower",
     _counter("stieltjes.lru_currsize")),
    ("ekgamma.conductor_total.calls", "count", "lower",
     _span("ekgamma.conductor_total", "calls")),
    ("ekgamma.conductor_total.s", "s", "lower",
     _span("ekgamma.conductor_total", "busy_s")),
    ("ekgamma.fft_self_s", "s", "lower",
     _span("ekgamma.conductor_total", "self_s")),
    ("ekgamma.cache_load.calls", "count", "lower",
     _span("ekgamma.cache_load", "calls")),
    ("ekgamma.cache_load.s", "s", "lower",
     _span("ekgamma.cache_load", "busy_s")),
    ("ekgamma.cache_save.calls", "count", "lower",
     _span("ekgamma.cache_save", "calls")),
    ("ekgamma.cache_save.s", "s", "lower",
     _span("ekgamma.cache_save", "busy_s")),
    ("ekgamma.cache_hits", "count", "higher", _counter("ekgamma.cache_hits")),
    ("ekgamma.cache_misses", "count", "lower",
     _counter("ekgamma.cache_misses")),
    ("ekgamma.cache_rows", "count", "lower", _counter("ekgamma.cache_rows")),
    ("ekgamma.cache_bytes", "B", "lower", _counter("ekgamma.cache_bytes")),
    ("ekgamma.max_imag_residual", "1", "lower",
     _counter("ekgamma.max_imag_residual")),
] + [
    (f"decomp.{fn}.s", "s", "lower", _span(f"decomp.{fn}", "busy_s"))
    for fn in ("proxy_defect", "primitive_phi_sum", "progression_term",
               "window_term", "conductor_correction", "ramified_term")
] + [
    ("decomp.max_abs_residual", "1", "lower",
     _counter("decomp.max_abs_residual")),
    ("experiments.eh_probe.s", "s", "lower",
     _span("experiments.eh_probe", "busy_s")),
    ("experiments.probe_levels", "count", "lower",
     _counter("experiments.probe_levels")),
    ("experiments.residue_sum_check.calls", "count", "lower",
     _span("experiments.residue_sum_check", "calls")),
    ("experiments.residue_sum_check.s", "s", "lower",
     _span("experiments.residue_sum_check", "busy_s")),
    ("experiments.scan_range.s", "s", "lower",
     _span("experiments.scan_range", "busy_s")),
    ("experiments.gamma_q_assembly.s", "s", "lower",
     _span("experiments.gamma_q_assembly", "busy_s")),
    ("experiments.emit.s", "s", "lower", _span("experiments.emit", "busy_s")),
    ("experiments.emit_bytes", "B", "lower",
     _counter("experiments.emit_bytes")),
    ("cli.entry.calls", "count", "lower", _span("cli.entry", "calls")),
    ("cli.entry.s", "s", "lower", _span("cli.entry", "busy_s")),
] + [
    (f"{layer}.{field}", unit, "lower", ("layer", layer, field))
    for layer in spans.LAYERS
    for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
] + [
    ("trace.pass_s", "s", "lower", ("trace", "pass_s")),
    ("trace.untraced_pass_s", "s", "lower", ("trace", "untraced_pass_s")),
    ("trace.overhead_pct", "%", "lower", ("trace", "overhead_pct")),
]


class Session:
    """A worker interpreter; its start-up time is one set-up sample."""

    def __init__(self, base: Path, deadline: float, trace_path=None,
                 setup_only: bool = False) -> None:
        cmd = [sys.executable, str(WORKER), "--root", str(ROOT),
               "--base", str(base)]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ)
        # Anything that ignored --cache-dir would land here, and the run
        # fails if this directory appears.
        env["EKCONST_CACHE_DIR"] = str(base / "env-cache")
        env["TMPDIR"] = str(base)
        self.deadline = deadline
        self._lines: queue.Queue = queue.Queue()
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     env=env, cwd=str(ROOT))
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            ready = self._receive()
        except BaseException:
            self.proc.kill()
            self.reap()
            raise
        self.setup_s = time.perf_counter() - start
        self.tmp = ready["tmp"]
        self.numpy = ready["numpy"]

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _receive(self) -> dict:
        try:
            line = self._lines.get(
                timeout=max(0.0, self.deadline - time.monotonic()))
        except queue.Empty:
            raise TimeoutError("worker did not answer within the run "
                               "budget") from None
        if line is None:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def call(self, argv) -> dict:
        start = time.perf_counter()
        self.proc.stdin.write(json.dumps({"argv": argv}) + "\n")
        self.proc.stdin.flush()
        reply = self._receive()
        reply["s"] = time.perf_counter() - start
        return reply

    def close(self) -> dict:
        """End the session; returns the worker's peak RSS figures."""
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            self.proc.stdin.write("\n")
            self.proc.stdin.close()
        try:
            final = self._receive()
        finally:
            self.reap()
        return final

    def reap(self) -> None:
        """Wait for the worker to exit, killing it after 5 s."""
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


def run_pass(workload, seed, base, deadline, reference, serial,
             trace_path=None):
    """One pass in a fresh worker: (ops, set-up seconds, peak RSS MB)."""
    session = Session(base, deadline, trace_path)
    try:
        ops = workloads.PASSES[workload](session, reference, serial, seed)
        final = session.close()
    except BaseException:
        session.proc.kill()
        session.reap()
        raise
    finally:
        shutil.rmtree(session.tmp, ignore_errors=True)
    peak = max(final["rss_self_kb"], final["rss_children_kb"]) / 1024.0
    return ops, session.setup_s, peak, session.numpy


def cold_seconds(workload, ops) -> float:
    return sum(op.seconds for op in ops
               if op.kind in workloads.COLD_KINDS[workload])


def end_to_end(workload, seed, seconds, base, deadline, reference, log):
    setups = []
    numpy_version = None
    for _ in range(SETUP_SAMPLES):
        session = Session(base, deadline, setup_only=True)
        session.reap()
        setups.append(session.setup_s)
    all_ops, colds, peaks, walls = [], [], [], []
    window = time.monotonic()
    while True:
        started = time.monotonic()
        ops, setup, peak, numpy_version = run_pass(
            workload, seed, base, deadline, reference, serial=False)
        walls.append(time.monotonic() - started)
        setups.append(setup)
        all_ops += ops
        colds.append(cold_seconds(workload, ops))
        peaks.append(peak)
        now = time.monotonic()
        mean_wall = statistics.fmean(walls)
        if now - window + mean_wall > seconds or \
                now + 1.5 * max(walls) > deadline:
            break
    repeat = [op.seconds for op in all_ops
              if op.kind == workloads.REPEAT_KIND[workload]]
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(peaks),
        "cold_s": statistics.median(colds),
        "call_p50_s": metrics.percentile(repeat, 50),
        "call_p75_s": metrics.percentile(repeat, 75),
    }
    log(f"# passes={len(colds)} pass_wall_s="
        + ",".join(f"{w:.3f}" for w in walls))
    log(f"# setup_s samples: {metrics.describe(setups)}")
    for kind in sorted({op.kind for op in all_ops}):
        times = [op.seconds for op in all_ops if op.kind == kind]
        log(f"# {kind} call seconds: {metrics.describe(times)}")
    for name, unit in END_TO_END:
        alias = ALIASES[workload].get(name)
        label = f" ({alias})" if alias else ""
        log(f"{workload} {name}{label} = {values[name]:.6f} {unit}")
    if workload == "moduli":
        for kind in ("gamma", "decompose"):
            times = [op.seconds for op in all_ops if op.kind == kind]
            for p in (50, 75):
                log(f"{workload} {kind}_call_p{p}_s = "
                    f"{metrics.percentile(times, p):.6f} s")
    return all_ops, {name: {"value": values[name], "unit": unit}
                     for name, unit in END_TO_END}, numpy_version


def layer_values(agg, counters, untraced_s, traced_s) -> dict:
    extra = {"pass_s": traced_s, "untraced_pass_s": untraced_s,
             "overhead_pct": 100.0 * (traced_s / untraced_s - 1.0)}
    out = {}
    for name, unit, _, source in PER_LAYER:
        kind = source[0]
        if kind == "span":
            value = agg["names"].get(source[1], {}).get(source[2], 0)
        elif kind == "layer":
            value = agg["layers"][source[1]][source[2]]
        elif kind == "counter":
            value = counters.get(source[1], 0)
        else:
            value = extra[source[1]]
        out[name] = {"value": value, "unit": unit}
    return out


def traced(workload, seed, base, deadline, reference, log):
    """A traced pass of the serial work between two untraced ones; the
    overhead is taken against their mean, so pass order does not bias it."""
    trace_path = WORK_DIR / "traces" / f"{workload}-seed{seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    before, _, _, numpy_version = run_pass(workload, seed, base, deadline,
                                           reference, serial=True)
    ops, _, _, _ = run_pass(workload, seed, base, deadline, reference,
                            serial=True, trace_path=trace_path)
    after, _, _, _ = run_pass(workload, seed, base, deadline, reference,
                              serial=True)
    trace = json.loads(trace_path.read_text())
    untraced_s = statistics.fmean([sum(op.seconds for op in before),
                                   sum(op.seconds for op in after)])
    traced_s = sum(op.seconds for op in ops)
    agg = spans.aggregate(trace["spans"])
    values = layer_values(agg, trace["counters"], untraced_s, traced_s)
    log(f"# spans written to {trace_path.relative_to(ROOT)}")
    log(f"# tracing overhead: traced {traced_s:.3f} s vs untraced "
        f"{untraced_s:.3f} s ({values['trace.overhead_pct']['value']:+.1f}%)")
    log(f"# {'layer':<12} {'calls':>7} {'busy_s':>10} {'self_s':>10} "
        f"{'self share':>10}")
    for layer in spans.LAYERS:
        row = agg["layers"][layer]
        log(f"# {layer:<12} {row['calls']:>7} {row['busy_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {100 * row['self_s'] / traced_s:>9.1f}%")
    for module, why in spans.UNTIMED.items():
        log(f"# {module} is not timed on its own: it {why}")
    for name in sorted(agg["names"]):
        row = agg["names"][name]
        log(f"# span {name}: calls={row['calls']} busy_s={row['busy_s']:.4f}"
            f" self_s={row['self_s']:.4f}")
    return before + ops + after, values, numpy_version


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_workload(workload, seed, seconds, trace, log) -> dict:
    WORK_DIR.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    deadline = time.monotonic() + RUN_BUDGET_S
    reference = workloads.load_reference()
    try:
        if trace:
            ops, values, numpy_version = traced(workload, seed, base,
                                                deadline, reference, log)
        else:
            ops, values, numpy_version = end_to_end(
                workload, seed, seconds, base, deadline, reference, log)
        leaked = (base / "env-cache").exists()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    failed = [op for op in ops if op.failures]
    for op in failed:
        for why in op.failures:
            log(f"# FAILED {op.kind}: {why}")
    if leaked:
        log("# FAILED: a call wrote through $EKCONST_CACHE_DIR")
    log(f"# env workload={workload} seed={seed} cores={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy_version} "
        f"commit={git_commit()}")
    log(f"{workload} ops_failed = {len(failed)} of ops_attempted = "
        f"{len(ops)}")
    return {"correct": not failed and not leaked, "attempted": len(ops),
            "failed": len(failed), "metrics": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.PASSES) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ekconst" / "cli.py").is_file():
        print(f"run.py: no ekconst sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(line, flush=True)

    names = (tuple(workloads.PASSES) if args.workload == "all"
             else (args.workload,))
    results = {name: run_workload(name, args.seed, args.seconds, args.trace,
                                  log) for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
