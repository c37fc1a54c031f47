"""Self-tests for the benchmark helpers.

    python3 -m pytest -q perfbench/test_harness.py
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert metrics.tail_percentile(n) == expected


def test_percentile_interpolates_between_ranks():
    xs = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert metrics.percentile(xs, 50) == 3.0
    assert metrics.percentile(xs, 75) == 4.0
    assert metrics.percentile([1.0, 2.0], 75) == 1.75
    assert metrics.percentile([7.0], 75) == 7.0
    assert "p75=" in metrics.describe(list(range(40)))
    assert "p75=" not in metrics.describe(list(range(39)))


def test_self_time_subtracts_child_coverage():
    tree = [
        ["cli.entry", 0.0, 10.0, -1, 1],
        ["ekgamma.conductor_total", 1.0, 4.0, 0, 1],
        ["stieltjes.pair_table", 2.0, 3.0, 1, 1],
        ["ekgamma.gamma_q", 5.0, 9.0, 0, 1],
        ["decomp.decompose", 9.0, 10.0, 0, 1],
        ["decomp.proxy_defect", 9.25, 9.75, 4, 1],
    ]
    assert spans.self_times(tree) == [2.0, 2.0, 1.0, 4.0, 0.5, 0.5]
    agg = spans.aggregate(tree)
    ek = agg["layers"]["ekgamma"]
    assert (ek["calls"], ek["busy_s"], ek["self_s"]) == (2, 7.0, 6.0)
    dec = agg["layers"]["decomp"]
    # a span nested in its own layer is not a new call into the layer
    assert (dec["calls"], dec["busy_s"], dec["self_s"]) == (1, 1.0, 1.0)
    assert agg["names"]["cli.entry"]["self_s"] == 2.0
    assert agg["layers"]["sieve"] == {"calls": 0, "busy_s": 0.0,
                                      "self_s": 0.0}


def test_overlapping_children_are_counted_once():
    tree = [["cli.entry", 0.0, 10.0, -1, 1],
            ["sieve.build_tables", 2.0, 6.0, 0, 1],
            ["sieve.build_tables", 4.0, 8.0, 0, 1]]
    assert spans.self_times(tree)[0] == 4.0
    assert spans.aggregate(tree)["layers"]["sieve"]["busy_s"] == 6.0


def test_recorder_links_nested_calls():
    rec = spans.Recorder()

    def inner():
        time.sleep(0.001)

    traced_inner = rec.wrap(inner, "stieltjes.pair_table")

    def outer():
        traced_inner()
        traced_inner()

    rec.wrap(outer, "ekgamma.conductor_total")()
    names = [s[0] for s in rec.spans]
    parents = [s[3] for s in rec.spans]
    assert names == ["ekgamma.conductor_total", "stieltjes.pair_table",
                     "stieltjes.pair_table"]
    assert parents == [-1, 0, 0]
    assert all(s[2] >= s[1] for s in rec.spans)


def test_moduli_list_is_a_function_of_the_seed():
    a = workloads.moduli_list(7)
    assert a == workloads.moduli_list(7)
    assert a != workloads.moduli_list(8)
    assert len(a) == len(set(a)) == workloads.MODULI_COUNT
    assert {45, 997} <= set(a)
    drawn = sorted(set(a) - {45, 997})
    assert all(500 <= q <= 5000 for q in drawn)
    assert len(drawn) == workloads.MODULI_COUNT - 2


class InProcessSession:
    """Runs the CLI in this process, answering like a worker."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = str(tmp)

    def call(self, argv):
        from ekconst.cli import entry
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = entry(argv)
        return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(),
                "s": time.perf_counter() - start}


def test_corrupted_reference_value_fails_the_operation(tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(workloads, "moduli_list", lambda seed: [45])
    reference = workloads.load_reference()
    session = InProcessSession(tmp_path)
    ops = workloads.moduli_pass(session, reference, True, 0)
    assert [op.kind for op in ops] == ["gamma", "decompose"]
    assert not any(op.failures for op in ops)

    corrupted = dict(reference)
    corrupted[45] += 1e-11
    ops = workloads.moduli_pass(session, corrupted, True, 0)
    failed = [op for op in ops if op.failures]
    assert [op.kind for op in failed] == ["gamma"]
    # printed value and full-precision cache value are both caught
    assert len(failed[0].failures) == 2


def test_printed_tolerance_is_half_a_twelfth_digit():
    assert workloads.printed_tolerance("7.56606979610") == \
        pytest.approx(1e-12 + 5e-12)
    assert workloads.printed_tolerance("45.1234567890") == \
        pytest.approx(1e-12 + 5e-11)
    assert not workloads.check_reference(997, "7.56606979610",
                                         {997: 7.566069796104946})
    assert workloads.check_reference(997, "7.56606979610",
                                     {997: 7.566069796112})


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.PASSES)
