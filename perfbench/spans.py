"""Layer spans recorded from outside the library.

The traced worker replaces module-level names that callers resolve at call
time (for example ``ekconst.cli.build_tables`` or
``ekconst.ekgamma.stieltjes_pair_table``) with wrappers that record one span
per call: name, start, end, parent span and request id. Spans stay in memory
until the worker exits. Nothing under ``src/`` is modified.

Two modules get no spans of their own: ``accum`` only runs inside
``stieltjes`` and ``decomp`` calls, whose spans already cover it, and
``lseries`` is on no CLI path.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field

#: Layers in report order; a span belongs to the layer before its first dot.
LAYERS = ("sieve", "characters", "stieltjes", "ekgamma", "decomp",
          "experiments", "cli")

UNTIMED = {
    "accum": "runs only inside stieltjes and decomp calls",
    "lseries": "is on no CLI path",
}

#: (module or class, attribute, span name). One function may be resolved
#: under several names; each resolution is wrapped. A name the program no
#: longer has is skipped, and its metrics read 0.
TARGETS = (
    ("ekconst.cli", "entry", "cli.entry"),
    ("ekconst.cli", "build_tables", "sieve.build_tables"),
    ("ekconst.cli", "scan_range", "experiments.scan_range"),
    ("ekconst.cli", "eh_probe", "experiments.eh_probe"),
    ("ekconst.cli", "residue_sum_check", "experiments.residue_sum_check"),
    ("ekconst.cli", "emit", "experiments.emit"),
    ("ekconst.cli", "decompose", "decomp.decompose"),
    ("ekconst.cli", "gamma_q", "ekgamma.gamma_q"),
    ("ekconst.experiments", "gamma_q", "experiments.gamma_q_assembly"),
    ("ekconst.experiments", "conductor_total", "ekgamma.conductor_total"),
    ("ekconst.ekgamma", "conductor_total", "ekgamma.conductor_total"),
    ("ekconst.ekgamma", "build_group", "characters.build_group"),
    ("ekconst.ekgamma", "conductor_grid", "characters.conductor_grid"),
    ("ekconst.ekgamma", "stieltjes_pair_table", "stieltjes.pair_table"),
    ("ekconst.ekgamma:ConductorCache", "__init__", "ekgamma.cache_load"),
    ("ekconst.ekgamma:ConductorCache", "save", "ekgamma.cache_save"),
    ("ekconst.decomp", "gamma_q", "ekgamma.gamma_q"),
    ("ekconst.decomp", "proxy_defect", "decomp.proxy_defect"),
    ("ekconst.decomp", "primitive_phi_sum", "decomp.primitive_phi_sum"),
    ("ekconst.decomp", "progression_term", "decomp.progression_term"),
    ("ekconst.decomp", "window_term", "decomp.window_term"),
    ("ekconst.decomp", "conductor_correction", "decomp.conductor_correction"),
    ("ekconst.decomp", "ramified_term", "decomp.ramified_term"),
)


@dataclass
class Recorder:
    """Spans as [name, start, end, parent index or -1, request id]."""

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    request: int = 0
    _stack: list = field(default_factory=list)

    def wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent,
                               self.request])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return traced

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)


def _table_mb(rec, args, kwargs, tables):
    arrays = [v for v in vars(tables).values() if hasattr(v, "nbytes")]
    rec.peak("sieve.table_mb", sum(a.nbytes for a in arrays) / 2**20)


def _pair_points(rec, args, kwargs, result):
    rec.count("stieltjes.points", len(result[0]))


def _imag(rec, args, kwargs, result):
    rec.peak("ekgamma.max_imag_residual", result.imag_residual)


def _saved(rec, args, kwargs, result):
    cache = args[0]
    rec.peak("ekgamma.cache_rows", len(cache))
    rec.peak("ekgamma.cache_bytes", os.path.getsize(cache.path))


def _residual(rec, args, kwargs, report):
    rec.peak("decomp.max_abs_residual", abs(report.residual))


def _levels(rec, args, kwargs, probe):
    rec.count("experiments.probe_levels", probe.m_max)


def _emitted(rec, args, kwargs, result):
    paths = [args[2] if len(args) > 2 else kwargs["path"]]
    per_m = args[3] if len(args) > 3 else kwargs.get("per_m_path")
    if per_m is not None:
        paths.append(per_m)
    rec.count("experiments.emit_bytes", sum(os.path.getsize(p) for p in paths))


AFTER = {
    "sieve.build_tables": _table_mb,
    "stieltjes.pair_table": _pair_points,
    "ekgamma.conductor_total": _imag,
    "ekgamma.cache_save": _saved,
    "decomp.decompose": _residual,
    "experiments.eh_probe": _levels,
    "experiments.emit": _emitted,
}


def install(rec: Recorder) -> None:
    """Wrap every TARGETS name, and count conductor-cache lookups."""
    for where, attr, name in TARGETS:
        module_name, _, class_name = where.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        if hasattr(owner, attr):
            setattr(owner, attr, rec.wrap(getattr(owner, attr), name,
                                          AFTER.get(name)))
    cache_cls = importlib.import_module("ekconst.ekgamma").ConductorCache
    lookup = cache_cls.get

    def get(self, *args, **kwargs):
        row = lookup(self, *args, **kwargs)
        rec.count("ekgamma.cache_misses" if row is None
                  else "ekgamma.cache_hits")
        return row
    cache_cls.get = get


def finish(rec: Recorder) -> None:
    """Copy the special-function lru_cache statistics, if the table
    function still has a cache, into the counters."""
    table = getattr(importlib.import_module("ekconst.stieltjes"),
                    "stieltjes_pair_table", None)
    if hasattr(table, "cache_info"):
        info = table.cache_info()
        rec.counters["stieltjes.lru_hits"] = info.hits
        rec.counters["stieltjes.lru_misses"] = info.misses
        rec.counters["stieltjes.lru_currsize"] = info.currsize


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(s, span[1]), min(e, span[2])) for s, e in kids
                   if e > span[1] and s < span[2]]
        out.append((span[2] - span[1]) - covered(clipped))
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(spans) -> dict:
    """Per span name and per layer: calls, busy time and self time.

    A layer's calls are its spans entered from another layer (or from the
    top); its busy time is the union of its spans; its self time is the sum
    of their self times.
    """
    selfs = self_times(spans)
    names: dict = {}
    layers = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "_iv": []}
              for layer in LAYERS}
    for span, own in zip(spans, selfs):
        name, start, end, parent = span[:4]
        entry = names.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0, "_iv": []})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["_iv"].append((start, end))
        layer = layers[layer_of(name)]
        if parent < 0 or layer_of(spans[parent][0]) != layer_of(name):
            layer["calls"] += 1
        layer["self_s"] += own
        layer["_iv"].append((start, end))
    for table in (names, layers):
        for entry in table.values():
            entry["busy_s"] = covered(entry.pop("_iv"))
    return {"names": names, "layers": layers}
