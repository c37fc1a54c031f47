"""The benchmark harness against the library: perfbench/spans.py wraps
library functions and ConductorCache methods by name, so a trim of the
library that removes one of them fails here, not first in a traced
benchmark run."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Installs the harness's spans, runs a cold scan and a cache listing
#: through the CLI, reads one cached and one missing conductor through
#: ConductorCache.get, and prints the exit codes, the span names and the
#: counters as the last line of stdout.
_TRACED = """
import json, sys
import spans
rec = spans.Recorder()
spans.install(rec)
import ekconst.cli, ekconst.ekgamma
cache_dir = sys.argv[1]
codes = [ekconst.cli.entry(["scan", "64", "--workers", "1",
                            "--cache-dir", cache_dir]),
         ekconst.cli.entry(["cache", "list", "--cache-dir", cache_dir])]
cache_cls = ekconst.ekgamma.ConductorCache
cache = cache_cls(cache_cls.default_path(cache_dir))
found = [cache.get(3) is not None, cache.get(129) is not None]
print(json.dumps({"codes": codes, "found": found,
                  "spans": sorted({span[0] for span in rec.spans}),
                  "counters": rec.counters}))
"""


def test_spans_install_and_trace_scan_and_cache_list(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _TRACED, str(tmp_path)],
                          cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0]
    assert {"ekgamma.cache_load", "ekgamma.cache_save",
            "characters.build_group"} <= set(got["spans"])
    # conductor 3 is cached by the scan of (64, 128], 129 is not
    assert got["found"] == [True, False]
    assert got["counters"]["ekgamma.cache_hits"] == 1
    assert got["counters"]["ekgamma.cache_misses"] == 1
