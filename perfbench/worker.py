"""One fresh interpreter serving CLI calls to perfbench/run.py.

    python3 perfbench/worker.py --root ROOT --base DIR [--trace SPANS.json]
                                [--setup-only]

Start-up is the measured set-up: import ekconst from ROOT/src, create a
temporary directory under DIR, and (with --trace) wrap the layer entry
points. It then prints one JSON line ``{"tmp": ..., "numpy": ...}``.

Each request line ``{"argv": [...]}`` runs ``ekconst.cli.entry(argv)`` with
stdout and stderr captured and is answered with ``{"rc", "out", "err"}``;
run.py times the round trip. An empty line or end of input ends the
session: the reply then carries peak RSS in KiB of this process and of its
largest child, and the spans are written to the --trace file.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import tempfile
import traceback


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--base", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    channel = sys.stdout

    sys.path.insert(0, os.path.join(args.root, "src"))
    import numpy
    import ekconst.cli
    tmp = tempfile.mkdtemp(prefix="pass-", dir=args.base)
    recorder = None
    if args.trace is not None:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)

    def send(message) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    send({"tmp": tmp, "numpy": numpy.__version__})
    if args.setup_only:
        return
    while True:
        line = sys.stdin.readline()
        if not line.strip():
            break
        argv = json.loads(line)["argv"]
        if recorder is not None:
            recorder.request += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = ekconst.cli.entry(argv)
        except Exception:  # reported to run.py as a failed operation
            rc = -1
            err.write(traceback.format_exc())
        send({"rc": rc, "out": out.getvalue(), "err": err.getvalue()})
    if recorder is not None:
        spans.finish(recorder)
        with open(args.trace, "w", encoding="ascii") as fh:
            json.dump({"spans": recorder.spans,
                       "counters": recorder.counters}, fh)
    send({"rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
          "rss_children_kb":
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss})


if __name__ == "__main__":
    main()
