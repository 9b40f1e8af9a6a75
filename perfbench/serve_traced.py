"""Launch ``repro serve`` with the tracer's wrappers installed.

    python3 perfbench/serve_traced.py --snapshots DIR -- serve --workers 2 ...

Everything after ``--`` is passed to the ``repro`` command line.  Each
SIGUSR1 writes the tracer's current totals to ``DIR/snapshot-<n>.json``
(n = 1, 2, ...); the load generator takes one snapshot at the start of
its measurement window and one at the end, and reads the difference.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import threading

import tracer as tracing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--snapshots", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    directory = pathlib.Path(args.snapshots)
    tracer = tracing.Tracer()
    tracing.install_service(tracer)
    taken = [0]

    def write_snapshot() -> None:
        document = tracer.snapshot()
        taken[0] += 1
        path = directory / f"snapshot-{taken[0]}.json"
        temp = path.with_suffix(".tmp")
        temp.write_text(json.dumps(document), encoding="utf-8")
        os.replace(temp, path)

    def on_signal(signum, frame) -> None:
        # Snapshot off the signal handler: the handler may interrupt the
        # main thread while it holds the tracer's lock.
        threading.Thread(target=write_snapshot, daemon=True).start()

    signal.signal(signal.SIGUSR1, on_signal)
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
