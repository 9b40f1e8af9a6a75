"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_p99_needs_ten_samples_beyond_it():
    assert stats.percentile(range(1000), 99) == 989
    assert stats.percentile(range(999), 99) is None
    assert stats.percentile(range(99), 90) is None
    assert stats.percentile(range(100), 90) == 89


def test_tail_falls_back_to_the_slowest_sample():
    assert stats.tail([3.0, 1.0, 2.0]) == 3.0
    samples = [1.0] * 90 + [5.0] * 10
    assert stats.tail(samples) == 1.0


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_nested_wrappers_charge_self_time_once():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def inner():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        traced_inner()
        clock.advance(0.5)
        traced_inner()

    traced_inner = tracer.wrap(inner, "inner")
    tracer.wrap(outer, "outer")()
    snapshot = tracer.snapshot()
    assert snapshot["self_s"] == {"outer": 1.5, "inner": 4.0}
    assert snapshot["calls"] == {"outer": 1, "inner": 2}
    rows = tracing.table(snapshot["self_s"], 6.0)
    assert rows[-1] == ("unattributed", 0.5)
    assert sum(seconds for _, seconds in rows) == 6.0


def test_snapshot_charges_open_frames_to_the_window():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    snapshots = []

    def inner():
        clock.advance(1.0)
        snapshots.append(tracer.snapshot())  # window starts inside both
        clock.advance(3.0)

    def outer():
        clock.advance(2.0)
        tracer.wrap(inner, "inner")()
        clock.advance(4.0)
        snapshots.append(tracer.snapshot())  # window ends inside outer
        clock.advance(8.0)

    tracer.wrap(outer, "outer")()
    window = tracing.diff(snapshots[0], snapshots[1])
    assert window["window_s"] == 7.0
    assert window["self_s"] == {"inner": 3.0, "outer": 4.0}


def test_a_table_fails_when_wrappers_miss_or_double_count_time():
    def checks(self_s: dict[str, float]) -> dict[str, bool]:
        return run.tables({"tables": [("t", self_s, 10.0)]})[2]

    assert checks({"a": 6.0, "b": 3.7}) == {"table_0_attributed": True}
    assert checks({"a": 6.0, "b": 3.0}) == {"table_0_attributed": False}
    assert checks({"a": 6.0, "b": 4.6}) == {"table_0_attributed": False}


def test_transport_is_client_round_trip_minus_server_dispatch():
    client = [(0.0, 10.0), (20.0, 25.0), (30.0, 31.0)]
    server = [(1.0, 9.0), (21.0, 22.0)]
    assert tracing.match_transport(client, server) == [2.0, 4.0]


# ----------------------------------------------------------------------
# CPU time
# ----------------------------------------------------------------------
def test_tree_cpu_counts_live_and_reaped_children():
    spin = (
        "import sys, time\n"
        "end = time.process_time() + 0.5\n"
        "while time.process_time() < end:\n"
        "    pass\n"
        "sys.stdin.read()\n"
    )
    before = stats.tree_cpu_s(os.getpid())
    child = subprocess.Popen([sys.executable, "-c", spin], stdin=subprocess.PIPE)
    try:
        for _ in range(50):  # the child spins, then blocks on stdin
            if stats.tree_cpu_s(child.pid) >= 0.5:
                break
            time.sleep(0.1)
        live = stats.tree_cpu_s(os.getpid()) - before
    finally:
        child.communicate(b"")
    reaped = stats.tree_cpu_s(os.getpid()) - before
    assert live >= 0.5
    assert reaped >= 0.5


# ----------------------------------------------------------------------
# Failures
# ----------------------------------------------------------------------
class _FakeDaemon(BaseHTTPRequestHandler):
    """Answers ``submit`` with job 1; ``result`` per the server's mode."""

    def log_message(self, format, *args):
        pass

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        mode = self.server.mode
        if mode == "overloaded":
            self._send(503, {"error": {"code": -32000, "message": "overloaded"}},
                       {"Retry-After": "0"})
        elif request["method"] == "submit":
            self._send(200, {"result": {"job": {"job_id": 1}, "deduped": False}})
        else:
            status = "running" if mode == "stuck" else "done"
            self._send(200, {"result": {"job": {"job_id": 1, "status": status}}})

    def _send(self, code, payload, headers=None):
        body = json.dumps({"jsonrpc": "2.0", "id": 1, **payload}).encode()
        self.send_response(code)
        for name, value in {"Content-Length": str(len(body)), **(headers or {})}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


def _outcome(mode: str) -> dict[str, object]:
    from repro.service.client import ServiceClient

    server = ThreadingHTTPServer(("127.0.0.1", 0), _FakeDaemon)
    server.mode = mode
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        return stats.run_job(client, {"experiment": "E6", "quick": True}, 0.3)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_failed_frac_counts_overloaded_and_timed_out_jobs():
    overloaded, stuck, done = (_outcome(m) for m in ("overloaded", "stuck", "done"))
    assert overloaded["status"] == "error" and "overloaded" in overloaded["error"]
    assert stuck["status"] == "error" and "not finished" in stuck["error"]
    assert done["status"] == "done"
    assert stats.failed_frac([overloaded, stuck, done]) == 2 / 3
    assert stats.failed_frac([done, done]) == 0.0


# ----------------------------------------------------------------------
# The benchmark description
# ----------------------------------------------------------------------
def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
