"""Hard-kill recovery against a real ``repro serve`` subprocess.

The in-process recovery tests simulate a crash by dropping state on
disk; this suite does it for real: boot the daemon as a subprocess,
SIGKILL it mid-drain, and verify a restarted daemon recovers the queue
and finishes every job.  Marked slow — the fast loop relies on the
in-process equivalents.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import ServiceError
from repro.service.api import read_service_file
from repro.service.client import ServiceClient

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _spawn_server(root):
    """Start ``repro serve`` as a subprocess rooted at ``root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
    env["REPRO_RUNTIME_ROOT"] = str(root)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "1",
         "--in-process"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for_service(root, timeout=30.0):
    """Block until a *live* daemon answers; returns a client.

    A SIGKILLed server leaves its stale address file behind, so probing
    health (not just reading the file) is what distinguishes the
    restarted daemon from the corpse.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            client = ServiceClient.discover(root)
            client.health()
        except ServiceError:
            time.sleep(0.1)
            continue
        return client
    raise AssertionError("no live server within the timeout")


@pytest.mark.slow
class TestKillAndRestart:
    def test_sigkill_mid_drain_recovers(self, tmp_path):
        root = tmp_path / "engine-root"
        server = _spawn_server(root)
        try:
            client = _wait_for_service(root)
            # Slow compute jobs (~0.3 s of CAR counting each on one
            # worker) make the kill land mid-drain.
            jobs = [
                client.submit("E5", quick=True,
                              params={"duration_s": 120.0 + i})
                for i in range(4)
            ]
            # Wait until at least one job is running, then pull the plug.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if any(j["status"] == "running" for j in client.status()):
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("no job started before the kill")
            os.kill(server.pid, signal.SIGKILL)
            server.wait(timeout=10.0)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10.0)

        # The stale address file must still be on disk (no clean stop).
        assert read_service_file(root)

        reborn = _spawn_server(root)
        try:
            client = _wait_for_service(root)
            for job in jobs:
                finished = client.wait(job["job_id"], timeout=180.0)
                assert finished["status"] == "done", finished
            # Recovery re-ran the orphan, so every job really completed.
            counts = client.queue()["counts"]
            assert counts.get("done") == 4
        finally:
            reborn.terminate()
            try:
                reborn.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                reborn.kill()
                reborn.wait(timeout=10.0)
