"""Kill a runner mid-job: lease expiry, takeover, bit-identical output.

The distributed failure drill from DESIGN.md's fleet failure matrix,
run for real: a broker-only master and a *stalled* victim runner (the
``REPRO_RUNNER_STALL_S`` fault hook parks it between claim and
compute) boot as subprocesses, the victim is SIGKILLed while it holds
the lease, and the test asserts the whole recovery chain:

1. the lease TTL expires and the job returns to ``pending`` with a
   bumped attempt counter;
2. a healthy second runner claims and completes it;
3. the archived ``result.json`` is byte-identical to a purely local
   execution of the same spec — remote compute goes through the same
   ``_execute_safe`` as a scheduler pool worker, so the record (and
   its arrays) must not drift.

Byte comparison deliberately targets ``result.json`` only: the npz
holds zip member timestamps and the manifest a wall-clock
``created_unix``, neither of which is part of the determinism
contract.
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


def _env(root, **extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
    env["REPRO_RUNTIME_ROOT"] = str(root)
    env.update({k: str(v) for k, v in extra.items()})
    return env


def _spawn_master(root):
    """A broker-only master with an aggressive lease TTL."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "0",
         "--lease-ttl", "1.5", "--in-process"],
        env=_env(root),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _spawn_runner(root, url, stall_s=0.0):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "runner", "--master", url,
         "--workers", "1", "--in-process"],
        env=_env(root, REPRO_RUNNER_STALL_S=stall_s),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for_service(root, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            client = ServiceClient.discover(root)
            client.health()
        except (ServiceError, OSError):
            time.sleep(0.1)
            continue
        return client
    raise AssertionError("no live master within the timeout")


def _wait_until(predicate, timeout, message):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.1)
    raise AssertionError(message)


def _terminate(process):
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10.0)


@pytest.mark.slow
class TestRunnerSigkill:
    def test_lease_expiry_takeover_and_identical_bytes(self, tmp_path):
        root = tmp_path / "fleet-root"
        master = _spawn_master(root)
        victim = healthy = None
        try:
            client = _wait_for_service(root)
            document = read_service_file(root)
            url = f"http://{document['host']}:{document['port']}"

            # The victim claims the job, then stalls before computing.
            victim = _spawn_runner(root, url, stall_s=120.0)
            job = client.submit("E6", quick=True)
            claimed = _wait_until(
                lambda: (
                    lambda doc: doc
                    if doc["status"] == "running" and doc.get("runner_id")
                    else None
                )(client.status(job["job_id"])),
                30.0,
                "the victim never claimed the job",
            )
            victim_id = claimed["runner_id"]
            assert claimed["runner_pid"] == victim.pid

            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=10.0)

            # Lease TTL (1.5s) passes without heartbeats: the job is
            # reaped back to pending with a bumped attempt counter.
            revived = _wait_until(
                lambda: (
                    lambda doc: doc if doc["status"] == "pending" else None
                )(client.status(job["job_id"])),
                30.0,
                "the dead runner's lease never expired",
            )
            assert revived["attempt"] == 2
            assert revived["runner_id"] is None
            fleet = client.fleet_status()
            assert fleet["counts"]["lost"] >= 1
            assert fleet["leases"] == []

            # A healthy runner takes over and completes the job.
            healthy = _spawn_runner(root, url)
            finished = client.wait(job["job_id"], timeout=120.0)
            assert finished["status"] == "done"
            assert finished["runner_id"] != victim_id
            assert finished["runner_pid"] == healthy.pid
            (run_id,) = finished["run_ids"]
        finally:
            for process in (victim, healthy):
                if process is not None:
                    _terminate(process)
            _terminate(master)

        # The remotely computed record is byte-identical to a local run.
        import numpy as np

        from repro.runtime.engine import RunEngine

        local_root = tmp_path / "local-root"
        outcome = RunEngine(root=local_root).run("E6", quick=True)
        assert outcome.run_id == run_id
        remote_result = root / "runs" / run_id / "result.json"
        local_result = local_root / "runs" / run_id / "result.json"
        assert remote_result.read_bytes() == local_result.read_bytes()
        remote_arrays = np.load(
            root / "runs" / run_id / "arrays.npz"
        )
        local_arrays = np.load(
            local_root / "runs" / run_id / "arrays.npz"
        )
        assert sorted(remote_arrays.files) == sorted(local_arrays.files)
        for name in remote_arrays.files:
            np.testing.assert_array_equal(
                remote_arrays[name], local_arrays[name]
            )
