"""End-to-end fleet tests: a real master, a real runner, real HTTP.

The master boots with ``workers=0`` — a pure broker that computes
nothing itself — so every assertion about finished jobs
proves the remote path: claim over JSON-RPC, proxied cache lookup,
compute in the runner, ingest back through the master.  Compute stays
in-thread on both sides (``use_processes=False``) to keep the suite
fast and fork-free.
"""

import threading

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.fleet.runner import FleetRunner
from repro.obs import names
from repro.obs.journal import read_events
from repro.service.api import ExperimentService
from repro.service.client import ServiceClient


@pytest.fixture
def telemetry(monkeypatch):
    """Fresh process telemetry, so the master's journal attaches to its
    own root; reset afterwards."""
    monkeypatch.delenv(obs.OBS_ENV_VAR, raising=False)
    obs.reset()
    yield
    obs.reset()


@pytest.fixture
def service(tmp_path):
    """A broker-only master on an ephemeral port."""
    service = ExperimentService(
        root=tmp_path / "engine-root",
        workers=0,
        use_processes=False,
        lease_ttl_s=5.0,
    )
    host, port = service.start()
    try:
        yield service, f"http://{host}:{port}"
    finally:
        service.stop()


@pytest.fixture
def runner(service):
    """A started one-worker runner attached to the master."""
    _, url = service
    runner = FleetRunner(url, workers=1, use_processes=False)
    runner.register()
    thread = threading.Thread(
        target=runner.run, kwargs={"idle_exit_s": 60.0}, daemon=True
    )
    thread.start()
    try:
        yield runner
    finally:
        runner.stop()
        thread.join(timeout=10.0)


class TestRemoteExecution:
    def test_run_job_computed_remotely(self, service, runner):
        _, url = service
        client = ServiceClient(url)
        job = client.submit("E6", quick=True)
        finished = client.wait(job["job_id"], timeout=60.0)
        assert finished["status"] == "done"
        assert finished["metrics"]
        assert finished["cached_points"] == 0
        # The executing runner's identity is stamped into the job doc.
        assert finished["runner_id"] == runner.runner_id
        assert finished["runner_pid"] == runner.pid

    def test_second_submit_served_from_master_cache(self, service, runner):
        _, url = service
        client = ServiceClient(url)
        first = client.wait(
            client.submit("E6", quick=True)["job_id"], timeout=60.0
        )
        second = client.wait(
            client.submit("E6", quick=True, dedupe=False)["job_id"],
            timeout=60.0,
        )
        assert second["status"] == "done"
        assert second["cached_points"] == 1
        assert second["run_ids"] == first["run_ids"]

    def test_sweep_streams_points_through_the_master(self, service, runner):
        _, url = service
        client = ServiceClient(url)
        job = client.submit(
            "E6",
            quick=True,
            scan={"ty": "ListScan", "name": "pump_mw", "values": [4.0, 8.0]},
        )
        finished = client.wait(job["job_id"], timeout=120.0)
        assert finished["status"] == "done"
        assert finished["done_points"] == finished["total_points"] == 2
        assert len(finished["run_ids"]) == 2
        assert finished["runner_id"] == runner.runner_id

    def test_fleet_status_over_http(self, service, runner):
        _, url = service
        client = ServiceClient(url)
        client.wait(client.submit("E6", quick=True)["job_id"], timeout=60.0)
        status = client.fleet_status()
        assert status["counts"]["alive"] == 1
        assert status["counts"]["leases"] == 0
        (doc,) = status["runners"]
        assert doc["runner_id"] == runner.runner_id
        assert doc["completed"] >= 1

    def test_runner_failure_reported_not_leaked(self, service, runner):
        _, url = service
        client = ServiceClient(url)
        # E7 rejects a negative dwell time inside the driver.
        job = client.submit("E7", quick=True, params={"dwell_s": -1.0})
        finished = client.wait(job["job_id"], timeout=60.0)
        assert finished["status"] == "failed"
        assert finished["error"]["type"]
        assert client.fleet_status()["counts"]["leases"] == 0


    def test_runner_failure_names_driver_exception(self, service, runner):
        _, url = service
        client = ServiceClient(url)
        job = client.submit("E7", quick=True, params={"dwell_s": -1.0})
        error = client.wait(job["job_id"], timeout=60.0)["error"]
        assert error["type"] == "ConfigurationError"
        assert "bell_fringes.py" in error["traceback"]


class TestBroker:
    def test_analysis_submission_rejected_without_workers(self, service):
        # Runners never lease analyses (they read the master's archive),
        # so a broker with no claim threads could never run one.
        master, url = service
        client = ServiceClient(url)
        with pytest.raises(ConfigurationError, match="--workers 0"):
            client.submit(analysis="car")
        assert master.store.counts().get("pending", 0) == 0


class TestRunnerTelemetry:
    def test_master_journals_runner_worker_span(
        self, tmp_path, telemetry, service, runner
    ):
        master, url = service
        assert obs.enabled()  # the daemon turns telemetry on
        client = ServiceClient(url)
        job = client.submit("E6", quick=True, params={"pump_mw": 7.0})
        finished = client.wait(job["job_id"], timeout=60.0)
        assert finished["status"] == "done"
        spans = [
            event
            for event in read_events(master.root)
            if event["kind"] == "span"
            and event["name"] == names.SPAN_POOL_EXECUTE
        ]
        assert len(spans) == 1
        # Recorded runner-side, shipped with runner.ingest, replayed here.
        assert spans[0]["span_id"].startswith("w")
        assert spans[0]["attrs"]["experiment"] == "E6"
