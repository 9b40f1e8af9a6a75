"""FleetCoordinator unit tests: classify, leases, fencing, expiry.

Everything here runs in-process against a real store and engine on a
tmp root — no HTTP, no runner subprocesses.  The RPC handlers are
called directly, exactly as :mod:`repro.service.api` dispatches them.
"""

import os
import socket

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.protocol import spec_payload
from repro.runtime.engine import RunEngine, _execute_safe
from repro.service.jobs import DONE, FAILED, PENDING, RUNNING
from repro.service.store import JobStore


@pytest.fixture
def root(tmp_path):
    return tmp_path / "engine-root"


@pytest.fixture
def harness(root):
    """(store, engine, coordinator) with a short lease TTL."""
    store = JobStore(root, recover=True)
    engine = RunEngine(root=root)
    fleet = FleetCoordinator(store, engine, lease_ttl_s=5.0)
    return store, engine, fleet


def _register(fleet):
    reply = fleet.register("testhost", 4242, workers=1)
    return str(reply["runner_id"])


def _register_local(fleet):
    """A runner in this process, as the master's own workers register."""
    reply = fleet.register(socket.gethostname(), os.getpid(), workers=1)
    return str(reply["runner_id"])


class TestClaim:
    def test_unregistered_runner_is_fenced(self, harness):
        _, _, fleet = harness
        with pytest.raises(ConfigurationError):
            fleet.claim("runner-99")

    def test_claim_leases_pending_run_job(self, harness):
        store, _, fleet = harness
        runner_id = _register(fleet)
        job, _ = store.submit("E6", quick=True)
        reply = fleet.claim(runner_id)
        assert [doc["job_id"] for doc in reply["jobs"]] == [job.job_id]
        assert reply["served"] == []
        leased = store.get(job.job_id)
        assert leased.status == RUNNING
        assert leased.runner_id == runner_id
        assert leased.runner_host == "testhost"
        assert leased.runner_pid == 4242
        assert fleet.status()["counts"]["leases"] == 1

    def test_cache_hit_served_master_side(self, harness):
        store, engine, fleet = harness
        engine.run("E6", quick=True)
        runner_id = _register(fleet)
        job, _ = store.submit("E6", quick=True, dedupe=False)
        reply = fleet.claim(runner_id)
        assert reply["jobs"] == []
        assert reply["served"] == [job.job_id]
        finished = store.get(job.job_id)
        assert finished.status == DONE
        assert finished.cached_points == 1
        assert finished.metrics
        assert finished.run_ids
        assert fleet.status()["counts"]["leases"] == 0

    def test_analyze_jobs_never_leave_the_master(self, harness):
        store, _, fleet = harness
        runner_id = _register(fleet)
        store.submit("", analysis="paper-summary")
        reply = fleet.claim(runner_id)
        assert reply["jobs"] == [] and reply["served"] == []


class TestRemoteProtocol:
    def test_lookup_ingest_progress_complete_roundtrip(self, harness):
        store, engine, fleet = harness
        runner_id = _register(fleet)
        job, _ = store.submit("E6", quick=True)
        fleet.claim(runner_id)
        spec = job.spec()
        payload = spec_payload(spec)
        assert fleet.lookup(runner_id, job.job_id, payload) == {"hit": False}
        record, failure, duration, _ = _execute_safe(spec, None)
        assert failure is None
        reply = fleet.ingest(
            runner_id, job.job_id, payload,
            record=record, duration_s=duration,
        )
        fleet.progress(
            runner_id, job.job_id, 1, 1, run_id=reply["run_id"]
        )
        fleet.complete(runner_id, job.job_id, metrics=reply["metrics"])
        finished = store.get(job.job_id)
        assert finished.status == DONE
        assert finished.run_ids == [reply["run_id"]]
        # The record was archived master-side (proxied IO).
        manifest, _ = engine.load_run(reply["run_id"])
        assert manifest["experiment_id"] == "E6"
        # A second lookup of the same spec is now a hit.
        job2, _ = store.submit("E6", quick=True, dedupe=False)
        assert fleet.claim(runner_id)["served"] == [job2.job_id]

    def test_fail_marks_job_failed(self, harness):
        store, _, fleet = harness
        runner_id = _register(fleet)
        job, _ = store.submit("E6", quick=True)
        fleet.claim(runner_id)
        fleet.fail(
            runner_id, job.job_id,
            {"type": "RuntimeError", "message": "boom", "traceback": ""},
        )
        failed = store.get(job.job_id)
        assert failed.status == FAILED
        assert failed.error["message"] == "boom"
        assert fleet.status()["counts"]["leases"] == 0

    def test_foreign_lease_is_fenced(self, harness):
        store, _, fleet = harness
        owner = _register(fleet)
        thief = _register(fleet)
        job, _ = store.submit("E6", quick=True)
        fleet.claim(owner)
        with pytest.raises(ConfigurationError):
            fleet.complete(thief, job.job_id)
        # The rightful owner still holds the lease.
        fleet.complete(owner, job.job_id, metrics={})
        assert store.get(job.job_id).status == DONE


class TestLeaseExpiry:
    def test_dead_runner_returns_job_to_pending(self, harness):
        store, _, fleet = harness
        runner_id = _register(fleet)
        job, _ = store.submit("E6", quick=True)
        fleet.claim(runner_id)
        assert store.get(job.job_id).status == RUNNING
        # Backdate the heartbeat past the TTL and reap.
        fleet._runners[runner_id]["last_beat_unix"] -= 100.0
        assert fleet.expire_overdue() == [job.job_id]
        revived = store.get(job.job_id)
        assert revived.status == PENDING
        assert revived.attempt == 2
        assert revived.runner_id is None
        counts = fleet.status()["counts"]
        assert counts == {"alive": 0, "lost": 1, "leases": 0}
        # The ghost's late RPCs bounce.
        with pytest.raises(ConfigurationError):
            fleet.complete(runner_id, job.job_id)
        # A second runner can claim and finish the revived job.
        second = _register(fleet)
        reply = fleet.claim(second)
        assert [doc["job_id"] for doc in reply["jobs"]] == [job.job_id]

    def test_beating_runner_is_never_reaped(self, harness):
        store, _, fleet = harness
        runner_id = _register(fleet)
        store.submit("E6", quick=True)
        fleet.claim(runner_id)
        fleet.heartbeat(runner_id)
        assert fleet.expire_overdue() == []
        assert fleet.status()["counts"]["alive"] == 1


class TestCancelPropagation:
    def test_heartbeat_carries_cancel_requests(self, harness):
        store, _, fleet = harness
        runner_id = _register(fleet)
        job, _ = store.submit("E6", quick=True)
        fleet.claim(runner_id)
        store.cancel(job.job_id)
        assert fleet.heartbeat(runner_id)["cancelled"] == [job.job_id]
        # complete() on a cancel-pending job lands as cancelled.
        fleet.complete(runner_id, job.job_id, metrics={})
        assert store.get(job.job_id).status == "cancelled"


class TestLocalHolders:
    """Runners in the master's own process: its workers."""

    def test_analysis_leases_only_to_a_runner_in_this_process(
        self, harness
    ):
        store, _, fleet = harness
        remote = _register(fleet)
        local = _register_local(fleet)
        job, _ = store.submit("", analysis="paper-summary")
        assert fleet.claim(remote)["jobs"] == []
        (leased,) = fleet.claim(local)["jobs"]
        assert leased["job_id"] == job.job_id

    def test_only_runner_ingests_count_as_fleet_work(
        self, harness, monkeypatch
    ):
        store, _, fleet = harness
        monkeypatch.delenv(obs.OBS_ENV_VAR, raising=False)
        obs.reset()
        obs.configure(enabled=True)
        try:
            local_id = _register_local(fleet)
            local, _ = store.submit("E6", quick=True, params={"pump_mw": 5.0})
            fleet.claim(local_id, 1)
            runner_id = _register(fleet)
            remote, _ = store.submit("E6", quick=True, params={"pump_mw": 6.0})
            fleet.claim(runner_id, 1)
            for holder, job in ((local_id, local), (runner_id, remote)):
                spec = job.spec()
                record, _, duration, _ = _execute_safe(spec, None)
                fleet.ingest(holder, job.job_id, spec_payload(spec),
                             record=record, duration_s=duration)
            counters = obs.snapshot()["counters"]
            assert counters["engine.runs"] == 2
            assert counters["fleet.ingested"] == 1
        finally:
            obs.reset()
