"""End-to-end service acceptance: HTTP round trip, priorities, recovery.

Covers the PR's acceptance bar: a priority-ordered batch of ≥20 jobs
(cache hits mixed with real quick runs) submitted through
:class:`ServiceClient`, live pending→running→done transitions on the
event feed, cancelling a queued job, and recovering the queue intact
after the server dies mid-drain.
"""

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.runtime.engine import RunEngine
from repro.service.api import ExperimentService, read_service_file
from repro.service.client import ServiceClient
from repro.service.jobs import DONE, PENDING
from repro.service.store import JobStore

from tests.service.workers import claim_one


@pytest.fixture
def root(tmp_path):
    """A fresh engine root per test."""
    return tmp_path / "engine-root"


@pytest.fixture
def service(root):
    """A running service on an ephemeral port (in-thread compute)."""
    svc = ExperimentService(root=root, port=0, workers=2,
                            use_processes=False)
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture
def client(service, root):
    """A client discovered from the engine root, as the CLI does it."""
    return ServiceClient.discover(root)


class TestDiscovery:
    def test_service_file_published_and_retracted(self, root):
        svc = ExperimentService(root=root, port=0, use_processes=False)
        host, port = svc.start()
        document = read_service_file(root)
        assert (document["host"], document["port"]) == (host, port)
        svc.stop()
        with pytest.raises(ServiceError):
            read_service_file(root)

    def test_discover_without_server_fails_cleanly(self, tmp_path):
        with pytest.raises(ServiceError):
            ServiceClient.discover(tmp_path)

    def test_healthz_get(self, client):
        health = client.health()
        assert health["ok"] and health["workers"] == 2


class TestRoundTrip:
    def test_submit_wait_result(self, client):
        job = client.submit("E6", quick=True, params={"pump_mw": 7.0})
        finished = client.wait(job["job_id"], timeout=60.0)
        assert finished["status"] == DONE
        assert finished["metrics"]["pump_mw"] == 7.0
        assert finished["record"]["experiment_id"] == "E6"

    def test_bad_experiment_rejected_at_submit(self, client):
        with pytest.raises(ConfigurationError):
            client.submit("E42", quick=True)

    def test_bad_param_rejected_at_submit(self, client):
        with pytest.raises(ConfigurationError):
            client.submit("E6", quick=True, params={"bogus": 1})

    def test_bad_scan_axis_rejected_at_submit(self, client):
        from repro.runtime.scan import LinearScan

        typo = LinearScan("pmp_mw", 2.0, 20.0, 3).describe()
        with pytest.raises(ConfigurationError, match="pmp_mw"):
            client.submit("E6", quick=True, scan=typo)

    def test_cache_dedup_completes_instantly(self, client):
        first = client.submit("E6", quick=True)
        client.wait(first["job_id"], timeout=60.0)
        again = client.submit("E6", quick=True)
        assert again["deduped"] and again["status"] == DONE

    def test_sweep_job_over_http(self, client):
        from repro.runtime.scan import LinearScan

        scan = LinearScan("pump_mw", 2.0, 20.0, 3).describe()
        job = client.submit("E6", quick=True, scan=scan)
        finished = client.wait(job["job_id"], timeout=120.0)
        assert finished["status"] == DONE
        assert finished["done_points"] == finished["total_points"] == 3


class TestAcceptanceBatch:
    """The ≥20-job priority batch with live transitions and a cancel."""

    def test_priority_batch_with_cancel_and_live_events(self, service, client):
        engine = service.engine
        # Warm the cache for half the specs: the batch mixes hits with
        # real quick runs, exactly the paper's campaign workload.
        for mw in range(2, 12):
            engine.run("E6", quick=True, params={"pump_mw": float(mw)})
        # Pause the drain while submitting so cancelling a *queued* job
        # is deterministic (E6 quick completes in ~1 ms otherwise).
        service.runner.stop()
        jobs = []
        for index, mw in enumerate(range(2, 22)):  # 20 jobs
            jobs.append(
                client.submit(
                    "E6",
                    quick=True,
                    params={"pump_mw": float(mw)},
                    priority=index % 7,
                    dedupe=False,
                )
            )
        victim = next(j for j in jobs if j["status"] == PENDING)
        cancelled = client.cancel(victim["job_id"])
        assert cancelled["status"] == "cancelled"
        service.runner.start()
        # Drain, following the long-poll event feed until quiet.
        seen_statuses: dict[int, list[str]] = {}
        seq = 0
        for _ in range(400):
            events, seq, _gap = client.events(seq, timeout=2.0)
            if not events:
                snapshot = client.queue()["counts"]
                if not snapshot.get(PENDING) and not snapshot.get("running"):
                    break
                continue
            for event in events:
                seen_statuses.setdefault(event["job_id"], []).append(
                    event["status"]
                )
        final = {job["job_id"]: client.status(job["job_id"]) for job in jobs}
        done = [j for j in final.values() if j["status"] == "done"]
        cancelled_final = [
            j for j in final.values() if j["status"] == "cancelled"
        ]
        assert len(done) + len(cancelled_final) == 20
        assert len(cancelled_final) <= 1
        # Live transitions: at least one job was observed both running
        # and done on the feed, in that order.
        ordered = [
            statuses
            for statuses in seen_statuses.values()
            if "running" in statuses and "done" in statuses
        ]
        assert ordered, f"no live transitions seen: {seen_statuses}"
        for statuses in ordered:
            assert statuses.index("running") < statuses.index("done")
        # The cache-hit half really was served from cache.
        assert sum(j["cached_points"] for j in done) >= 9


class TestRecovery:
    """Kill the server mid-drain; a new one recovers the queue intact."""

    def test_restart_recovers_queue(self, root):
        # A paused service: its workers claim nothing because we stop
        # them before submitting, simulating a server
        # that died with a drained-half queue on disk.
        svc = ExperimentService(root=root, port=0, use_processes=False)
        svc.start()
        client = ServiceClient.discover(root)
        svc.runner.stop()  # freeze the drain
        jobs = [
            client.submit("E6", quick=True, params={"pump_mw": float(mw)},
                          priority=mw)
            for mw in range(2, 7)
        ]
        # Hard-kill simulation: claim one job so the journal says it is
        # 'running' with a live claim marker, then drop everything
        # without any shutdown path.
        store = svc.store
        claimed = claim_one(store, "doomed-worker")
        assert claimed is not None
        svc._httpd.shutdown()
        svc._httpd.server_close()
        svc._httpd = None  # skip clean stop(): the point is the crash
        # The on-disk queue is exactly what a SIGKILL leaves behind: its
        # journal folds to the claimed job running.
        assert JobStore(root).get(claimed.job_id).status == "running"

        # A fresh server on the same root recovers and finishes the lot.
        reborn = ExperimentService(root=root, port=0, use_processes=False)
        reborn.start()
        try:
            client2 = ServiceClient.discover(root)
            for job in jobs:
                finished = client2.wait(job["job_id"], timeout=120.0)
                assert finished["status"] == DONE
            recovered = client2.status(claimed.job_id)
            assert recovered["status"] == DONE
        finally:
            reborn.stop()

    def test_recovered_store_preserves_priorities(self, root):
        store = JobStore(root)
        for priority, mw in [(1, 2.0), (9, 4.0), (5, 6.0)]:
            store.submit("E6", quick=True, params={"pump_mw": mw},
                         priority=priority)
        reopened = JobStore(root, recover=True)
        assert [j.priority for j in reopened.jobs(PENDING)] == [9, 5, 1]


class TestEventFeedGap:
    """Journal loss is surfaced on the wire, and the cursor cannot spin."""

    def test_gap_surfaced_and_cursor_jumps_to_head(self, service, client):
        job = client.submit("E6", quick=True)
        client.wait(job["job_id"], timeout=60.0)
        store = service.store
        with store._lock:
            # Simulate rotation having discarded the whole history:
            # empty tail, empty journal, seq counter still advanced.
            store.journal._tail.clear()
            store.journal_path.write_text("", encoding="utf-8")
            head = store.seq
        events, latest, gap = client.events(0, timeout=2.0)
        assert gap and events == []
        # The returned cursor jumps to the head so the next poll waits
        # for genuinely new events instead of re-reporting the gap.
        assert latest == head
        events, latest, gap = client.events(latest, timeout=0.2)
        assert events == [] and not gap and latest == head

    def test_normal_feed_reports_no_gap(self, service, client):
        job = client.submit("E6", quick=True)
        client.wait(job["job_id"], timeout=60.0)
        events, latest, gap = client.events(0, timeout=2.0)
        assert events and not gap
        assert latest == events[-1]["seq"]


class TestRequeue:
    def test_requeue_failed_job_over_http(self, service, client):
        job = client.submit("E7", quick=True, params={"dwell_s": -1.0})
        failed = client.wait(job["job_id"], timeout=120.0)
        assert failed["status"] == "failed"
        assert "Traceback" in failed["error"]["traceback"]
        requeued = client.requeue(job["job_id"])
        assert requeued["status"] == PENDING and requeued["attempt"] == 2
