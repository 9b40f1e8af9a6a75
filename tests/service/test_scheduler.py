"""Scheduler behaviour: draining, streaming sweeps, cancel, failures."""

import threading

import pytest

from repro.runtime.engine import RunEngine
from repro.runtime.scan import LinearScan, ListScan
from repro.service.jobs import CANCELLED, DONE, FAILED
from repro.service.scheduler import Scheduler
from repro.service.store import JobStore


@pytest.fixture
def root(tmp_path):
    """A fresh engine root per test."""
    return tmp_path / "engine-root"


@pytest.fixture
def harness(root):
    """(store, engine, started scheduler) wired for in-thread compute."""
    store = JobStore(root, recover=True)
    engine = RunEngine(root=root)
    scheduler = Scheduler(store, engine, workers=2, use_processes=False,
                          poll_s=0.05)
    scheduler.start()
    yield store, engine, scheduler
    scheduler.stop(wait=True)


class TestDrain:
    def test_single_run_completes(self, harness):
        store, engine, scheduler = harness
        job, _ = store.submit("E6", quick=True)
        assert scheduler.drain(30.0)
        finished = store.get(job.job_id)
        assert finished.status == DONE
        assert finished.metrics and finished.run_ids
        assert finished.cached_points == 0

    def test_cache_hit_served_on_thread(self, harness):
        store, engine, scheduler = harness
        engine.run("E6", quick=True)
        job, _ = store.submit("E6", quick=True, dedupe=False)
        assert scheduler.drain(30.0)
        assert store.get(job.job_id).cached_points == 1

    def test_batch_of_jobs_all_complete(self, harness):
        store, engine, scheduler = harness
        jobs = [
            store.submit("E6", quick=True, params={"pump_mw": float(mw)})[0]
            for mw in range(2, 12)
        ]
        assert scheduler.drain(60.0)
        assert all(store.get(j.job_id).status == DONE for j in jobs)


class TestDrainWaits:
    def test_drain_wakes_per_transition_not_per_poll(self, root):
        # A drain re-reads the queue only when a transition is
        # journaled, so the status reads on the draining thread stay
        # below the transitions.
        store = JobStore(root, recover=True)
        engine = RunEngine(root=root)
        engine.run("E6", quick=True)
        jobs = store.submit_batch(
            [{"experiment_id": "E6", "quick": True}] * 120
        )
        scheduler = Scheduler(store, engine, workers=1, use_processes=False)
        drainer = threading.current_thread()
        reads = 0
        for name in ("counts", "_live"):
            original = getattr(store, name)

            def counted(*args, _original=original, **kwargs):
                nonlocal reads
                if threading.current_thread() is drainer:
                    reads += 1
                return _original(*args, **kwargs)

            setattr(store, name, counted)
        seq = store.seq
        scheduler.start()
        try:
            assert scheduler.drain(60.0)
        finally:
            scheduler.stop(wait=True)
        assert all(store.get(j.job_id).status == DONE for j in jobs)
        transitions = store.seq - seq
        assert transitions >= 2 * len(jobs)
        assert reads <= transitions


class TestSweepStreaming:
    def test_sweep_streams_progress_and_archives_points(self, harness):
        store, engine, scheduler = harness
        scan = LinearScan("pump_mw", 2.0, 20.0, 4)
        job, _ = store.submit("E6", quick=True, scan=scan.describe())
        assert scheduler.drain(60.0)
        finished = store.get(job.job_id)
        assert finished.status == DONE
        assert finished.done_points == finished.total_points == 4
        assert len(finished.run_ids) == 4
        # Every point landed in the engine archive and the cache.
        for run_id in finished.run_ids:
            manifest, _ = engine.load_run(run_id)
            assert manifest["experiment_id"] == "E6"
        # A progress event per point reached the journal feed.
        progress = [e for e in store.wait_events(0)[0]
                    if e["event"] == "progress"]
        assert len(progress) == 4

    def test_second_sweep_fully_cached(self, harness):
        store, engine, scheduler = harness
        scan = ListScan("pump_mw", [4.0, 8.0])
        store.submit("E6", quick=True, scan=scan.describe())
        assert scheduler.drain(60.0)
        job, _ = store.submit("E6", quick=True, scan=scan.describe())
        assert scheduler.drain(60.0)
        assert store.get(job.job_id).cached_points == 2


class TestCancellation:
    def test_cancel_requested_before_claim_is_honoured(self, root):
        store = JobStore(root)
        engine = RunEngine(root=root)
        scheduler = Scheduler(store, engine, workers=1, use_processes=False,
                              poll_s=0.05)
        job, _ = store.submit("E6", quick=True)
        claimed = store.claim("test")  # hold the job ourselves
        store.cancel(job.job_id)  # running → cooperative flag
        scheduler._run_job(claimed)  # scheduler observes the flag
        assert store.get(job.job_id).status == CANCELLED

    def test_cancel_landing_mid_compute_wins_terminal_state(
        self, root, monkeypatch
    ):
        store = JobStore(root)
        engine = RunEngine(root=root)
        scheduler = Scheduler(store, engine, workers=1, use_processes=False)
        job, _ = store.submit("E6", quick=True)
        claimed = store.claim("test")
        real_compute = scheduler._compute

        def compute_then_cancel(spec):
            result = real_compute(spec)
            store.cancel(job.job_id)  # request lands while run in flight
            return result

        # The point loop's compute seam: what every miss runs through.
        monkeypatch.setattr(scheduler, "_compute", compute_then_cancel)
        scheduler._run_job(claimed)
        assert store.get(job.job_id).status == CANCELLED

    def test_cancel_mid_sweep_stops_at_point_boundary(self, root):
        store = JobStore(root)
        engine = RunEngine(root=root)
        scheduler = Scheduler(store, engine, workers=1, use_processes=False)
        scan = ListScan("pump_mw", [2.0, 4.0, 6.0, 8.0])
        job, _ = store.submit("E6", quick=True, scan=scan.describe())
        claimed = store.claim("test")
        # Request cancellation after the first progress event.
        seq = store.seq
        import threading

        def canceller():
            store.wait_events(seq, timeout=10.0)
            store.cancel(job.job_id)

        thread = threading.Thread(target=canceller)
        thread.start()
        scheduler._run_job(claimed)
        thread.join()
        finished = store.get(job.job_id)
        assert finished.status == CANCELLED
        assert 1 <= finished.done_points < 4


class TestFailures:
    def test_failing_job_keeps_scheduler_alive(self, harness):
        store, engine, scheduler = harness
        # E7 rejects a negative dwell time inside the driver.
        bad, _ = store.submit("E7", quick=True,
                              params={"dwell_s": -1.0})
        good, _ = store.submit("E6", quick=True)
        assert scheduler.drain(60.0)
        failed = store.get(bad.job_id)
        assert failed.status == FAILED
        assert failed.error["type"]
        assert "Traceback" in failed.error["traceback"]
        assert store.get(good.job_id).status == DONE

    def test_failure_archived_as_failure_manifest(self, harness):
        store, engine, scheduler = harness
        job, _ = store.submit("E7", quick=True, params={"dwell_s": -1.0})
        assert scheduler.drain(60.0)
        spec = store.get(job.job_id).spec()
        manifest = engine.load_manifest(spec.run_id())
        assert manifest["status"] == "failed"
        assert "Traceback" in manifest["error"]["traceback"]


    def test_failure_names_driver_exception_and_keeps_traceback(
        self, harness
    ):
        store, _, scheduler = harness
        job, _ = store.submit("E7", quick=True, params={"dwell_s": -1.0})
        assert scheduler.drain(60.0)
        error = store.get(job.job_id).error
        assert error["type"] == "ConfigurationError"
        assert error["message"] == "E7 dwell_s must be > 0, got -1.0"
        assert "bell_fringes.py" in error["traceback"]


class TestLocalLeases:
    """A claim thread's lease on the coordinator ends with its job."""

    def test_lease_held_while_running_then_gone(self, root, monkeypatch):
        store = JobStore(root)
        engine = RunEngine(root=root)
        scheduler = Scheduler(store, engine, workers=1, use_processes=False)
        job, _ = store.submit("E6", quick=True)
        claimed = store.claim("worker-0")
        real_compute = scheduler._compute
        seen = []

        def compute_and_look(spec):
            seen.extend(scheduler.fleet.status()["leases"])
            return real_compute(spec)

        monkeypatch.setattr(scheduler, "_compute", compute_and_look)
        scheduler._run_job(claimed, "local/worker-0")
        assert store.get(job.job_id).status == DONE
        assert [lease["runner_id"] for lease in seen] == ["local/worker-0"]
        assert scheduler.fleet.status()["leases"] == []

    def test_no_lease_after_cancel(self, root):
        store = JobStore(root)
        scheduler = Scheduler(store, RunEngine(root=root), workers=1,
                              use_processes=False)
        job, _ = store.submit("E6", quick=True)
        claimed = store.claim("worker-0")
        store.cancel(job.job_id)
        scheduler._run_job(claimed)
        assert store.get(job.job_id).status == CANCELLED
        assert scheduler.fleet.status()["leases"] == []

    def test_no_lease_after_failure(self, harness):
        store, _, scheduler = harness
        job, _ = store.submit("E7", quick=True, params={"dwell_s": -1.0})
        assert scheduler.drain(60.0)
        assert store.get(job.job_id).status == FAILED
        assert scheduler.fleet.status()["leases"] == []

    def test_no_lease_when_the_failure_cannot_be_recorded(
        self, root, monkeypatch
    ):
        store = JobStore(root)
        scheduler = Scheduler(store, RunEngine(root=root), workers=1,
                              use_processes=False)
        store.submit("E6", quick=True)
        claimed = store.claim("worker-0")

        def broken(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(scheduler.fleet, "lookup", broken)
        monkeypatch.setattr(scheduler.fleet, "fail", broken)
        scheduler._run_job(claimed)  # the claim thread survives
        assert scheduler.fleet.status()["leases"] == []


@pytest.mark.slow
class TestProcessPool:
    def test_compute_through_processes_matches_in_thread(self, tmp_path):
        results = {}
        for mode, use_processes in [("thread", False), ("process", True)]:
            root = tmp_path / mode
            store = JobStore(root)
            engine = RunEngine(root=root)
            scheduler = Scheduler(store, engine, workers=2,
                                  use_processes=use_processes, poll_s=0.05)
            scheduler.start()
            job, _ = store.submit("E6", quick=True, params={"pump_mw": 9.0})
            assert scheduler.drain(120.0)
            scheduler.stop(wait=True)
            results[mode] = store.get(job.job_id).metrics
        assert results["thread"] == pytest.approx(results["process"])

    def test_pooled_failure_keeps_the_worker_traceback(self, root):
        store = JobStore(root)
        scheduler = Scheduler(store, RunEngine(root=root), workers=1,
                              use_processes=True, poll_s=0.05)
        scheduler.start()
        job, _ = store.submit("E7", quick=True, params={"dwell_s": -1.0})
        assert scheduler.drain(120.0)
        scheduler.stop(wait=True)
        error = store.get(job.job_id).error
        # The driver's own exception, formatted in the pool worker.
        assert error["type"] == "ConfigurationError"
        assert "bell_fringes.py" in error["traceback"]
        assert scheduler.fleet.status()["leases"] == []
