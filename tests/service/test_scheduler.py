"""The daemon's workers: draining, streaming sweeps, cancel, failures.

The workers of ``repro serve`` are an in-process fleet runner whose
client is the daemon's coordinator (see ``tests/service/workers.py``),
so every job here leaves ``pending`` through ``coordinator.claim``.
"""

import threading
import time

import pytest

from repro.fleet import coordinator as coordinator_module
from repro.fleet.coordinator import FleetCoordinator
from repro.runtime.engine import RunEngine
from repro.runtime.scan import LinearScan, ListScan
from repro.service.jobs import CANCELLED, DONE, FAILED, Job
from repro.service.store import JobStore

from tests.service.workers import local_workers, workers_for


@pytest.fixture
def root(tmp_path):
    """A fresh engine root per test."""
    return tmp_path / "engine-root"


@pytest.fixture
def harness(root):
    """(store, engine, coordinator) with two started in-thread workers."""
    store = JobStore(root, recover=True)
    engine = RunEngine(root=root)
    with local_workers(store, engine) as runner:
        yield store, engine, runner.client


def _leased(root, scan=None):
    """(store, runner, job): one job leased to a runner, not executed."""
    store = JobStore(root)
    runner = workers_for(store, RunEngine(root=root))
    job, _ = store.submit("E6", quick=True, scan=scan)
    runner.register()
    (document,) = runner.client.claim(runner.runner_id, 1)["jobs"]
    assert document["job_id"] == job.job_id
    return store, runner, Job.from_dict(document)


class TestDrain:
    def test_single_run_completes(self, harness):
        store, engine, fleet = harness
        job, _ = store.submit("E6", quick=True)
        assert store.wait_idle(30.0)
        finished = store.get(job.job_id)
        assert finished.status == DONE
        assert finished.metrics and finished.run_ids
        assert finished.cached_points == 0

    def test_cache_hit_served_on_thread(self, harness):
        store, engine, fleet = harness
        engine.run("E6", quick=True)
        job, _ = store.submit("E6", quick=True, dedupe=False)
        assert store.wait_idle(30.0)
        assert store.get(job.job_id).cached_points == 1

    def test_batch_of_jobs_all_complete(self, harness):
        store, engine, fleet = harness
        jobs = [
            store.submit("E6", quick=True, params={"pump_mw": float(mw)})[0]
            for mw in range(2, 12)
        ]
        assert store.wait_idle(60.0)
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
        with local_workers(store, engine, workers=1):
            assert store.wait_idle(60.0)
        assert all(store.get(j.job_id).status == DONE for j in jobs)
        # Each job is served at a claim: one line per job.
        transitions = store.seq - seq
        assert transitions >= len(jobs)
        assert reads <= transitions


class TestSweepStreaming:
    def test_sweep_streams_progress_and_archives_points(self, harness):
        store, engine, fleet = harness
        scan = LinearScan("pump_mw", 2.0, 20.0, 4)
        job, _ = store.submit("E6", quick=True, scan=scan.describe())
        assert store.wait_idle(60.0)
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
        store, engine, fleet = harness
        scan = ListScan("pump_mw", [4.0, 8.0])
        store.submit("E6", quick=True, scan=scan.describe())
        assert store.wait_idle(60.0)
        job, _ = store.submit("E6", quick=True, scan=scan.describe())
        assert store.wait_idle(60.0)
        assert store.get(job.job_id).cached_points == 2


class TestCancellation:
    def test_cancel_requested_before_claim_is_honoured(self, root):
        store, runner, job = _leased(root)
        store.cancel(job.job_id)  # running → cooperative flag
        runner._execute_job(job)  # the runner observes the flag
        assert store.get(job.job_id).status == CANCELLED

    def test_cancel_landing_mid_compute_wins_terminal_state(
        self, root, monkeypatch
    ):
        store, runner, job = _leased(root)
        real_compute = runner._compute

        def compute_then_cancel(spec):
            result = real_compute(spec)
            store.cancel(job.job_id)  # request lands while run in flight
            return result

        # The point loop's compute seam: what every miss runs through.
        monkeypatch.setattr(runner, "_compute", compute_then_cancel)
        runner._execute_job(job)
        assert store.get(job.job_id).status == CANCELLED

    def test_cancel_mid_sweep_stops_at_point_boundary(self, root):
        scan = ListScan("pump_mw", [2.0, 4.0, 6.0, 8.0])
        store, runner, job = _leased(root, scan=scan.describe())
        # Request cancellation after the first progress event.
        seq = store.seq

        def canceller():
            store.wait_events(seq, timeout=10.0)
            store.cancel(job.job_id)

        thread = threading.Thread(target=canceller)
        thread.start()
        runner._execute_job(job)
        thread.join()
        finished = store.get(job.job_id)
        assert finished.status == CANCELLED
        assert 1 <= finished.done_points < 4


class TestFailures:
    def test_failing_job_keeps_scheduler_alive(self, harness):
        # The workers survive a failing job and run the next one.
        store, engine, fleet = harness
        # E7 rejects a negative dwell time inside the driver.
        bad, _ = store.submit("E7", quick=True,
                              params={"dwell_s": -1.0})
        good, _ = store.submit("E6", quick=True)
        assert store.wait_idle(60.0)
        failed = store.get(bad.job_id)
        assert failed.status == FAILED
        assert failed.error["type"]
        assert "Traceback" in failed.error["traceback"]
        assert store.get(good.job_id).status == DONE

    def test_failure_archived_as_failure_manifest(self, harness):
        store, engine, fleet = harness
        job, _ = store.submit("E7", quick=True, params={"dwell_s": -1.0})
        assert store.wait_idle(60.0)
        spec = store.get(job.job_id).spec()
        manifest = engine.load_manifest(spec.run_id())
        assert manifest["status"] == "failed"
        assert "Traceback" in manifest["error"]["traceback"]


    def test_failure_names_driver_exception_and_keeps_traceback(
        self, harness
    ):
        store, _, fleet = harness
        job, _ = store.submit("E7", quick=True, params={"dwell_s": -1.0})
        assert store.wait_idle(60.0)
        error = store.get(job.job_id).error
        assert error["type"] == "ConfigurationError"
        assert error["message"] == "E7 dwell_s must be > 0, got -1.0"
        assert "bell_fringes.py" in error["traceback"]


class TestLocalLeases:
    """A worker's lease on the coordinator ends with its job."""

    def test_lease_held_while_running_then_gone(self, root, monkeypatch):
        store, runner, job = _leased(root)
        real_compute = runner._compute
        seen = []

        def compute_and_look(spec):
            seen.extend(runner.client.status()["leases"])
            return real_compute(spec)

        monkeypatch.setattr(runner, "_compute", compute_and_look)
        runner._execute_job(job)
        assert store.get(job.job_id).status == DONE
        assert [lease["runner_id"] for lease in seen] == [runner.runner_id]
        assert runner.client.status()["leases"] == []

    def test_no_lease_after_cancel(self, root):
        store, runner, job = _leased(root)
        store.cancel(job.job_id)
        runner._execute_job(job)
        assert store.get(job.job_id).status == CANCELLED
        assert runner.client.status()["leases"] == []

    def test_no_lease_after_failure(self, harness):
        store, _, fleet = harness
        job, _ = store.submit("E7", quick=True, params={"dwell_s": -1.0})
        assert store.wait_idle(60.0)
        assert store.get(job.job_id).status == FAILED
        assert fleet.status()["leases"] == []

    def test_no_lease_when_the_failure_cannot_be_recorded(
        self, root, monkeypatch
    ):
        store, runner, job = _leased(root)

        def broken(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(runner.client, "lookup", broken)
        monkeypatch.setattr(store, "finish", broken)
        runner._execute_job(job)  # the claim thread survives
        assert runner.client.status()["leases"] == []


@pytest.mark.slow
class TestProcessPool:
    def test_compute_through_processes_matches_in_thread(self, tmp_path):
        results = {}
        for mode, use_processes in [("thread", False), ("process", True)]:
            root = tmp_path / mode
            store = JobStore(root)
            engine = RunEngine(root=root)
            with local_workers(store, engine, use_processes=use_processes):
                job, _ = store.submit(
                    "E6", quick=True, params={"pump_mw": 9.0}
                )
                assert store.wait_idle(120.0)
            results[mode] = store.get(job.job_id).metrics
        assert results["thread"] == pytest.approx(results["process"])

    def test_pooled_failure_keeps_the_worker_traceback(self, root):
        store = JobStore(root)
        engine = RunEngine(root=root)
        with local_workers(
            store, engine, workers=1, use_processes=True
        ) as runner:
            job, _ = store.submit(
                "E7", quick=True, params={"dwell_s": -1.0}
            )
            assert store.wait_idle(120.0)
        error = store.get(job.job_id).error
        # The driver's own exception, formatted in the pool worker.
        assert error["type"] == "ConfigurationError"
        assert "bell_fringes.py" in error["traceback"]
        assert runner.client.status()["leases"] == []


class TestClaimDoor:
    """Every job leaves ``pending`` through ``coordinator.claim``."""

    def test_idle_workers_claim_once_per_idle_wait(self, root):
        store = JobStore(root)
        fleet = FleetCoordinator(store, RunEngine(root=root))
        claims = []
        real_claim = fleet.claim

        def counting(*args, **kwargs):
            claims.append(time.monotonic())
            return real_claim(*args, **kwargs)

        fleet.claim = counting
        with local_workers(store, fleet.engine, fleet=fleet):
            time.sleep(1.0)
        # An empty claim waits for work instead of answering at once:
        # a spinning worker makes thousands of claims in this second.
        assert len(claims) <= 2 * (1 + 1.0 / coordinator_module.IDLE_POLL_S)

    def test_a_submission_wakes_idle_workers_without_a_poll(
        self, root, monkeypatch
    ):
        # With an idle wait far longer than the test, only the
        # submission's wake-up can start the job in time.
        monkeypatch.setattr(coordinator_module, "IDLE_POLL_S", 60.0)
        store = JobStore(root)
        with local_workers(store, RunEngine(root=root)):
            time.sleep(0.3)  # both workers are parked in their claims
            job, _ = store.submit("E6", quick=True)
            assert store.wait_job(job.job_id, 20.0).status == DONE

    def test_two_workers_run_two_cold_jobs_at_once(self, root):
        store = JobStore(root)
        workers = workers_for(store, RunEngine(root=root), workers=2)
        together = threading.Barrier(2, timeout=30.0)
        real_compute = workers._compute

        def meet_then_compute(spec):
            together.wait()  # breaks unless both jobs are in compute
            return real_compute(spec)

        workers._compute = meet_then_compute
        jobs = [
            store.submit("E6", quick=True, params={"pump_mw": mw})[0]
            for mw in (5.0, 6.0)
        ]
        workers.start()
        try:
            assert store.wait_idle(60.0)
        finally:
            workers.client.stop()
            workers.stop()
        assert [store.get(job.job_id).status for job in jobs] == [DONE] * 2

    def test_a_twin_of_a_computing_job_is_served_its_result(self, root):
        store = JobStore(root)
        workers = workers_for(store, RunEngine(root=root), workers=2)
        computed = []
        real_compute = workers._compute

        def slow_compute(spec):
            computed.append(spec)
            time.sleep(0.3)  # the idle worker claims meanwhile
            return real_compute(spec)

        workers._compute = slow_compute
        first, second = (
            store.submit("E6", quick=True, dedupe=False)[0] for _ in range(2)
        )
        workers.start()
        try:
            assert store.wait_idle(60.0)
        finally:
            workers.client.stop()
            workers.stop()
        assert len(computed) == 1
        assert store.get(first.job_id).cached_points == 0
        assert store.get(second.job_id).status == DONE
        assert store.get(second.job_id).cached_points == 1

    def test_a_remote_runner_does_not_spin_behind_busy_workers(self, root):
        # The analysis job stays pending while the one local worker is
        # busy, and no other runner may take it: the remote runner's
        # claims must wait for work rather than return at once.
        store = JobStore(root)
        engine = RunEngine(root=root)
        workers = workers_for(store, engine, workers=1)
        fleet = workers.client
        release = threading.Event()
        real_compute = workers._compute

        def held(spec):
            assert release.wait(30.0)
            return real_compute(spec)

        workers._compute = held
        store.submit("E6", quick=True, params={"pump_mw": 5.0})
        analysis, _ = store.submit("", analysis="car")
        remote = workers_for(store, engine, fleet=fleet)
        remote.pid += 1  # registers as a runner in another process
        remote.register()
        claims = []
        real_claim = fleet.claim

        def counting(runner_id, *args, **kwargs):
            if runner_id == remote.runner_id:
                claims.append(time.monotonic())
            return real_claim(runner_id, *args, **kwargs)

        fleet.claim = counting
        workers.start()
        remote.start()
        try:
            time.sleep(1.0)
            assert len(claims) <= 1 + 1.0 / coordinator_module.IDLE_POLL_S
            release.set()
            assert store.wait_idle(60.0)
        finally:
            release.set()
            fleet.stop()
            remote.stop()
            workers.stop()
        finished = store.get(analysis.job_id)
        assert finished.status == DONE
        assert finished.runner_id == workers.runner_id
