"""The master's workers and a second fleet runner draining one store.

The master's workers are a fleet runner on the coordinator, so both
claim through ``coordinator.claim`` and run the same point loop
(:func:`repro.fleet.runner.execute_points`) — here the second runner
talks to the coordinator in-process too, with no HTTP — so a mixed
queue must drain to the same records as a workers-only drain, every
job must end exactly once, and no lease may outlive its job.
"""

import threading
import time

import pytest

from repro.fleet import coordinator
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.runner import FleetRunner
from repro.runtime.engine import RunEngine
from repro.runtime.scan import ListScan
from repro.service.jobs import DONE, FAILED
from repro.service.store import JobStore
from repro.utils import journal

from tests.service.workers import local_workers, workers_for

#: Journal events that end a job: the store's terminal transitions plus
#: the two cache-hit completions (at submission, at a runner's claim).
TERMINAL_EVENTS = {"done", "failed", "cancelled", "served", "cached"}

#: Cold run jobs; the first one is the runner's (it is claimed first).
COLD = [5.0, 6.0, 7.0, 11.0]

#: Warm run jobs, served from the cache.
WARM = [2.0, 4.0]


def _submit_mixed(store):
    """The mixed queue, in submission order: cold, warm, sweep, failure."""
    jobs = [
        store.submit("E6", quick=True, params={"pump_mw": mw}, dedupe=False)[0]
        for mw in COLD + WARM
    ]
    scan = ListScan("pump_mw", [8.0, 9.0]).describe()
    jobs.append(store.submit("E6", quick=True, scan=scan)[0])
    jobs.append(
        store.submit("E7", quick=True, params={"dwell_s": -1.0})[0]
    )
    return jobs


def _warm(root):
    engine = RunEngine(root=root)
    for mw in WARM:
        engine.run("E6", quick=True, params={"pump_mw": mw})
    return engine


def _wait_until(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def _local_drain(root):
    """The reference: the same queue through the master's workers alone."""
    engine = _warm(root)
    store = JobStore(root)
    jobs = _submit_mixed(store)
    with local_workers(store, engine) as workers:
        assert store.wait_idle(120.0)
    assert workers.client.status()["leases"] == []
    return [store.get(job.job_id) for job in jobs]


@pytest.fixture
def mixed_drain(tmp_path, monkeypatch):
    """The master's workers + a second runner over the mixed queue.

    The runner claims first and its first compute waits until a worker
    has finished a job, so both executors demonstrably run work
    regardless of machine speed.  Claims of two jobs spread the queue
    over both executors.
    """
    monkeypatch.setattr(coordinator, "DEFAULT_CLAIM_BATCH", 2)
    root = tmp_path / "shared"
    engine = _warm(root)
    store = JobStore(root)
    fleet = FleetCoordinator(store, engine, lease_ttl_s=30.0)
    workers = workers_for(store, engine, workers=2, fleet=fleet)
    workers.register()
    runner = FleetRunner("in-process", workers=1, use_processes=False,
                         client=fleet)
    jobs = _submit_mixed(store)
    local_finished = threading.Event()
    real_compute = runner._compute

    def gated_compute(spec):
        assert local_finished.wait(60.0), "no claim thread finished a job"
        return real_compute(spec)

    runner._compute = gated_compute
    thread = threading.Thread(
        target=runner.run, kwargs={"idle_exit_s": 0.5}, daemon=True
    )
    thread.start()
    _wait_until(lambda: fleet.status()["leases"])
    workers.start()

    def local_done():
        return any(
            job.is_terminal and job.runner_id == workers.runner_id
            for job in store.jobs()
        )

    _wait_until(local_done)
    local_finished.set()
    try:
        assert store.wait_idle(120.0)
    finally:
        fleet.stop()
        workers.stop()
        runner.stop()
        thread.join(timeout=10.0)
    return store, engine, fleet, runner, workers, jobs


class TestSharedDrain:
    def test_both_executors_ran_work(self, mixed_drain):
        store, _, _, runner, workers, jobs = mixed_drain
        holders = {store.get(job.job_id).runner_id for job in jobs}
        assert runner.runner_id in holders
        assert workers.runner_id in holders
        # The gated first compute went to the runner.
        assert store.get(jobs[0].job_id).runner_id == runner.runner_id

    def test_every_job_terminal_exactly_once(self, mixed_drain):
        store, _, _, _, _, jobs = mixed_drain
        entries, skipped = journal.read(store.journal_path)
        assert skipped == 0
        for job in jobs:
            ends = [
                e["event"]
                for e in entries
                if e["job_id"] == job.job_id and e["event"] in TERMINAL_EVENTS
            ]
            assert len(ends) == 1, (job.job_id, ends)
        statuses = [store.get(job.job_id).status for job in jobs]
        assert statuses == [DONE] * (len(jobs) - 1) + [FAILED]

    def test_no_lease_outlives_its_job(self, mixed_drain):
        _, _, fleet, _, _, _ = mixed_drain
        status = fleet.status()
        assert status["leases"] == []
        assert status["counts"]["leases"] == 0
        assert len(status["runners"]) == 2
        assert all(doc["leases"] == [] for doc in status["runners"])

    def test_records_match_a_local_only_drain(self, mixed_drain, tmp_path):
        store, engine, _, _, _, jobs = mixed_drain
        reference = _local_drain(tmp_path / "local")
        reference_engine = RunEngine(root=tmp_path / "local")
        for job, expected in zip(jobs, reference):
            finished = store.get(job.job_id)
            assert finished.status == expected.status
            assert finished.metrics == expected.metrics
            assert finished.run_ids == expected.run_ids
            for run_id in finished.run_ids:
                ours = (engine.runs_dir / run_id / "result.json").read_bytes()
                theirs = (
                    reference_engine.runs_dir / run_id / "result.json"
                ).read_bytes()
                assert ours == theirs, run_id

    def test_failure_names_driver_exception_and_keeps_traceback(
        self, mixed_drain
    ):
        store, _, _, _, _, jobs = mixed_drain
        error = store.get(jobs[-1].job_id).error
        assert error["type"] == "ConfigurationError"
        assert "dwell_s must be > 0" in error["message"]
        assert "Traceback" in error["traceback"]
        assert "bell_fringes.py" in error["traceback"]


class TestRunnerCancel:
    def test_progress_reply_stops_a_sweep_between_heartbeats(self, tmp_path):
        # Heartbeats come every 12 s here, so only the progress reply
        # can tell the runner about a cancel within this sweep.
        root = tmp_path / "root"
        store = JobStore(root)
        fleet = FleetCoordinator(store, RunEngine(root=root), lease_ttl_s=60.0)
        runner = FleetRunner("in-process", workers=1, use_processes=False,
                             client=fleet)
        scan = ListScan("pump_mw", [2.0, 4.0, 6.0, 8.0]).describe()
        job, _ = store.submit("E6", quick=True, scan=scan)
        real_compute = runner._compute

        def compute_then_cancel(spec):
            result = real_compute(spec)
            store.cancel(job.job_id)
            return result

        runner._compute = compute_then_cancel
        assert runner.run(max_jobs=1) == 1
        finished = store.get(job.job_id)
        assert finished.status == "cancelled"
        assert finished.done_points == 1
        assert fleet.status()["leases"] == []
