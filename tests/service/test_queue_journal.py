"""The queue journal is the queue: folds, compaction, old roots, crashes.

Each job transition is one journal line; a job's state is the fold of
its lines onto the compacted copy a rotation left.  These tests pin the
fold across reopens and rotations, the compacted file a rotation writes
for the jobs that ended, recovery of a root in the older layout (job
files rewritten on every transition, journal lines without job fields),
a SIGKILL between a terminal line and the compaction that holds it,
other stores following the journal, and the fsync and file-creation
budgets of a cached job.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

import repro.service.store as store_module
from repro.runtime.engine import RunEngine
from repro.service.api import ExperimentService
from repro.service.jobs import (
    CANCELLED,
    DONE,
    KIND_RUN,
    PENDING,
    RUNNING,
    Job,
)
from repro.fleet import coordinator as coordinator_module
from repro.service.store import JobStore
from repro.utils.io import read_json_lines

from tests.service.workers import claim_one, local_workers


@pytest.fixture
def root(tmp_path):
    return tmp_path / "engine-root"


def _run_to_done(store, **submit):
    job, _ = store.submit("E6", quick=True, dedupe=False, **submit)
    claimed = claim_one(store, "w0", identity=("local/w0", "host", 7))
    store.update_progress(claimed, 1, 1, run_id="E6-run-1", cached=True)
    store.finish(claimed, DONE, metrics={"car": 12.5})
    return claimed


class TestFold:
    def test_reopen_folds_every_transition(self, root):
        store = JobStore(root)
        done = _run_to_done(store)
        pending, _ = store.submit("E7", priority=3)
        running, _ = store.submit("E5", quick=True)
        running = claim_one(store, "w1")
        store.cancel(running.job_id)  # cooperative: still running
        reopened = JobStore(root)
        for job in (done, pending, running):
            assert reopened.get(job.job_id).to_dict() == job.to_dict()
        assert reopened.get(running.job_id).cancel_requested

    def test_lines_after_the_first_carry_only_what_changed(self, root):
        store = JobStore(root)
        job = _run_to_done(store)
        submitted, started, progress, finished = (
            line["job"] for line in read_json_lines(store.journal_path)
        )
        assert submitted == json.loads(json.dumps(job.fields())) | {
            "status": PENDING, "started_unix": None, "finished_unix": None,
            "done_points": 0, "cached_points": 0, "run_ids": [],
            "metrics": None, "runner_id": None, "runner_host": None,
            "runner_pid": None,
        }
        assert set(started) == set(store_module.STARTED)
        assert progress["run_ids"] == ["E6-run-1"]
        assert progress["run_ids_from"] == 0
        assert set(finished) == set(store_module.FINISHED)

    def test_an_ended_job_is_snapshotted_and_a_requeue_empties_it(
        self, root, monkeypatch
    ):
        # An ended job has no file of its own: the rotation of its lines
        # snapshots it into the compacted file, and a requeue supersedes
        # that copy.
        monkeypatch.setattr(store_module, "JOURNAL_MAX_LINES", 4)
        store = JobStore(root)
        job = _run_to_done(store)  # four lines: the journal rotates
        assert sorted(os.listdir(root / "queue" / "jobs")) == []
        (compacted,) = (root / "queue" / "ended").iterdir()
        header, *body = read_json_lines(compacted)
        assert header["seq"] == 4 and header["counts"] == {DONE: 1}
        assert body == [json.loads(json.dumps(job.fields()))]
        assert compacted.name == f"4-{job.job_id}-{job.job_id}.jsonl"
        store.requeue(job.job_id)
        assert JobStore(root).get(job.job_id).to_dict() == job.to_dict()
        assert JobStore(root).counts() == {PENDING: 1}

    def test_a_requeue_survives_the_rotation_of_the_submission(
        self, root, monkeypatch
    ):
        monkeypatch.setattr(store_module, "JOURNAL_MAX_LINES", 4)
        store = JobStore(root)
        job = _run_to_done(store)
        for _ in range(3):  # two rotations drop the job's four lines
            _run_to_done(store)
        lines = read_json_lines(store.journal_path) + read_json_lines(
            store.journal.rotated_path
        )
        assert job.job_id not in {line["job_id"] for line in lines}
        store.requeue(job.job_id)
        for reopened in (JobStore(root), JobStore(root, recover=True)):
            assert reopened.get(job.job_id).to_dict() == job.to_dict()
            assert reopened.get(job.job_id).status == PENDING

    def test_live_jobs_survive_the_rotations_that_drop_their_lines(
        self, root, monkeypatch
    ):
        monkeypatch.setattr(store_module, "JOURNAL_MAX_LINES", 4)
        store = JobStore(root)
        waiting, _ = store.submit("E7", priority=1)
        running, _ = store.submit("E6", quick=True)
        running = claim_one(store, "w0")
        for point in range(12):  # three rotations: both jobs' early
            store.update_progress(  # lines are gone from disk
                running, point + 1, 12, run_id=f"E6-run-{point}"
            )
        first_seq = read_json_lines(store.journal.rotated_path)[0]["seq"]
        assert first_seq > 3
        reopened = JobStore(root)
        assert reopened.get(waiting.job_id).to_dict() == waiting.to_dict()
        assert reopened.get(running.job_id).to_dict() == running.to_dict()


class TestOlderLayout:
    def test_a_root_with_job_files_and_summary_lines_recovers(self, root):
        # The older layout: every transition rewrote jobs/<id>.json and
        # appended a journal line carrying only the event summary.
        jobs_dir = root / "queue" / "jobs"
        jobs_dir.mkdir(parents=True)
        statuses = {1: DONE, 2: PENDING, 3: RUNNING, 4: CANCELLED}
        lines = []
        for job_id, status in statuses.items():
            job = Job(job_id=job_id, kind=KIND_RUN, experiment_id="E6",
                      quick=True, params={"pump_mw": float(job_id)},
                      status=status, submitted_unix=1.7e9 + job_id)
            if status == DONE:
                job.metrics = {"car": 11.0}
            (jobs_dir / f"{job_id}.json").write_text(
                json.dumps(job.to_dict(), indent=2, sort_keys=True)
            )
            lines.append(json.dumps({
                "seq": job_id, "event": status, "job_id": job_id,
                "kind": KIND_RUN, "status": status, "experiment_id": "E6",
                "done_points": 0, "total_points": 1, "unix": 1.7e9,
            }, sort_keys=True))
        (jobs_dir / "3.claim").write_text("999999999 dead-daemon\n")
        (root / "queue" / "journal.jsonl").write_text("\n".join(lines) + "\n")

        store = JobStore(root, recover=True)
        assert {j.job_id: j.status for j in store.jobs()} == {
            1: DONE, 2: PENDING, 3: PENDING, 4: CANCELLED,
        }
        assert store.get(1).metrics == {"car": 11.0}
        assert store.seq == 5  # the four old lines and job 3's recovery
        # New transitions fold onto the old files from here on.
        job = claim_one(store, "w0")
        store.finish(job, DONE, metrics={"car": 9.0})
        again = JobStore(root)
        assert again.get(job.job_id).to_dict() == job.to_dict()
        assert again.get(3).status == PENDING and again.seq == 7


class TestCrash:
    def test_sigkill_between_terminal_line_and_snapshot(self, root):
        # The terminal line fills the journal, and the process dies while
        # the rotation's compacted file is being written.
        script = textwrap.dedent("""
            import os, signal, sys
            import repro.service.store as store_module
            from repro.service.jobs import DONE

            store_module.JOURNAL_MAX_LINES = 4
            store = store_module.JobStore(sys.argv[1])
            store.submit("E6", quick=True)
            _, (job,) = store.claim("w0", 1, lambda job: "lease")
            store.update_progress(job, 1, 1, run_id="E6-run-1", cached=True)
            real_fsync = os.fsync

            def killed(fd):
                if "ended" in os.readlink(f"/proc/self/fd/{fd}"):
                    os.kill(os.getpid(), signal.SIGKILL)
                return real_fsync(fd)

            os.fsync = killed
            store.finish(job, DONE, metrics={"car": 9.5})
        """)
        result = subprocess.run(
            [sys.executable, "-c", script, str(root)], timeout=120
        )
        assert result.returncode == -signal.SIGKILL
        (last,) = read_json_lines(root / "queue" / "journal.jsonl")[-1:]
        assert last["event"] == DONE
        ended = root / "queue" / "ended"
        (temp,) = os.listdir(ended)  # the compacted file never landed
        assert temp.startswith(".")
        assert not (root / "queue" / "journal-1.jsonl").exists()

        peek = JobStore(root)  # read-only: folds, writes nothing
        assert peek.get(1).status == DONE
        assert os.listdir(ended) == [temp]
        store = JobStore(root, recover=True)
        job = store.get(1)
        assert job.status == DONE and job.metrics == {"car": 9.5}
        assert job.run_ids == ["E6-run-1"]
        assert not store._claim_path(1).exists()
        # Recovery deleted the torn temp file.
        assert os.listdir(ended) == []
        assert store.counts() == {DONE: 1}


class TestOtherStores:
    def test_wait_idle_wakes_when_another_store_ends_the_last_job(self, root):
        waiter = JobStore(root)
        waiter.submit("E6")
        worker = JobStore(root)
        job = claim_one(worker, "w0")
        ended = threading.Timer(0.2, worker.finish, args=(job, DONE))
        ended.start()
        started = time.monotonic()
        try:
            assert waiter.wait_idle(30.0)
        finally:
            ended.join()
        assert time.monotonic() - started < 5.0
        assert waiter.get(job.job_id).status == DONE

    def test_wait_idle_counts_a_job_another_store_submitted(self, root):
        waiter = JobStore(root)
        JobStore(root).submit("E6")
        assert not waiter.wait_idle(0.0)

    def test_a_cancel_request_reaches_the_store_running_the_job(self, root):
        worker = JobStore(root)
        worker.submit("E6")
        job = claim_one(worker, "w0")
        JobStore(root).cancel(job.job_id)
        worker.update_progress(job, 0, 1)  # the holder follows first
        assert job.cancel_requested

    def test_a_store_idle_across_two_rotations_rebuilds_its_view(
        self, root, monkeypatch
    ):
        monkeypatch.setattr(store_module, "JOURNAL_MAX_LINES", 4)
        busy = JobStore(root)
        jobs = [busy.submit("E6", quick=True, seed=n)[0] for n in range(3)]
        idle = JobStore(root)  # sees three pending jobs, then looks away
        for _ in jobs:
            job = claim_one(busy, "w0")
            busy.update_progress(job, 1, 1, run_id=f"E6-run-{job.job_id}")
            busy.finish(job, DONE, metrics={"car": 1.0})
        # 12 lines at 4 a generation: the one idle read last is gone.
        assert idle.wait_idle(5.0)
        assert claim_one(idle, "w1") is None
        for job in jobs:
            assert idle.get(job.job_id).to_dict() == job.to_dict()

    def test_stores_taking_turns_read_each_others_compacted_jobs(
        self, root, monkeypatch
    ):
        # Each store follows every line, so neither rewinds: it must
        # still find the compacted files the other one wrote, both to
        # read back a job it let go and to compact one it did not hold.
        monkeypatch.setattr(store_module, "JOURNAL_MAX_LINES", 4)
        monkeypatch.setattr(store_module, "ENDED_JOBS", 1)
        stores = (JobStore(root), JobStore(root))
        ended = {}
        for n in range(12):
            store = stores[n % 2]
            store.submit("E6", quick=True, seed=n)
            job = claim_one(store, "w0")
            store.finish(job, DONE, metrics={"car": float(n)})
            ended[job.job_id] = job.to_dict()
        assert len(os.listdir(root / "queue" / "ended")) == 9
        for reader in (*stores, JobStore(root)):
            for job_id, document in ended.items():
                assert reader.get(job_id).to_dict() == document
            assert reader.counts() == {DONE: 12}

    def test_claim_threads_sleep_while_another_store_holds_the_claim(
        self, root
    ):
        mine = JobStore(root)
        mine.submit("E6", quick=True)
        theirs = JobStore(root)
        assert claim_one(theirs, "other") is not None  # held, never finished
        mine.submit("E6", quick=True, params={"pump_mw": 2.0})
        (mine._claim_path(2)).write_text("1 another-holder\n")
        fleet = coordinator_module.FleetCoordinator(mine, RunEngine(root=root))
        claims = []
        real_claim = fleet.claim

        def counting(*args, **kwargs):
            claims.append(time.monotonic())
            return real_claim(*args, **kwargs)

        fleet.claim = counting
        with local_workers(mine, fleet.engine, fleet=fleet):
            time.sleep(1.0)
        # One claim per idle wait and thread at most (a spinning
        # thread makes tens of thousands of calls in this second).
        idle = coordinator_module.IDLE_POLL_S
        assert 2 <= len(claims) <= 2 * (1.0 / idle + 2)
        assert {j.job_id: j.status for j in mine.jobs()} == {
            1: RUNNING, 2: PENDING,
        }


def test_stores_racing_on_one_root_run_each_job_once(root):
    # More store threads than cores and a tiny switch interval: a lost
    # update would duplicate an id, lose a line or end a job twice.
    stores = [JobStore(root) for _ in range(4)]
    errors: list[str] = []

    def worker(store, index):
        try:
            for n in range(15):
                store.submit("E6", dedupe=False, params={"n": index * 100 + n})
                job = claim_one(store, f"w{index}")
                if job is not None:
                    store.update_progress(job, 1, 1, run_id=f"r{job.job_id}")
                    store.finish(job, DONE)
        except Exception as error:  # noqa: BLE001 - collected for assert
            errors.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(store, index))
            for index, store in enumerate(stores * 2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    fresh = JobStore(root)
    assert not fresh.jobs(RUNNING)
    while (job := claim_one(fresh, "sweeper")) is not None:  # unclaimed ones
        fresh.finish(job, DONE)
    lines = read_json_lines(root / "queue" / "journal.jsonl")
    submitted = [line["job_id"] for line in lines if line["event"] == "submitted"]
    ended = [line["job_id"] for line in lines if line["event"] == DONE]
    assert sorted(submitted) == list(range(1, 121))
    assert sorted(ended) == sorted(submitted)  # each ended exactly once


def test_stores_racing_through_rotations_keep_every_job(root, monkeypatch):
    # The same race, with the journal rotating every few lines and each
    # store holding two ended jobs: every store compacts, and reads back
    # jobs that other stores compacted, while the others append.
    monkeypatch.setattr(store_module, "JOURNAL_MAX_LINES", 7)
    monkeypatch.setattr(store_module, "ENDED_JOBS", 2)
    stores = [JobStore(root) for _ in range(4)]
    errors: list[str] = []

    def worker(store, index):
        mine = []
        try:
            for n in range(15):
                job, _ = store.submit(
                    "E6", dedupe=False, params={"n": index * 100 + n}
                )
                mine.append(job.job_id)
                claimed = claim_one(store, f"w{index}")
                if claimed is not None:
                    store.finish(claimed, DONE)
                assert store.get(mine[0]).job_id == mine[0]
        except Exception as error:  # noqa: BLE001 - collected for assert
            errors.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(store, index))
            for index, store in enumerate(stores * 2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    fresh = JobStore(root)
    while (job := claim_one(fresh, "sweeper")) is not None:  # unclaimed ones
        fresh.finish(job, DONE)
    assert fresh.counts() == {DONE: 120}
    assert [job.job_id for job in fresh.jobs()] == list(range(1, 121))
    for store in stores:
        assert store.wait_idle(0.0)  # folds the sweeper's lines first
        assert store.counts() == {DONE: 120}
    assert JobStore(root).counts() == {DONE: 120}


def test_cached_job_costs_at_most_two_fsyncs(root, monkeypatch):
    RunEngine(root=root).run("E6", quick=True)  # warm the cache
    service = ExperimentService(root=root, port=0, use_processes=False)
    submit = {"experiment": "E6", "quick": True, "dedupe": False}
    service.runner.start()
    try:
        warm = service.dispatch("submit", submit)["job"]
        assert service.store.wait_job(warm["job_id"], 60.0).status == DONE
    finally:
        service.runner.stop()  # its last telemetry is out
    real_fsync = os.fsync
    synced: list[str] = []

    def counting(fd):
        try:
            synced.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:
            synced.append("?")
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting)
    service.runner.start()
    try:
        job = service.dispatch("submit", submit)["job"]
        assert service.store.wait_job(job["job_id"], 60.0).status == DONE
    finally:
        service.runner.stop()
    queue = [path for path in synced if f"{os.sep}queue{os.sep}" in path]
    # Two journal lines (submitted, and served at the workers' claim);
    # an ended job has no file of its own, and a served job writes no
    # telemetry line.
    assert len(queue) == 2 or "?" in synced
    assert len(synced) <= 2


#: Paths under a queue directory that a running test counts the
#: creations of (None when no test counts); see :func:`_count_creations`.
_created: list[str] | None = None
_queue_marker = f"{os.sep}queue{os.sep}"


def _count_creations(event, args):
    """Audit hook: record each open that creates a file under ``queue/``.

    Audit hooks see every open, ``os.open`` and C-level ones included,
    and a file counts when it is created even if it is unlinked again.
    """
    if event != "open" or _created is None or isinstance(args[0], int):
        return
    path = os.fspath(args[0])
    if _queue_marker in path and args[2] & os.O_CREAT and not os.path.exists(
        path
    ):
        _created.append(path)


sys.addaudithook(_count_creations)  # idle while ``_created`` is None


def test_cached_jobs_create_at_most_one_file_each(root):
    global _created
    RunEngine(root=root).run("E6", quick=True)  # warm the cache
    service = ExperimentService(root=root, port=0, use_processes=False)
    submit = {"experiment": "E6", "quick": True, "dedupe": False}
    service.runner.start()
    try:
        warm = service.dispatch("submit", submit)["job"]
        assert service.store.wait_job(warm["job_id"], 60.0).status == DONE
        _created = []
        jobs = [service.dispatch("submit", submit)["job"] for _ in range(20)]
        for job in jobs:
            done = service.store.wait_job(job["job_id"], 60.0)
            assert done.status == DONE and done.cached_points == 1
        created = _created
    finally:
        _created = None
        service.runner.stop()
    # No snapshot (an ended job has no file of its own), no id
    # reservation, and no claim marker for a job served at a claim.
    assert created == []


def test_health_cost_does_not_grow_with_the_cache(root):
    service = ExperimentService(root=root, port=0, use_processes=False)
    cache_dir = service.engine.cache.root
    cache_dir.mkdir(parents=True, exist_ok=True)

    def fill(count):
        for index in range(count):
            (cache_dir / f"{index:064x}.json").write_text("{}")

    def best_of(repeats=15, calls=100):
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            for _ in range(calls):
                service.dispatch("health", {})
            best = min(best, time.perf_counter() - started)
        return best

    fill(20)
    small = best_of()
    fill(20_000)
    large = best_of()
    assert large <= 2.0 * small
