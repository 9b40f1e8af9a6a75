"""JobStore: persistence, priority claims, dedup, cancel, recovery."""

import subprocess
import sys
import textwrap
import threading

import pytest

from repro.errors import ConfigurationError
from repro.runtime.engine import RunEngine
from repro.service.jobs import CANCELLED, DONE, FAILED, PENDING, RUNNING
from repro.service.store import JobStore
from repro.utils.io import read_json_lines

from tests.service.workers import claim_one


@pytest.fixture
def root(tmp_path):
    """A fresh engine root for each test."""
    return tmp_path / "engine-root"


@pytest.fixture
def store(root):
    """An empty job store under the test root."""
    return JobStore(root)


class TestSubmit:
    def test_submit_persists_job_file_and_journal(self, store):
        job, deduped = store.submit("e6", quick=True, priority=2)
        assert not deduped
        assert job.status == PENDING and job.experiment_id == "E6"
        # No job file until the job ends: the submission's journal line
        # carries the whole job document.
        assert not store.job_path(job.job_id).exists()
        (line,) = read_json_lines(store.journal_path)
        assert line["job"] == job.fields()
        assert line["job"]["priority"] == 2
        assert store.seq >= 1

    def test_ids_are_sequential(self, store):
        first, _ = store.submit("E6")
        second, _ = store.submit("E7")
        assert second.job_id == first.job_id + 1

    def test_live_twin_coalesces(self, store):
        first, _ = store.submit("E6", quick=True)
        twin, deduped = store.submit("E6", quick=True)
        assert deduped and twin.job_id == first.job_id

    def test_no_dedupe_enqueues_twice(self, store):
        first, _ = store.submit("E6", quick=True)
        second, deduped = store.submit("E6", quick=True, dedupe=False)
        assert not deduped and second.job_id != first.job_id

    def test_cache_hit_completes_instantly(self, root, store):
        engine = RunEngine(root=root)
        engine.run("E6", quick=True)  # warm the cache
        job, deduped = store.submit("E6", quick=True, engine=engine)
        assert deduped and job.status == DONE
        assert job.cached_points == 1 and job.metrics

    def test_sweep_jobs_never_cache_dedupe(self, root, store):
        engine = RunEngine(root=root)
        engine.run("E6", quick=True)
        scan = {"type": "ListScan", "name": "pump_mw", "values": [4.0]}
        job, deduped = store.submit("E6", quick=True, scan=scan, engine=engine)
        assert not deduped and job.status == PENDING


class TestClaim:
    def test_priority_order(self, store):
        low, _ = store.submit("E6", priority=0)
        high, _ = store.submit("E7", priority=9)
        mid, _ = store.submit("E5", priority=5)
        order = [claim_one(store).job_id for _ in range(3)]
        assert order == [high.job_id, mid.job_id, low.job_id]

    def test_claim_marks_running_and_creates_marker(self, store):
        job, _ = store.submit("E6")
        claimed = claim_one(store, "w0")
        assert claimed.job_id == job.job_id and claimed.status == RUNNING
        assert store._claim_path(job.job_id).exists()

    def test_empty_queue_claims_none(self, store):
        assert claim_one(store) is None

    def test_foreign_claim_marker_skips_job(self, store):
        job, _ = store.submit("E6")
        other, _ = store.submit("E7")
        store._claim_path(job.job_id).touch()  # another process owns it
        assert claim_one(store).job_id == other.job_id

    def test_finish_releases_marker(self, store):
        job, _ = store.submit("E6")
        claimed = claim_one(store)
        store.finish(claimed, DONE, metrics={"x": 1.0})
        assert not store._claim_path(job.job_id).exists()
        assert store.get(job.job_id).metrics == {"x": 1.0}


class TestCancelRequeue:
    def test_cancel_pending_is_immediate(self, store):
        job, _ = store.submit("E6")
        assert store.cancel(job.job_id).status == CANCELLED

    def test_cancel_running_is_cooperative(self, store):
        store.submit("E6")
        job = claim_one(store)
        cancelled = store.cancel(job.job_id)
        assert cancelled.status == RUNNING and cancelled.cancel_requested

    def test_cancel_terminal_rejected(self, store):
        job, _ = store.submit("E6")
        store.cancel(job.job_id)
        with pytest.raises(ConfigurationError):
            store.cancel(job.job_id)

    def test_requeue_failed_job(self, store):
        store.submit("E6")
        job = claim_one(store)
        store.finish(job, FAILED, error={"type": "X", "message": "y",
                                         "traceback": "z"})
        requeued = store.requeue(job.job_id)
        assert requeued.status == PENDING and requeued.attempt == 2
        assert requeued.error is None

    def test_requeue_pending_rejected(self, store):
        job, _ = store.submit("E6")
        with pytest.raises(ConfigurationError):
            store.requeue(job.job_id)

    def test_unknown_job_rejected(self, store):
        with pytest.raises(ConfigurationError):
            store.get(404)


class TestPersistenceAndRecovery:
    def test_reopen_sees_same_queue(self, root):
        first = JobStore(root)
        submitted, _ = first.submit("E6", priority=7, params={"pump_mw": 3})
        reopened = JobStore(root)
        job = reopened.get(submitted.job_id)
        assert job.priority == 7 and job.params == {"pump_mw": 3}
        assert reopened.seq == first.seq

    def test_recovery_resets_running_jobs(self, root):
        first = JobStore(root)
        first.submit("E6")
        claimed = claim_one(first, "w0")
        assert claimed.status == RUNNING
        # Simulate a SIGKILL: the claim marker and running journal line
        # are exactly what a dead server leaves behind.
        recovered = JobStore(root, recover=True)
        job = recovered.get(claimed.job_id)
        assert job.status == PENDING
        assert not recovered._claim_path(job.job_id).exists()
        assert claim_one(recovered, "w1").job_id == job.job_id

    def test_recovery_leaves_live_holders_alone(self, root):
        first = JobStore(root)
        first.submit("E6")
        claimed = claim_one(first, "w0")
        # Rewrite the claim marker to name a pid that is alive (pid 1):
        # the job belongs to another live daemon and must not be stolen.
        first._claim_path(claimed.job_id).write_text(
            "1 other-daemon\n", encoding="utf-8"
        )
        recovered = JobStore(root, recover=True)
        assert recovered.get(claimed.job_id).status == RUNNING
        assert recovered._claim_path(claimed.job_id).exists()
        assert claim_one(recovered, "w1") is None  # nothing stealable

    def test_recovery_fences_dead_holders(self, root):
        first = JobStore(root)
        first.submit("E6")
        claimed = claim_one(first, "w0")
        # A pid that cannot exist: the holder is dead, the job orphaned.
        first._claim_path(claimed.job_id).write_text(
            "999999999 dead-daemon\n", encoding="utf-8"
        )
        recovered = JobStore(root, recover=True)
        assert recovered.get(claimed.job_id).status == PENDING
        assert not recovered._claim_path(claimed.job_id).exists()

    def test_reopen_without_recover_keeps_running(self, root):
        first = JobStore(root)
        first.submit("E6")
        claim_one(first)
        inspector = JobStore(root)  # read-only peek, e.g. repro status
        assert inspector.jobs(RUNNING)

    def test_two_submitting_stores_never_clobber_ids(self, root):
        # Two stores (as from two processes) submit interleaved: each
        # allocates under the journal lock after folding the other's
        # lines, so every id is distinct.
        store_a = JobStore(root)
        store_b = JobStore(root)  # boots with the same (empty) snapshot
        a1, _ = store_a.submit("E6", params={"pump_mw": 1.0})
        b1, _ = store_b.submit("E7", dedupe=False)
        a2, _ = store_a.submit("E6", params={"pump_mw": 2.0})
        assert len({a1.job_id, b1.job_id, a2.job_id}) == 3
        fresh = JobStore(root)
        assert fresh.get(a1.job_id).experiment_id == "E6"
        assert fresh.get(b1.job_id).experiment_id == "E7"

    def test_two_processes_submitting_at_once_get_each_id_once(self, root):
        script = textwrap.dedent("""
            import pathlib, sys, time
            from repro.service.store import JobStore

            root, name = pathlib.Path(sys.argv[1]), sys.argv[2]
            store = JobStore(root)
            (root / f"ready-{name}").touch()
            while len(list(root.glob("ready-*"))) < 2:
                time.sleep(0.001)
            for n in range(200):
                store.submit("E6", dedupe=False, params={"w": name, "n": n})
        """)
        root.mkdir(parents=True)
        writers = [
            subprocess.Popen([sys.executable, "-c", script, str(root), name])
            for name in "ab"
        ]
        for writer in writers:
            assert writer.wait(timeout=300) == 0
        store = JobStore(root)
        jobs = store.jobs()
        assert sorted(job.job_id for job in jobs) == list(range(1, 401))
        assert {(job.params["w"], job.params["n"]) for job in jobs} == {
            (name, n) for name in "ab" for n in range(200)
        }
        lines = read_json_lines(store.journal_path)
        assert sorted(line["job_id"] for line in lines) == list(range(1, 401))

    def test_ids_named_by_unbuildable_lines_or_files_are_not_reused(
        self, root
    ):
        writer = JobStore(root)
        follower = JobStore(root)  # opened before the lines it follows

        def foreign_line(job_id):
            # A job kind this version cannot build (a newer writer's).
            with writer.journal.locked():
                writer.journal.append([{
                    "event": "submitted", "job_id": job_id,
                    "job": {"job_id": job_id, "kind": "calibrate"},
                }])

        foreign_line(7)
        assert JobStore(root).submit("E6")[0].job_id == 8
        foreign_line(20)
        assert follower.submit("E6", dedupe=False)[0].job_id == 21
        (writer.jobs_dir / "30.json").write_text("")  # an old reservation
        assert JobStore(root).submit("E6", dedupe=False)[0].job_id == 31
        (writer.jobs_dir / "40.json").write_text("{torn")
        assert JobStore(root).submit("E6", dedupe=False)[0].job_id == 41

    def test_running_store_journal_stays_bounded(self, root, monkeypatch):
        import repro.service.store as store_module
        from repro.utils.io import read_json_lines

        monkeypatch.setattr(store_module, "JOURNAL_MAX_LINES", 10)
        monkeypatch.setattr(store_module, "EVENT_BUFFER", 4)
        store = JobStore(root)
        rotated = store.journal_path.with_name("journal-1.jsonl")
        job, _ = store.submit("E6")
        for done in range(25):  # 26 transitions, never reopening
            store.update_progress(job, done, 25)
            live = read_json_lines(store.journal_path)
            assert len(live) <= 10
            on_disk = [e["seq"] for e in read_json_lines(rotated) + live]
            assert on_disk == list(range(on_disk[0], store.seq + 1))
            # A cursor at 0 gaps only once seq 1 left both generations.
            fresh, gap = store.wait_events(0, timeout=0.0)
            assert gap == (on_disk[0] > 1)
            expected = on_disk if gap else list(range(1, store.seq + 1))
            assert [e["seq"] for e in fresh] == expected
        assert store.seq == 26 and gap
        # Seq keeps rising across the rotations and a reopen.
        assert JobStore(root).seq == 26

    def test_torn_job_file_skipped(self, root):
        store = JobStore(root)
        store.submit("E6")
        (store.jobs_dir / "999.json").write_text("{torn", encoding="utf-8")
        assert len(JobStore(root).jobs()) == 1


class TestEventsAndWaiting:
    def test_events_since_filters(self, store):
        store.submit("E6")
        seq = store.seq
        store.submit("E7")
        fresh, gap = store.wait_events(seq)
        assert not gap
        assert len(fresh) == 1 and fresh[0]["experiment_id"] == "E7"

    def test_wait_events_times_out_empty(self, store):
        assert store.wait_events(store.seq, timeout=0.05) == ([], False)

    def test_wait_events_wakes_on_submit(self, store):
        results = []

        def waiter():
            results.extend(store.wait_events(store.seq, timeout=5.0)[0])

        thread = threading.Thread(target=waiter)
        thread.start()
        store.submit("E6")
        thread.join(timeout=5.0)
        assert results and results[0]["event"] == "submitted"

    def test_wait_job_returns_terminal(self, store):
        store.submit("E6")
        job = claim_one(store)

        def finisher():
            store.finish(job, DONE)

        thread = threading.Timer(0.05, finisher)
        thread.start()
        waited = store.wait_job(job.job_id, timeout=5.0)
        thread.join()
        assert waited.status == DONE

    def test_snapshot_counts(self, store):
        store.submit("E6")
        store.submit("E7")
        claim_one(store)
        counts = store.snapshot()["counts"]
        assert counts == {"pending": 1, "running": 1}


class TestJournalFallbackAndGaps:
    """Long-poll feed: tail eviction, journal fallback, rotation gaps."""

    def test_buffer_eviction_recovers_from_journal(self, root, monkeypatch):
        import repro.service.store as store_module

        monkeypatch.setattr(store_module, "EVENT_BUFFER", 4)
        store = JobStore(root)
        for _ in range(10):
            store.submit("E6", dedupe=False)
        assert len(store.journal._tail) == 4  # the tail really evicted
        # A subscriber resuming before the tail head still gets the
        # full history (journal fallback), and it is not flagged as a
        # gap because nothing was actually lost.
        fresh, gap = store.wait_events(0, timeout=0.0)
        assert [e["seq"] for e in fresh] == list(range(1, 11))
        assert not gap

    def test_journal_fallback_counted_in_obs(self, root, monkeypatch):
        import repro.service.store as store_module

        from repro import obs
        from repro.obs import names as obs_names

        monkeypatch.setattr(store_module, "EVENT_BUFFER", 2)
        store = JobStore(root)
        for _ in range(5):
            store.submit("E6", dedupe=False)
        obs.reset()  # drop counters accumulated by earlier tests
        obs.configure(enabled=True)
        try:
            store.wait_events(0)
            counters = obs.snapshot()["counters"]
            assert counters.get(
                obs_names.METRIC_EVENTS_JOURNAL_FALLBACKS
            ) == 1
        finally:
            obs.reset()

    def test_rotation_gap_is_flagged(self, root, monkeypatch):
        import time

        import repro.service.store as store_module

        monkeypatch.setattr(store_module, "JOURNAL_MAX_LINES", 10)
        monkeypatch.setattr(store_module, "EVENT_BUFFER", 5)
        store = JobStore(root)
        job, _ = store.submit("E6")
        for _ in range(30):
            store.update_progress(job, 0, 1)
        # 31 transitions rotated three times: seq 21..31 are on disk.
        for reader in (store, JobStore(root)):
            started = time.monotonic()
            fresh, gap = reader.wait_events(0, timeout=5.0)
            # Events 1..20 are irrecoverably gone: flagged immediately,
            # not after the long-poll timeout.
            assert gap and time.monotonic() - started < 1.0
            assert [e["seq"] for e in fresh] == list(range(21, 32))
            # A cursor inside the retained span sees no gap.
            tail, tail_gap = reader.wait_events(reader.seq - 1, timeout=0.0)
            assert len(tail) == 1 and not tail_gap

    def test_malformed_journal_entries_skipped(self, root):
        store = JobStore(root)
        store.submit("E6")
        good_seq = store.seq
        with store.journal_path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "x"}\n')  # missing seq
            handle.write('{"seq": "7", "event": "x"}\n')  # string seq
            handle.write('{"seq": true, "event": "x"}\n')  # bool seq
            handle.write('[1, 2]\n')  # not an object
        reopened = JobStore(root)
        assert reopened.seq == good_seq
        events, gap = reopened.wait_events(0)
        assert events and not gap
        assert all(type(e["seq"]) is int for e in events)

    def test_malformed_journal_entries_counted_in_obs(self, root):
        from repro import obs
        from repro.obs import names as obs_names

        store = JobStore(root)
        store.submit("E6")
        with store.journal_path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": "oops"}\n')
            handle.write('{"seq": null}\n')
        obs.reset()  # drop counters accumulated by earlier tests
        obs.configure(enabled=True)
        try:
            JobStore(root)
            counters = obs.snapshot()["counters"]
            assert counters.get(
                obs_names.METRIC_QUEUE_JOURNAL_MALFORMED
            ) == 2
        finally:
            obs.reset()
