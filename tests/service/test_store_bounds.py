"""The queue's cost does not grow with the jobs it served.

A store holds its live jobs, its counts and a bounded set of ended
jobs; the rest are read back from the live journal or the compacted
files.  These tests pin that an evicted job reads back whole (by a
bisect of a compacted file), that opening a root with 20,000 ended jobs
opens a fixed handful of files, and that serving 20,000 cached jobs in
process leaves traced memory flat.  The last two are slow.
"""

from __future__ import annotations

import os
import sys
import tracemalloc

import pytest

import repro.service.store as store_module
from repro.runtime.engine import RunEngine
from repro.service.api import ExperimentService
from repro.service.jobs import CANCELLED, DONE, FAILED
from repro.service.store import JobStore


@pytest.fixture
def root(tmp_path):
    return tmp_path / "engine-root"


def _serve(store, count, batch=1000):
    """Submit ``count`` jobs in batches, each served at one claim."""
    for start in range(0, count, batch):
        size = min(batch, count - start)
        store.submit_batch([
            {"experiment_id": "E6", "quick": True,
             "params": {"pump_mw": 1.0 + n % 7, "n": start + n}}
            for n in range(size)
        ])
        served, _ = store.claim(
            "w0", size,
            lambda job: ("serve", f"E6-run-{job.job_id}", {"car": 1.0}),
        )
        assert len(served) == size


def test_ended_jobs_read_back_from_the_compacted_files(root, monkeypatch):
    monkeypatch.setattr(store_module, "JOURNAL_MAX_LINES", 200)
    monkeypatch.setattr(store_module, "ENDED_JOBS", 3)
    monkeypatch.setattr(store_module, "_SORT_RUN", 7)  # many runs to merge
    store = JobStore(root)
    ended = {}
    for n in range(300):
        job, _ = store.submit("E6", params={"n": n, "pad": "x" * (n % 50)})
        (claimed,) = store.claim("w0", 1, lambda job: "lease")[1]
        status = (DONE, FAILED, CANCELLED)[n % 3]
        store.finish(claimed, status, metrics={"car": float(n)})
        ended[job.job_id] = claimed.to_dict()
    compacted = sorted(os.listdir(store.ended_dir))
    assert len(compacted) == 4  # 900 lines at 200 a generation
    assert max(os.path.getsize(store.ended_dir / name)
               for name in compacted) > 2 * store_module._SCAN_BYTES
    assert len(store._jobs) == 3
    for reader in (store, JobStore(root)):
        for job_id in sorted(ended, key=lambda job_id: (job_id * 7919) % 301):
            assert reader.get(job_id).to_dict() == ended[job_id]
        assert {job.job_id: job.to_dict() for job in reader.jobs()} == ended
        assert reader.counts() == {DONE: 100, FAILED: 100, CANCELLED: 100}


#: Paths under a root that a running test counts the opens of (None
#: when no test counts); see :func:`_count_opens`.
_opened: list[str] | None = None
_opened_under = ""


def _count_opens(event, args):
    """Audit hook: record each open of a path under ``_opened_under``."""
    if event != "open" or _opened is None or isinstance(args[0], int):
        return
    path = os.fspath(args[0])
    if path.startswith(_opened_under):
        _opened.append(path)


sys.addaudithook(_count_opens)  # idle while ``_opened`` is None


@pytest.mark.slow
def test_opening_20000_ended_jobs_reads_a_handful_of_files(root):
    global _opened, _opened_under
    _serve(JobStore(root), 20_000)
    _opened_under, _opened = os.fspath(root), []
    try:
        store = JobStore(root, recover=True)
        opened = _opened
    finally:
        _opened = None
    assert store.counts() == {DONE: 20_000}
    # The journal lock, the two journal generations (the live one is
    # created, held as the cursor, read for the event tail and folded)
    # and the newest compacted file's header: nothing per job.
    queue = store.queue_dir
    assert set(opened) == {
        os.fspath(path) for path in (
            queue / "journal.lock", queue / "journal.jsonl",
            queue / "journal-1.jsonl", *store.ended_dir.glob("40000-*"),
        )
    }
    assert len(opened) <= 8, opened


@pytest.mark.slow
def test_serving_20000_cached_jobs_keeps_traced_memory_flat(root):
    RunEngine(root=root).run("E6", quick=True)  # warm the cache
    service = ExperimentService(root=root, port=0, use_processes=False)
    submit = {"experiment": "E6", "quick": True, "dedupe": False}

    def serve(count):
        for _ in range(count // 250):
            jobs = [service.dispatch("submit", submit)["job"]
                    for _ in range(250)]
            for job in jobs:
                assert service.store.wait_job(job["job_id"], 60.0).status == DONE
        assert service.store.wait_idle(60.0)

    service.runner.start()
    try:
        serve(250)  # warm-up: imports, first cache read, first claims
        # Traced from here on, so the bounded buffers (the event tail,
        # the ended jobs in memory) have turned over by 5k: growth past
        # that is what serving keeps.
        tracemalloc.start()
        try:
            serve(4_750)
            at_5k = tracemalloc.get_traced_memory()[0]
            serve(15_000)
            at_20k = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    finally:
        service.runner.stop()
    assert service.store.counts() == {DONE: 20_000}
    per_job = (at_20k - at_5k) / 15_000
    assert per_job < 200, f"traced memory grew {per_job:.0f} B per job"
