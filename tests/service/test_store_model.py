"""Model-based test of JobStore: its status index against a model.

A Hypothesis state machine drives two stores on one root through
random sequences of submit (dedupe on and off), batch submit, claim,
update_progress, finish, cancel, requeue, release, reads of ended jobs,
reopen-with-recovery, one-shot compaction failures and switches of the
store that acts.  The journal rotates every few lines and each store
holds only two ended jobs, so compactions and reads of jobs a store let
go happen inside the machine, some of them of files the other store
wrote.  After every step the acting store's status index (live id sets,
plus counts of ended jobs) must equal a recount of the model,
``counts()`` must equal the recount, and both stores and a third
opened on the same root must give every job the model's document.
Each claim must take the first pending job in ``Job.sort_key`` order.

Below the machine, a subprocess is SIGKILLed inside a compaction —
before its file is durable, after, and after the rotation dropped the
older generation — and the reopened root must agree with the journal
lines that were durable.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro.service.store as store_module
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    KIND_RUN,
    PENDING,
    RUNNING,
    TERMINAL,
    Job,
)
from repro.service.store import JobStore
from repro.utils.io import read_json_lines

from tests.service.workers import claim_one


#: Pump powers of the submitted E6 specs; few, so twins are common.
PUMPS = (1.0, 2.0, 3.0)

#: Small enough that compactions and evictions happen within a run.
MAX_LINES = 5
ENDED_JOBS = 2


class JobStoreMachine(RuleBasedStateMachine):
    """One store on a scratch root, with a switchable compaction fault."""

    def __init__(self) -> None:
        super().__init__()
        self.tmp = pathlib.Path(tempfile.mkdtemp(prefix="store-model-"))
        self.root = self.tmp / "root"
        self.fail_next_compaction = False
        self.patched = {
            name: getattr(store_module, name)
            for name in ("JOURNAL_MAX_LINES", "ENDED_JOBS", "_SORT_RUN")
        }
        store_module.JOURNAL_MAX_LINES = MAX_LINES
        store_module.ENDED_JOBS = ENDED_JOBS
        store_module._SORT_RUN = 2
        self.real_write = JobStore._write_compacted
        JobStore._write_compacted = (
            lambda store, *args: self._write(store, *args)
        )
        #: Every job's document, as the operations left it.
        self.model: dict[int, dict[str, object]] = {}
        self.store = JobStore(self.root)
        #: A second store on the root, swapped in by :meth:`switch_store`.
        self.other = JobStore(self.root)

    def teardown(self) -> None:
        JobStore._write_compacted = self.real_write
        for name, value in self.patched.items():
            setattr(store_module, name, value)
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _write(self, store, *args):
        """``_write_compacted`` that fails once when armed."""
        if self.fail_next_compaction:
            self.fail_next_compaction = False
            raise OSError("injected compaction failure")
        return self.real_write(store, *args)

    def _record(self, *jobs: Job) -> None:
        for job in jobs:
            self.model[job.job_id] = job.to_dict()

    # ------------------------------------------------------------------
    # Views of the model
    # ------------------------------------------------------------------
    def _recount(self) -> dict[str, set[int]]:
        statuses: dict[str, set[int]] = {}
        for job_id, document in self.model.items():
            statuses.setdefault(document["status"], set()).add(job_id)
        return statuses

    def _ids(self, *statuses: str) -> list[int]:
        return sorted(
            job_id
            for job_id, document in self.model.items()
            if document["status"] in statuses
        )

    def _pick(self, statuses: tuple[str, ...], pick: int) -> Job:
        ids = self._ids(*statuses)
        return self.store.get(ids[pick % len(ids)])

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(
        pump=st.sampled_from(PUMPS),
        dedupe=st.booleans(),
        priority=st.integers(min_value=0, max_value=2),
    )
    def submit(self, pump: float, dedupe: bool, priority: int) -> None:
        params = {"pump_mw": pump}
        fingerprint = Job(
            job_id=0, kind=KIND_RUN, experiment_id="E6", quick=True,
            params=params,
        ).fingerprint()
        twins = [
            job_id
            for job_id in self._ids(PENDING, RUNNING)
            if self.store.get(job_id).fingerprint() == fingerprint
        ]
        job, deduped = self.store.submit(
            "E6", quick=True, params=params, priority=priority, dedupe=dedupe,
        )
        if dedupe and twins:
            assert deduped and job.job_id == min(twins)
            return
        assert not deduped and job.job_id not in self.model
        assert job.job_id > max(self.model, default=0)
        self._record(job)

    @rule(size=st.integers(min_value=1, max_value=4))
    def submit_batch(self, size: int) -> None:
        jobs = self.store.submit_batch(
            [{"experiment_id": "E6", "params": {"n": n}} for n in range(size)]
        )
        assert [job.job_id for job in jobs] == list(
            range(max(self.model, default=0) + 1,
                  max(self.model, default=0) + 1 + size)
        )
        self._record(*jobs)

    @rule()
    def claim(self) -> None:
        pending = sorted(
            (self.store.get(i) for i in self._ids(PENDING)),
            key=Job.sort_key,
        )
        expected = next(
            (
                job.job_id for job in pending
                if not self.store._claim_path(job.job_id).exists()
            ),
            None,
        )
        claimed = claim_one(self.store, "w0")
        if expected is None:
            assert claimed is None
            return
        assert claimed.job_id == expected
        assert claimed.status == RUNNING
        self._record(claimed)

    @precondition(lambda self: self._ids(RUNNING))
    @rule(pick=st.integers(min_value=0), cached=st.booleans())
    def update_progress(self, pick: int, cached: bool) -> None:
        job = self._pick((RUNNING,), pick)
        self.store.update_progress(job, 1, 1, run_id="run", cached=cached)
        self._record(job)

    @precondition(lambda self: self._ids(RUNNING))
    @rule(pick=st.integers(min_value=0), status=st.sampled_from(sorted(TERMINAL)))
    def finish(self, pick: int, status: str) -> None:
        job = self._pick((RUNNING,), pick)
        metrics = {"car": 1.0} if status == DONE else None
        error = {"type": "E", "message": "m", "traceback": ""} if (
            status == FAILED
        ) else None
        self.store.finish(job, status, metrics=metrics, error=error)
        assert job.status == status
        self._record(job)

    @precondition(lambda self: self._ids(PENDING, RUNNING))
    @rule(pick=st.integers(min_value=0))
    def cancel(self, pick: int) -> None:
        job = self._pick((PENDING, RUNNING), pick)
        was_pending = job.status == PENDING
        self.store.cancel(job.job_id)
        if was_pending:
            assert job.status == CANCELLED
        else:
            assert job.status == RUNNING and job.cancel_requested
        self._record(job)

    @precondition(lambda self: self._ids(*TERMINAL))
    @rule(pick=st.integers(min_value=0))
    def requeue(self, pick: int) -> None:
        ids = self._ids(*TERMINAL)
        job = self.store.requeue(ids[pick % len(ids)])
        assert job.status == PENDING
        self._record(job)

    @precondition(lambda self: self._ids(RUNNING))
    @rule(pick=st.integers(min_value=0))
    def release(self, pick: int) -> None:
        job = self._pick((RUNNING,), pick)
        self.store.release(job)
        assert job.status == PENDING
        self._record(job)

    @precondition(lambda self: self._ids(*TERMINAL))
    @rule(pick=st.integers(min_value=0))
    def read_ended(self, pick: int) -> None:
        # Most ended jobs have left memory: this reads them back.
        ids = self._ids(*TERMINAL)
        job_id = ids[pick % len(ids)]
        assert self.store.get(job_id).to_dict() == self.model[job_id]
        assert len(self.store._recent) <= ENDED_JOBS

    @rule()
    def list_every_job(self) -> None:
        assert {job.job_id: job.to_dict() for job in self.store.jobs()} == (
            self.model
        )

    @rule()
    def reopen_recovering(self) -> None:
        self.fail_next_compaction = False
        self.store = JobStore(self.root, recover=True)
        for job_id in self._ids(RUNNING):
            self._record(self.store.get(job_id))
        assert not self._ids(RUNNING)

    @rule()
    def fail_next_compaction_write(self) -> None:
        self.fail_next_compaction = True

    @rule()
    def switch_store(self) -> None:
        # The other store followed every line, so it never rewinds: it
        # must still read and compact what this one compacted.
        self.store, self.other = self.other, self.store
        with self.store._changed:
            self.store._follow()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def index_equals_recount(self) -> None:
        recount = self._recount()
        for status in (PENDING, RUNNING):
            assert self.store._by_status[status] == recount.pop(status, set())
        assert {
            status: count for status, count in self.store._ended.items()
            if count
        } == {status: len(ids) for status, ids in recount.items()}
        assert len(self.store._recent) <= ENDED_JOBS

    @invariant()
    def counts_equal_recount(self) -> None:
        recount = {status: len(ids) for status, ids in self._recount().items()}
        assert self.store.counts() == recount

    @invariant()
    def every_store_gives_the_model_its_jobs(self) -> None:
        with self.other._changed:
            self.other._follow()
        stores = (self.store, self.other, JobStore(self.root))
        for store in stores:
            assert store.counts() == self.store.counts()
            for job_id, document in self.model.items():
                assert store.get(job_id).to_dict() == document


TestJobStoreModel = JobStoreMachine.TestCase
TestJobStoreModel.settings = settings(
    max_examples=100,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


#: A mixed workload on a journal that rotates every 6 lines, killed by
#: SIGKILL at the second rotation at the crash point named by argv[2].
#: Every line the journal writes is copied to ``lines.jsonl`` after it
#: is durable, so the test knows what the crash left on disk.
CRASH_SCRIPT = textwrap.dedent("""
    import os, signal, sys
    import repro.service.store as store_module
    import repro.utils.journal as journal_module
    from repro.service.jobs import CANCELLED, DONE, FAILED

    root, point = sys.argv[1], sys.argv[2]
    store_module.JOURNAL_MAX_LINES = 6
    store_module.ENDED_JOBS = 1
    real_append, real_fsync, real_replace = (
        journal_module.append_line, os.fsync, os.replace
    )
    compactions, rotations = [], []

    def append(path, line):
        real_append(path, line)
        with open(os.path.join(root, "lines.jsonl"), "a") as side:
            side.write(line + "\\n")

    def fsync(fd):
        target = os.readlink(f"/proc/self/fd/{fd}")
        if point == "temp" and os.sep + "ended" + os.sep in target:
            compactions.append(target)
            if len(compactions) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
        return real_fsync(fd)

    def replace(source, target):
        rotating = str(target).endswith("journal-1.jsonl")
        if rotating:
            rotations.append(target)
        if rotating and point == "durable" and len(rotations) == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        real_replace(source, target)
        if rotating and point == "dropped" and len(rotations) == 2:
            os.kill(os.getpid(), signal.SIGKILL)

    journal_module.append_line = append
    os.fsync, os.replace = fsync, replace
    store = store_module.JobStore(root)
    for n in range(12):
        store.submit("E6", quick=True, params={"n": n})
        _, leased = store.claim("w0", 1, lambda job: "lease")
        for job in leased:
            status = (DONE, FAILED, CANCELLED)[n % 3]
            store.finish(job, status, metrics={"car": float(n)})
        if n % 4 == 3:
            store.requeue(leased[0].job_id)
    raise SystemExit("no crash")
""")


@pytest.mark.parametrize("point", ["temp", "durable", "dropped"])
def test_a_crash_inside_a_compaction_loses_nothing(tmp_path, point):
    root = tmp_path / "root"
    root.mkdir()
    result = subprocess.run(
        [sys.executable, "-c", CRASH_SCRIPT, str(root), point], timeout=120
    )
    assert result.returncode == -signal.SIGKILL
    durable: dict[int, str] = {}
    for line in read_json_lines(root / "lines.jsonl"):
        durable[line["job_id"]] = line["status"]
    ended = os.listdir(root / "queue" / "ended")
    assert any(name.startswith(".") for name in ended) == (point == "temp")

    peek = JobStore(root)
    assert {job_id: peek.get(job_id).status for job_id in durable} == durable
    recovered = JobStore(root, recover=True)
    model = {
        job_id: PENDING if status == RUNNING else status
        for job_id, status in durable.items()
    }
    counts: dict[str, int] = {}
    for status in model.values():
        counts[status] = counts.get(status, 0) + 1
    assert recovered.counts() == counts
    assert {job.job_id: job.status for job in recovered.jobs()} == model
    assert not any(name.startswith(".") for name in os.listdir(
        root / "queue" / "ended"
    ))
    fresh, _ = recovered.submit("E6", params={"after": "crash"})
    assert fresh.job_id == max(durable) + 1  # no id is reused
    assert JobStore(root).counts() == {
        **counts, PENDING: counts.get(PENDING, 0) + 1
    }
    json.dumps(recovered.snapshot())  # every job still serialises
