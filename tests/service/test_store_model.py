"""Model-based test of JobStore: its status index against a recount.

A Hypothesis state machine drives one store through random sequences
of submit (dedupe on and off), claim, update_progress, finish, cancel,
requeue, release, reopen-with-recovery and one-shot job-file write
failures.  After every step the status index (id sets, plus a count of
done jobs) must equal a recount of the in-memory jobs, ``counts()``
must equal the recount, and a second store opened on the same root
must hold the same jobs.  Each claim must take the first pending job
in ``Job.sort_key`` order.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import tempfile

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

from tests.service.workers import claim_one


#: Pump powers of the submitted E6 specs; few, so twins are common.
PUMPS = (1.0, 2.0, 3.0)


class JobStoreMachine(RuleBasedStateMachine):
    """One store on a scratch root, with a switchable job-file write fault."""

    def __init__(self) -> None:
        super().__init__()
        self.tmp = pathlib.Path(tempfile.mkdtemp(prefix="store-model-"))
        self.root = self.tmp / "root"
        self.fail_next_write = False
        #: Ids whose last job-file write failed: memory and disk differ.
        self.dirty: set[int] = set()
        self.real_write = store_module.atomic_write_text
        store_module.atomic_write_text = self._write
        self.store = JobStore(self.root)

    def teardown(self) -> None:
        store_module.atomic_write_text = self.real_write
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _write(self, path, text):
        """``atomic_write_text`` that fails once when armed (job files only)."""
        path = pathlib.Path(path)
        if path.parent.name != "jobs":
            return self.real_write(path, text)
        job_id = int(path.stem)
        if self.fail_next_write:
            self.fail_next_write = False
            self.dirty.add(job_id)
            raise OSError("injected job-file write failure")
        result = self.real_write(path, text)
        self.dirty.discard(job_id)
        return result

    def _call(self, operation, *args, **kwargs):
        """Run a store operation; an OSError is allowed only when armed."""
        armed = self.fail_next_write
        try:
            return operation(*args, **kwargs)
        except OSError:
            assert armed, "a write failed that was not injected"
            return None

    # ------------------------------------------------------------------
    # Views of the in-memory jobs, recounted the slow way
    # ------------------------------------------------------------------
    def _recount(self) -> dict[str, set[int]]:
        statuses: dict[str, set[int]] = {}
        for job in self.store._jobs.values():
            statuses.setdefault(job.status, set()).add(job.job_id)
        return statuses

    def _ids(self, *statuses: str) -> list[int]:
        return sorted(
            job.job_id
            for job in self.store._jobs.values()
            if job.status in statuses
        )

    def _pick(self, statuses: tuple[str, ...], pick: int) -> Job:
        ids = self._ids(*statuses)
        return self.store._jobs[ids[pick % len(ids)]]

    def _claimable(self, job: Job) -> bool:
        """Whether ``claim`` takes ``job`` when it reaches it in order.

        A job with a claim marker is skipped, and claim re-reads the job
        file: a job whose last write failed is claimable only if its
        file still says pending (or is unreadable, when claim keeps the
        in-memory copy).
        """
        if self.store._claim_path(job.job_id).exists():
            return False
        if job.job_id not in self.dirty:
            return True
        try:
            document = json.loads(self.store.job_path(job.job_id).read_text())
        except ValueError:
            return True
        return document["status"] == PENDING

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
            job.job_id
            for job in self.store._jobs.values()
            if job.status in (PENDING, RUNNING)
            and job.fingerprint() == fingerprint
        ]
        known = set(self.store._jobs)
        result = self._call(
            self.store.submit, "E6", quick=True, params=params,
            priority=priority, dedupe=dedupe,
        )
        if dedupe and twins:
            job, deduped = result
            assert deduped and job.job_id == min(twins)
            return
        if result is not None:
            job, deduped = result
            assert not deduped and job.job_id not in known
            assert job.job_id > max(known, default=0)

    @rule()
    def claim(self) -> None:
        pending = sorted(
            (self.store._jobs[i] for i in self._ids(PENDING)),
            key=Job.sort_key,
        )
        expected = next((j.job_id for j in pending if self._claimable(j)), None)
        claimed = self._call(claim_one, self.store, "w0")
        if self.store._jobs.get(expected) is None or claimed is None:
            assert claimed is None
            if expected is not None:
                # Only an injected write failure may stop the claim,
                # and it leaves the job running in memory.
                assert self.store._jobs[expected].status == RUNNING
            return
        assert claimed.job_id == expected
        assert claimed.status == RUNNING

    @precondition(lambda self: self._ids(RUNNING))
    @rule(pick=st.integers(min_value=0), cached=st.booleans())
    def update_progress(self, pick: int, cached: bool) -> None:
        job = self._pick((RUNNING,), pick)
        self._call(
            self.store.update_progress, job, 1, 1, run_id="run", cached=cached
        )

    @precondition(lambda self: self._ids(RUNNING))
    @rule(pick=st.integers(min_value=0), status=st.sampled_from(sorted(TERMINAL)))
    def finish(self, pick: int, status: str) -> None:
        job = self._pick((RUNNING,), pick)
        metrics = {"car": 1.0} if status == DONE else None
        error = {"type": "E", "message": "m", "traceback": ""} if (
            status == FAILED
        ) else None
        self._call(self.store.finish, job, status, metrics=metrics, error=error)
        assert job.status == status

    @precondition(lambda self: self._ids(PENDING, RUNNING))
    @rule(pick=st.integers(min_value=0))
    def cancel(self, pick: int) -> None:
        job = self._pick((PENDING, RUNNING), pick)
        was_pending = job.status == PENDING
        self._call(self.store.cancel, job.job_id)
        if was_pending:
            assert job.status == CANCELLED
        else:
            assert job.status == RUNNING and job.cancel_requested

    @precondition(lambda self: self._ids(*TERMINAL))
    @rule(pick=st.integers(min_value=0))
    def requeue(self, pick: int) -> None:
        job = self._pick(tuple(TERMINAL), pick)
        self._call(self.store.requeue, job.job_id)
        assert job.status == PENDING

    @precondition(lambda self: self._ids(RUNNING))
    @rule(pick=st.integers(min_value=0))
    def release(self, pick: int) -> None:
        job = self._pick((RUNNING,), pick)
        self._call(self.store.release, job)
        assert job.status == PENDING

    @rule()
    def reopen_recovering(self) -> None:
        self.fail_next_write = False
        self.store = JobStore(self.root, recover=True)
        self.dirty.clear()  # memory is now exactly what is on disk
        assert not self._ids(RUNNING)

    @rule()
    def fail_next_job_write(self) -> None:
        self.fail_next_write = True

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def index_equals_recount(self) -> None:
        index = {
            status: set(ids)
            for status, ids in self.store._by_status.items()
            if ids
        }
        recount = self._recount()
        done = recount.pop(DONE, set())
        assert index == recount
        assert self.store._done == len(done)

    @invariant()
    def counts_equal_recount(self) -> None:
        recount = {status: len(ids) for status, ids in self._recount().items()}
        assert self.store.counts() == recount

    @invariant()
    def reopened_store_holds_the_same_jobs(self) -> None:
        reopened = JobStore(self.root)
        live = self.store._jobs
        assert set(reopened._jobs) <= set(live)
        for job_id, job in live.items():
            if job_id in self.dirty:
                continue  # its last write failed on purpose
            assert reopened._jobs[job_id].to_dict() == job.to_dict()


TestJobStoreModel = JobStoreMachine.TestCase
TestJobStoreModel.settings = settings(
    max_examples=100,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
