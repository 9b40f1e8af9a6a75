"""JobStore's status index and per-transition cost.

Pins the O(1) bookkeeping of a cached job: ``Job.to_dict`` equals the
``dataclasses.asdict`` document it replaced, a submit → claim →
progress → finish cycle plus ``counts()`` never iterates the job table,
and health, drain and the unknown-job error read the index instead of
serialising every job.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ConfigurationError
from repro.service.api import ExperimentService
from repro.service.jobs import (
    CANCELLED,
    DONE,
    KIND_ANALYZE,
    KIND_RUN,
    KIND_SWEEP,
    PENDING,
    RUNNING,
    STATUSES,
    Job,
    _iso,
)
from repro.service.store import JobStore

from tests.service.workers import claim_one


@pytest.fixture
def root(tmp_path):
    """A fresh engine root for each test."""
    return tmp_path / "engine-root"


# ----------------------------------------------------------------------
# Job.to_dict against the asdict document it replaced
# ----------------------------------------------------------------------
def asdict_document(job: Job) -> dict[str, object]:
    """The job document as built through ``dataclasses.asdict`` (oracle)."""
    document = dataclasses.asdict(job)
    document["queued_at"] = _iso(job.submitted_unix)
    document["started_at"] = _iso(job.started_unix)
    document["finished_at"] = _iso(job.finished_unix)
    document["wait_s"] = job.wait_s
    document["run_s"] = job.run_s
    return document


scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=5) | (
    st.floats(allow_nan=False)
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
json_dicts = st.dictionaries(st.text(max_size=6), json_values, max_size=4)
stamps = st.floats(min_value=1.0, max_value=4e9)


@st.composite
def jobs(draw) -> Job:
    """Any well-formed job, with nested params/scan/metrics/error."""
    kind = draw(st.sampled_from([KIND_RUN, KIND_SWEEP, KIND_ANALYZE]))
    scan = None
    if kind == KIND_SWEEP:
        scan = draw(json_dicts)
        scan["type"] = "ListScan"
    return Job(
        job_id=draw(st.integers(min_value=1, max_value=10**6)),
        kind=kind,
        experiment_id=draw(st.sampled_from(["e6", "E7", "ANALYSIS"])),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        quick=draw(st.booleans()),
        params=draw(json_dicts),
        scan=scan,
        analysis_pipeline="car" if kind == KIND_ANALYZE else None,
        priority=draw(st.integers(min_value=-5, max_value=5)),
        status=draw(st.sampled_from(STATUSES)),
        cancel_requested=draw(st.booleans()),
        attempt=draw(st.integers(min_value=1, max_value=4)),
        submitted_unix=draw(stamps),
        started_unix=draw(st.none() | stamps),
        finished_unix=draw(st.none() | stamps),
        done_points=draw(st.integers(min_value=0, max_value=9)),
        total_points=draw(st.integers(min_value=1, max_value=9)),
        run_ids=draw(st.lists(st.text(max_size=8), max_size=3)),
        cached_points=draw(st.integers(min_value=0, max_value=9)),
        metrics=draw(st.none() | json_dicts),
        error=draw(st.none() | st.dictionaries(
            st.sampled_from(["type", "message", "traceback"]),
            st.text(max_size=8),
        )),
        runner_id=draw(st.none() | st.text(max_size=6)),
        runner_host=draw(st.none() | st.text(max_size=6)),
        runner_pid=draw(st.none() | st.integers(min_value=1, max_value=99999)),
    )


def mutate_every_container(value: object) -> None:
    """Grow every dict and list nested anywhere in ``value``."""
    if isinstance(value, dict):
        for item in list(value.values()):
            mutate_every_container(item)
        value["__mutated__"] = True
    elif isinstance(value, list):
        for item in value:
            mutate_every_container(item)
        value.append("__mutated__")


class TestToDict:
    @settings(max_examples=80, deadline=None)
    @given(job=jobs())
    def test_equals_the_asdict_document(self, job):
        document = job.to_dict()
        expected = asdict_document(job)
        assert document == expected
        assert list(document) == list(expected)
        assert json.dumps(document, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )

    @settings(max_examples=50, deadline=None)
    @given(job=jobs())
    def test_mutating_the_document_leaves_the_job(self, job):
        before = asdict_document(job)
        mutate_every_container(job.to_dict())
        assert asdict_document(job) == before

    def test_round_trips(self):
        job = Job(job_id=4, kind=KIND_RUN, experiment_id="E6",
                  params={"pump_mw": 3.0}, metrics={"car": 9.5})
        assert Job.from_dict(job.to_dict()) == job


# ----------------------------------------------------------------------
# No per-transition scan of the job table
# ----------------------------------------------------------------------
class IterationCountingDict(dict):
    """A dict that counts every iteration over it."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()

    def keys(self):
        self.iterations += 1
        return super().keys()

    def values(self):
        self.iterations += 1
        return super().values()

    def items(self):
        self.iterations += 1
        return super().items()


class TestNoScan:
    def test_cached_job_cycle_never_iterates_the_job_table(self, root):
        jobs_dir = root / "queue" / "jobs"
        jobs_dir.mkdir(parents=True)
        for job_id in range(1, 5001):
            job = Job(job_id=job_id, kind=KIND_RUN, experiment_id="E6",
                      quick=True, params={"pump_mw": 1.0 + job_id % 7},
                      status=DONE, submitted_unix=1.7e9)
            (jobs_dir / f"{job_id}.json").write_text(
                json.dumps(job.to_dict()), encoding="utf-8"
            )
        store = JobStore(root)
        assert store.counts() == {DONE: 5000}
        store._jobs = IterationCountingDict(store._jobs)

        job, deduped = store.submit("E6", quick=True, params={"pump_mw": 2.0})
        claimed = claim_one(store, "w0", identity=("local/w0", "host", 1))
        store.update_progress(claimed, 1, 1, run_id="run-1", cached=True)
        store.finish(claimed, DONE, metrics={"car": 1.0})
        counts = store.counts()

        assert not deduped and claimed.job_id == job.job_id == 5001
        assert counts == {DONE: 5001}
        assert store._jobs.iterations == 0

    def test_claim_that_rereads_a_changed_file_reindexes(self, root):
        # A second store finishes the job behind the first one's back:
        # the first store's claim folds the second's journal lines, skips
        # the job, and its index must follow the status it folded.
        first = JobStore(root)
        job, _ = first.submit("E6")
        second = JobStore(root)
        second.finish(claim_one(second, "w1"), DONE)
        assert claim_one(first, "w0") is None
        assert first.get(job.job_id).status == DONE
        assert first.counts() == {DONE: 1}
        assert first.jobs(PENDING) == []


# ----------------------------------------------------------------------
# Index-backed readers
# ----------------------------------------------------------------------
class TestIndexReaders:
    def test_counts_follow_every_transition(self, root):
        store = JobStore(root)
        first, _ = store.submit("E6", params={"pump_mw": 1.0})
        store.submit("E6", params={"pump_mw": 2.0})
        assert store.counts() == {PENDING: 2}
        claimed = claim_one(store, "w0")
        assert store.counts() == {PENDING: 1, RUNNING: 1}
        store.finish(claimed, DONE)
        store.cancel(store.jobs(PENDING)[0].job_id)
        assert store.counts() == {DONE: 1, CANCELLED: 1}
        store.requeue(first.job_id)
        assert store.counts() == {PENDING: 1, CANCELLED: 1}
        assert JobStore(root).counts() == store.counts()
        assert store.snapshot()["counts"] == store.counts()

    def test_jobs_by_status_in_claim_order(self, root):
        store = JobStore(root)
        low, _ = store.submit("E6", priority=0)
        high, _ = store.submit("E7", priority=9)
        assert [j.job_id for j in store.jobs(PENDING)] == [
            high.job_id, low.job_id
        ]
        assert store.jobs(DONE) == []

    def test_oldest_live_twin_wins(self, root):
        store = JobStore(root)
        first, _ = store.submit("E6", quick=True)
        store.submit("E6", quick=True, dedupe=False)
        twin, deduped = store.submit("E6", quick=True)
        assert deduped and twin.job_id == first.job_id

    def test_unknown_job_error_reports_count_and_range(self, root):
        store = JobStore(root)
        store.submit_batch([{"experiment_id": "E6"}] * 40)
        with pytest.raises(ConfigurationError) as error:
            store.get(404)
        message = str(error.value)
        assert message == "no job 404; 40 known, ids 1..40"
        with pytest.raises(ConfigurationError, match="none yet"):
            JobStore(root / "empty").get(1)

    def test_health_and_drain_never_snapshot(self, root, monkeypatch):
        monkeypatch.setenv(obs.OBS_ENV_VAR, "0")
        service = ExperimentService(root=root, port=0, use_processes=False)
        service.store.submit("E6", quick=True)

        def no_snapshot():
            raise AssertionError("snapshot() serialises every job")

        monkeypatch.setattr(service.store, "snapshot", no_snapshot)
        health = service.dispatch("health", {})
        assert health["counts"] == {PENDING: 1}
        assert service.store.wait_idle(timeout=0.1) is False
        service.store.cancel(1)
        assert service.store.wait_idle(timeout=1.0) is True
