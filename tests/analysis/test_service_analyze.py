"""Analyze jobs through the service: queueing, progress, payload parity."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime.engine import RunEngine
from repro.service.jobs import CANCELLED, DONE, KIND_ANALYZE, Job
from repro.service.store import JobStore

from tests.analysis.test_index import archive_run
from tests.service.workers import claim_one, local_workers


@pytest.fixture
def root(tmp_path):
    return tmp_path / "engine-root"


@pytest.fixture
def harness(root):
    """(store, engine, runner): the master's workers, in-thread compute."""
    store = JobStore(root, recover=True)
    engine = RunEngine(root=root)
    with local_workers(store, engine) as runner:
        yield store, engine, runner


class TestJobModel:
    def test_analyze_job_needs_pipeline(self):
        with pytest.raises(ConfigurationError, match="pipeline"):
            Job(job_id=1, kind=KIND_ANALYZE, experiment_id="ANALYSIS")

    def test_run_job_must_not_carry_pipeline(self):
        with pytest.raises(ConfigurationError, match="analysis pipeline"):
            Job(
                job_id=1,
                kind="run",
                experiment_id="E6",
                analysis_pipeline="car",
            )

    def test_round_trips_through_dict(self):
        job = Job(
            job_id=3,
            kind=KIND_ANALYZE,
            experiment_id="ANALYSIS",
            analysis_pipeline="paper-summary",
        )
        rebuilt = Job.from_dict(job.to_dict())
        assert rebuilt.analysis_pipeline == "paper-summary"
        assert rebuilt.kind == KIND_ANALYZE
        assert "paper-summary" in job.label()


class TestSubmission:
    def test_analyze_submission_enqueues(self, root):
        store = JobStore(root)
        job, deduped = store.submit("", analysis="car")
        assert not deduped
        assert job.kind == KIND_ANALYZE
        assert job.experiment_id == "ANALYSIS"
        assert job.analysis_pipeline == "car"

    def test_live_analyze_twin_dedupes(self, root):
        store = JobStore(root)
        first, _ = store.submit("", analysis="car")
        twin, deduped = store.submit("", analysis="car")
        assert deduped and twin.job_id == first.job_id
        other, deduped = store.submit("", analysis="visibility")
        assert not deduped and other.job_id != first.job_id

    def test_running_twin_does_not_dedupe(self, root):
        """A running analyze job already snapshotted the archive; a new
        submission must queue its own job, not be answered stale."""
        store = JobStore(root)
        first = claim_one(store, "w0")
        assert first is None
        pending, _ = store.submit("", analysis="car")
        claimed = claim_one(store, "w0")
        assert claimed is not None and claimed.job_id == pending.job_id
        fresh, deduped = store.submit("", analysis="car")
        assert not deduped and fresh.job_id != pending.job_id

    def test_scan_and_analysis_together_rejected(self, root):
        store = JobStore(root)
        with pytest.raises(ConfigurationError, match="not both"):
            store.submit(
                "E6",
                scan={"type": "LinearScan", "name": "pump_mw",
                      "start": 1, "stop": 2, "npoints": 2},
                analysis="car",
            )


class TestSchedulerExecution:
    def test_analyze_job_runs_pipeline_and_writes_report(
        self, harness, root
    ):
        store, engine, _ = harness
        for mw, car in ((2.0, 11.0), (4.0, 7.0)):
            archive_run(
                engine,
                "E5",
                params={"pump_mw": mw},
                metrics={"pump_total_mw": mw, "car": car, "car_error": 1.0},
            )
        job, _ = store.submit("", analysis="car")
        assert store.wait_idle(30.0)
        finished = store.get(job.job_id)
        assert finished.status == DONE
        assert finished.done_points == finished.total_points == 1
        assert finished.metrics["analyzers"] == 1.0

        from repro.analysis.report import load_report

        report = load_report(root, "car")
        outputs = report["analyzers"][0]["outputs"]
        assert outputs["num_runs"] == 2
        assert outputs["fit"] is not None

    def test_service_report_payload_identical_to_local_run(
        self, harness, root
    ):
        """The acceptance criterion: the same pipeline through the
        service returns the identical report payload."""
        store, engine, _ = harness
        archive_run(
            engine,
            "E7",
            metrics={"visibility_mean": 0.85, "visibility_min": 0.83},
        )
        # Local run first (also populates the analysis cache).
        from repro.analysis.pipelines import PipelineRunner
        from repro.analysis.report import build_report, load_report

        local = build_report(PipelineRunner(root).run("visibility"))

        job, _ = store.submit("", analysis="visibility")
        assert store.wait_idle(30.0)
        assert store.get(job.job_id).status == DONE
        # Served from the analysis cache: zero recompute, same payload.
        assert store.get(job.job_id).metrics["cached_analyzers"] == 1.0
        assert load_report(root, "visibility") == local

    def test_cancel_pending_analyze_job(self, root):
        store = JobStore(root)
        job, _ = store.submit("", analysis="paper-summary")
        store.cancel(job.job_id)
        assert store.get(job.job_id).status == CANCELLED

    def test_progress_streams_per_analyzer(self, harness, root):
        store, engine, _ = harness
        job, _ = store.submit("", analysis="paper-summary")
        assert store.wait_idle(60.0)
        finished = store.get(job.job_id)
        assert finished.status == DONE
        assert finished.total_points == 4  # four analyzers in the pipeline
        assert finished.done_points == 4


class TestApiValidation:
    def test_unknown_pipeline_rejected_at_submit(self, root):
        from repro.service.api import ExperimentService

        service = ExperimentService(root=root, workers=1, use_processes=False)
        host, port = service.start()
        try:
            from repro.errors import ReproError
            from repro.service.client import ServiceClient

            client = ServiceClient(f"http://{host}:{port}")
            with pytest.raises(ReproError, match="unknown pipeline"):
                client.submit(analysis="nope")
            with pytest.raises(ReproError, match="experiment id"):
                client.submit()
            job = client.submit(analysis="car")
            assert job["kind"] == KIND_ANALYZE
            done = client.wait(job["job_id"], timeout=30.0)
            assert done["status"] == "done"
            document = client.result(job["job_id"])
            assert document["report"]["pipeline"] == "car"
        finally:
            service.stop()
