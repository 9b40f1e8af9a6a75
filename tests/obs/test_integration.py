"""Telemetry end to end: engine, workers, service RPC, job timing."""

from __future__ import annotations

import time

from repro import obs
from repro.fleet.coordinator import FleetCoordinator
from repro.obs import names
from repro.obs.dashboard import MAX_JOBS
from repro.obs.journal import read_events
from repro.obs.render import render_trace, select_traces
from repro.runtime.engine import RunEngine
from repro.runtime.scan import ListScan
from repro.service.datasets import job_key
from repro.service.store import JobStore
from repro.utils import journal

from tests.service.workers import local_workers, workers_for


def enabled_engine(root):
    """An engine with telemetry recording into its root's journal."""
    obs.configure(enabled=True)
    return RunEngine(root=root)


class TestEngineTelemetry:
    def test_run_journals_lifecycle_and_counts(self, tmp_path):
        engine = enabled_engine(tmp_path)
        outcome = engine.run("E6", quick=True, params={"pump_mw": 4.0})
        entries = read_events(tmp_path)
        finished = [
            e for e in entries if e["name"] == names.EVENT_RUN_FINISHED
        ]
        assert len(finished) == 1
        assert finished[0]["attrs"]["run_id"] == outcome.run_id
        snapshot = obs.snapshot()
        assert snapshot["counters"]["engine.runs"] == 1
        assert snapshot["counters"]["cache.miss"] == 1
        assert snapshot["histograms"]["engine.run_seconds"]["count"] == 1

    def test_cached_rerun_counts_hit_not_run(self, tmp_path):
        engine = enabled_engine(tmp_path)
        engine.run("E6", quick=True, params={"pump_mw": 4.0})
        cached = engine.run("E6", quick=True, params={"pump_mw": 4.0})
        assert cached.cached
        snapshot = obs.snapshot()
        assert snapshot["counters"]["cache.hit"] == 1
        assert snapshot["counters"]["engine.runs"] == 1

    def test_run_trace_tree_renders_from_journal(self, tmp_path):
        engine = enabled_engine(tmp_path)
        outcome = engine.run("E6", quick=True, params={"pump_mw": 4.0})
        spans = select_traces(read_events(tmp_path), outcome.run_id)
        tree = render_trace(spans)
        assert names.SPAN_ENGINE_RUN in tree
        assert names.SPAN_ENGINE_ARCHIVE in tree
        assert outcome.run_id in tree

    def test_pool_sweep_replays_worker_spans(self, tmp_path):
        obs.configure(enabled=True)
        engine = RunEngine(root=tmp_path, max_workers=2)
        engine.sweep(
            "E6",
            ListScan("pump_mw", [2.0, 3.0]),
            quick=True,
        )
        spans = [
            e for e in read_events(tmp_path) if e["kind"] == "span"
        ]
        pool_spans = [
            s for s in spans if s["name"] == names.SPAN_POOL_EXECUTE
        ]
        assert len(pool_spans) == 2
        sweep_span = next(
            s for s in spans if s["name"] == names.SPAN_ENGINE_SWEEP
        )
        for span in pool_spans:
            assert span["span_id"].startswith("w")
            assert span["trace_id"] == sweep_span["trace_id"]

    def test_disabled_engine_writes_no_journal(self, tmp_path):
        engine = RunEngine(root=tmp_path)
        engine.run("E6", quick=True, params={"pump_mw": 4.0})
        assert read_events(tmp_path) == []


class TestSchedulerTelemetry:
    def drain_one_job(self, root):
        """Submit one quick job and drain it on a worker thread."""
        store = JobStore(root)
        engine = enabled_engine(root)
        job, _ = store.submit("E6", quick=True, params={"pump_mw": 5.0})
        with local_workers(store, engine, workers=1):
            assert store.wait_idle(60.0)
        return store, job

    def test_job_transitions_mirrored_into_journal(self, tmp_path):
        store, job = self.drain_one_job(tmp_path)
        # The queue journal is each transition's one durable record, in
        # lifecycle order on disk; the telemetry journal keeps no copy.
        entries, skipped = journal.read(store.journal_path)
        lifecycle = [
            e["event"]
            for e in entries
            if e["job_id"] == job.job_id and e["event"] != "progress"
        ]
        assert lifecycle == ["submitted", "started", "done"]
        assert skipped == 0
        assert [e["seq"] for e in entries] == list(range(1, store.seq + 1))
        assert "job.transition" not in {
            e["name"] for e in read_events(tmp_path)
        }

    def test_job_document_carries_queue_timing(self, tmp_path):
        store, job = self.drain_one_job(tmp_path)
        document = store.get(job.job_id).to_dict()
        assert document["status"] == "done"
        for key in ("queued_at", "started_at", "finished_at"):
            assert document[key].endswith("Z")
        assert document["wait_s"] >= 0.0
        assert document["run_s"] >= 0.0
        snapshot = obs.snapshot()
        assert snapshot["counters"]["jobs.finished{status=done}"] == 1
        assert snapshot["histograms"]["queue.wait_seconds"]["count"] == 1
        span_names = {
            e["name"]
            for e in read_events(tmp_path)
            if e["kind"] == "span"
        }
        assert names.SPAN_FLEET_EXECUTE in span_names


class TestJobCounts:
    def test_every_ended_job_is_counted_once(self, tmp_path):
        # Jobs end in five ways: served at submission, served at a
        # claim, run by a runner outside this process, run by the
        # master's workers (one of them failing), cancelled pending.
        engine = enabled_engine(tmp_path)
        engine.run("E6", quick=True, params={"pump_mw": 2.0})
        store = JobStore(tmp_path)
        warm = {"experiment_id": "E6", "quick": True,
                "params": {"pump_mw": 2.0}}
        _, deduped = store.submit(**warm, engine=engine)
        assert deduped
        store.submit(**warm, dedupe=False)
        store.submit("E6", quick=True, params={"pump_mw": 5.0})
        fleet = FleetCoordinator(store, engine)
        remote = workers_for(store, engine, fleet=fleet)
        remote.pid += 1  # registers as a runner in another process
        assert remote.run(max_jobs=1) == 1
        store.submit("E6", quick=True, params={"pump_mw": 6.0})
        store.submit("E7", quick=True, params={"dwell_s": -1.0})
        cancelled, _ = store.submit("E6", quick=True, priority=-1)
        store.cancel(cancelled.job_id)
        with local_workers(store, engine, fleet=fleet):
            assert store.wait_idle(60.0)
        ended = [job for job in store.jobs() if job.is_terminal]
        assert len(ended) == len(store.jobs()) == 6
        snapshot = obs.snapshot()
        finished = {
            key: value
            for key, value in snapshot["counters"].items()
            if key.startswith(names.METRIC_JOBS_FINISHED)
        }
        assert finished == {
            "jobs.finished{status=cancelled}": 1,
            "jobs.finished{status=done}": 4,
            "jobs.finished{status=failed}": 1,
        }
        waits = snapshot["histograms"][names.METRIC_QUEUE_WAIT_SECONDS]
        assert waits["count"] == 5  # the cancelled job never started


class TestSweepTopics:
    SCAN = ListScan("pump_mw", [2.0, 4.0]).describe()

    def test_ended_sweeps_leave_the_bus(self, tmp_path):
        engine = enabled_engine(tmp_path)
        store = JobStore(tmp_path)
        store.submit_batch(
            [{"experiment_id": "E6", "quick": True, "scan": self.SCAN}] * 50
        )
        with local_workers(store, engine):
            assert store.wait_idle(120.0)
        sweeps = [
            topic
            for topic in obs.state().bus.topics()
            if topic.startswith(names.TOPIC_SWEEP_PREFIX)
        ]
        # Nothing is live: only the newest ended sweeps are kept.
        assert len(sweeps) == MAX_JOBS
        last = max(store.jobs(), key=lambda job: job.finished_unix)
        assert names.sweep_topic(job_key(last.job_id)) in sweeps

    def test_dashboard_draws_a_sweep_that_just_ended(self, tmp_path, capsys):
        from repro.cli import main
        from repro.service.api import ExperimentService

        obs.configure(enabled=True)
        service = ExperimentService(
            root=tmp_path, workers=1, use_processes=False
        )
        service.start()
        try:
            for _ in range(MAX_JOBS + 2):
                job = service.dispatch(
                    "submit",
                    {"experiment": "E6", "quick": True, "scan": self.SCAN},
                )["job"]
                assert service.store.wait_job(job["job_id"], 60.0).is_terminal
            assert main(
                ["dashboard", "--once", "--archive-dir", str(tmp_path)]
            ) == 0
        finally:
            service.stop()
        frame = capsys.readouterr().out
        # Every sweep the queue panel holds still has its panel.
        for job_id in range(job["job_id"] - MAX_JOBS + 1, job["job_id"] + 1):
            panel = frame.split(f"sweep {job_key(job_id)} — E6")[1]
            assert panel.splitlines()[1].startswith("│ done 2/2 points")


class TestServiceTelemetry:
    def test_metrics_rpc_and_rpc_spans(self, tmp_path):
        from repro.service.api import ExperimentService
        from repro.service.client import ServiceClient

        service = ExperimentService(
            root=tmp_path, port=0, workers=1, use_processes=False
        )
        host, port = service.start()
        try:
            client = ServiceClient(f"http://{host}:{port}")
            job = client.submit("E6", quick=True, params={"pump_mw": 6.0})
            finished = client.wait(job["job_id"], timeout=60.0)
            assert finished["status"] == "done"
            assert finished["wait_s"] is not None
            snapshot = client.metrics()
            counters = snapshot["counters"]
            assert counters["rpc.requests{method=submit,ok=True}"] == 1
            assert counters["jobs.finished{status=done}"] == 1
            assert snapshot["journal_seq"] > 0
            assert "rpc.request_seconds{method=submit}" in (
                snapshot["histograms"]
            )
        finally:
            service.stop()
        span_names = [
            e["name"]
            for e in read_events(tmp_path)
            if e["kind"] == "span"
        ]
        assert names.SPAN_RPC_REQUEST in span_names

    def test_env_opt_out_keeps_daemon_dark(self, tmp_path, monkeypatch):
        from repro.service.api import ExperimentService

        monkeypatch.setenv(obs.OBS_ENV_VAR, "0")
        obs.reset()
        service = ExperimentService(
            root=tmp_path, port=0, workers=1, use_processes=False
        )
        service.start()
        try:
            assert not obs.enabled()
        finally:
            service.stop()
        assert read_events(tmp_path) == []


class TestAnalysisTelemetry:
    def test_pipeline_events_and_analyzer_counts(self, tmp_path):
        from repro.analysis.pipelines import PipelineRunner

        engine = enabled_engine(tmp_path)
        engine.run("E7", quick=True)
        runner = PipelineRunner(tmp_path)
        result = runner.run("visibility")
        assert result.completed
        entries = read_events(tmp_path)
        assert any(
            e["name"] == names.EVENT_PIPELINE_FINISHED
            and e["attrs"]["pipeline"] == "visibility"
            for e in entries
        )
        assert any(
            e["name"] == names.EVENT_ANALYZER_FINISHED for e in entries
        )
        counters = obs.snapshot()["counters"]
        assert counters["analysis.analyzers{cached=False}"] == 1
        # A cache-served rerun counts under the cached label.
        runner.run("visibility")
        counters = obs.snapshot()["counters"]
        assert counters["analysis.analyzers{cached=True}"] == 1


def test_snapshot_is_json_native(tmp_path):
    engine = enabled_engine(tmp_path)
    engine.run("E6", quick=True, params={"pump_mw": 4.0})
    import json

    json.dumps(obs.snapshot(), sort_keys=True)
    before = time.time()
    assert all(
        e["unix"] <= before + 60.0 for e in read_events(tmp_path)
    )
