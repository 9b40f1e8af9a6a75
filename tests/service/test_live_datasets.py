"""Live dataset streaming: publishers, the daemon RPCs, the acceptance bar.

The PR's acceptance criteria live here: two concurrent subscribers to a
live E7 sweep each receive the ``init`` snapshot plus every per-point
``mod`` in order (no gap) and reconstruct a final dataset byte-identical
to the daemon's, while a third subscriber stalled past the replay buffer
is resynchronised with ``gap: true`` and a fresh snapshot.
"""

from __future__ import annotations

import collections
import json
import threading

import pytest

from repro import obs
from repro.obs import names
from repro.obs.bus import apply_mod
from repro.service import datasets
from repro.service.api import ExperimentService
from repro.service.client import ServiceClient

SCAN = {
    "ty": "ListScan",
    "name": "pump_phase_rad",
    "values": [0.0, 0.4, 0.8, 1.2],
}


@pytest.fixture(autouse=True)
def _pristine_obs(monkeypatch):
    """The service auto-enables telemetry; keep it from leaking."""
    monkeypatch.delenv(obs.OBS_ENV_VAR, raising=False)
    obs.reset()
    yield
    obs.reset()


class TestSweepPublisher:
    def test_disabled_obs_yields_no_publisher(self):
        assert (
            datasets.SweepPublisher.for_local("E7", SCAN, 0, True, {}, 4)
            is None
        )

    def test_init_points_and_finish_flow(self):
        obs.configure(enabled=True)
        publisher = datasets.SweepPublisher.for_local(
            "E7", SCAN, seed=3, quick=True, params={}, total=2
        )
        publisher.point(
            0, {"pump_phase_rad": 0.0}, {"visibility_mean": 0.8},
            run_id="r0", cached=False,
        )
        publisher.point(
            1, {"pump_phase_rad": 0.4}, {"visibility_mean": 0.9},
            run_id="r1", cached=True,
        )
        publisher.finish("done", metrics={"visibility_mean": 0.9})
        snapshot = obs.state().bus.subscribe([publisher.topic])[
            publisher.topic
        ]["init"]
        assert snapshot["status"] == "done"
        assert snapshot["counts"] == {"done": 2, "cached": 1, "total": 2}
        assert snapshot["points"]["1"]["cached"] is True
        assert snapshot["points"]["0"]["metrics"] == {
            "visibility_mean": 0.8
        }
        assert snapshot["experiment"] == "E7"
        assert snapshot["job_id"] is None

    def test_engine_sweep_publishes_per_point(self, tmp_path):
        obs.configure(enabled=True)
        from repro.runtime.engine import RunEngine
        from repro.runtime.scan import ListScan

        engine = RunEngine(root=tmp_path)
        engine.sweep(
            "E7", ListScan("pump_phase_rad", [0.0, 0.6]), quick=True, seed=2
        )
        bus = obs.state().bus
        topics = [t for t in bus.topics() if t.startswith("datasets.sweep.")]
        assert len(topics) == 1
        snapshot = bus.subscribe(topics)[topics[0]]["init"]
        assert snapshot["status"] == "done"
        assert sorted(snapshot["points"]) == ["0", "1"]
        assert all(
            "visibility_mean" in p["metrics"]
            for p in snapshot["points"].values()
        )

    def test_failed_engine_sweep_publishes_failed(self, tmp_path):
        obs.configure(enabled=True)
        from repro.errors import ConfigurationError
        from repro.runtime.engine import RunEngine
        from repro.runtime.scan import ListScan

        engine = RunEngine(root=tmp_path)
        with pytest.raises(ConfigurationError):
            engine.sweep("E7", ListScan("dwell_s", [5.0, -1.0]), quick=True)
        bus = obs.state().bus
        topics = [t for t in bus.topics() if t.startswith("datasets.sweep.")]
        snapshot = bus.subscribe(topics)[topics[0]]["init"]
        # Terminal, so a journal replay does not show it running forever.
        assert snapshot["status"] == "failed"
        assert snapshot["counts"]["done"] == 1


class TestQueueFeed:
    def test_store_transitions_reach_the_queue_panel(self, tmp_path):
        obs.configure(enabled=True)
        from repro.obs.dashboard import DashboardModel, render_frame
        from repro.service.store import JobStore

        store = JobStore(tmp_path)
        job, _ = store.submit("E6", quick=True, params={"pump_mw": 2.0})
        model = DashboardModel()
        model.apply_health({"workers": 2, "counts": store.counts()})
        events, gap = store.wait_events(0)
        model.apply_events(events, store.seq, gap)
        assert model.jobs[job.job_id]["status"] == "pending"
        assert model.jobs[job.job_id]["kind"] == "run"
        frame = render_frame(model)
        assert "workers 0/2 busy" in frame
        assert f"job {job.job_id} run E6 pending 0/1" in frame
        # The transition's one record is the journal line, not the bus.
        assert obs.state().bus.topics() == []


class _Subscriber(threading.Thread):
    """One concurrent poller reconstructing a sweep topic client-side."""

    def __init__(self, url: str, topic: str, done: threading.Event):
        super().__init__(daemon=True)
        self.client = ServiceClient(url)
        self.topic = topic
        self.done = done
        self.snapshot: dict[str, object] = {}
        self.seen_seqs: list[int] = []
        self.inits = 0
        self.gaps = 0
        self.error: BaseException | None = None

    def run(self):
        try:
            cursor = self.client.subscribe([self.topic])[self.topic]["seq"]
            while True:
                reply = self.client.poll_datasets(
                    {self.topic: cursor}, timeout=5.0
                ).get(self.topic, {})
                if reply.get("gap"):
                    self.gaps += 1
                if isinstance(reply.get("init"), dict):
                    self.inits += 1
                    self.snapshot = reply["init"]
                for mod in reply.get("mods", []):
                    self.seen_seqs.append(mod["seq"])
                    apply_mod(self.snapshot, mod["mod"])
                cursor = reply.get("seq", cursor)
                if self.snapshot.get("status") in ("done", "failed"):
                    self.done.set()
                    return
        except BaseException as error:  # surfaced by the main thread
            self.error = error
            self.done.set()


class TestLiveSweepAcceptance:
    @pytest.fixture
    def service(self, tmp_path):
        svc = ExperimentService(
            root=tmp_path / "engine-root", port=0, workers=1,
            use_processes=False,
        )
        svc.start()
        yield svc
        svc.stop()

    def test_two_subscribers_stream_ordered_diffs(self, service):
        client = ServiceClient.discover(service.root)
        url = client.url
        # Jobs number from 1 per store, so the first sweep's topic is
        # known before submission — subscribe first, then submit.
        topic = names.sweep_topic(datasets.job_key(1))
        flags = [threading.Event(), threading.Event()]
        watchers = [_Subscriber(url, topic, flag) for flag in flags]
        for watcher in watchers:
            watcher.start()
        job = client.submit("E7", quick=True, scan=SCAN, seed=7)
        assert job["job_id"] == 1
        client.wait(job["job_id"], timeout=120.0)
        for watcher in watchers:
            assert watcher.done.wait(timeout=30.0)
            watcher.join(timeout=5.0)
            if watcher.error is not None:
                raise watcher.error

        live = client.subscribe([topic])[topic]["init"]
        for watcher in watchers:
            assert watcher.gaps == 0
            # Exactly one snapshot delivery (the topic's birth resync),
            # then strictly consecutive per-point mods.
            assert watcher.inits == 1
            assert watcher.seen_seqs == sorted(watcher.seen_seqs)
            assert all(
                b - a == 1
                for a, b in zip(watcher.seen_seqs, watcher.seen_seqs[1:])
            )
            # Byte-identical reconstruction of the daemon's final state.
            assert json.dumps(watcher.snapshot, sort_keys=True) == (
                json.dumps(live, sort_keys=True)
            )
        assert live["status"] == "done"
        assert live["counts"]["done"] == 4
        assert sorted(live["points"]) == ["0", "1", "2", "3"]

        # The streamed per-point metrics match the archived runs.
        from repro.analysis.index import ArchiveIndex

        index = ArchiveIndex(service.root)
        for point in live["points"].values():
            entry = index.get(point["run_id"])
            assert entry is not None
            assert entry["metrics"] == point["metrics"]

    def test_stalled_subscriber_resyncs_with_gap(self, service):
        client = ServiceClient.discover(service.root)
        topic = names.sweep_topic(datasets.job_key(1))
        stale = client.subscribe([topic])[topic]["seq"]  # 0: pre-birth
        job = client.submit("E7", quick=True, scan=SCAN, seed=9)
        client.wait(job["job_id"], timeout=120.0)
        # Starve the replay buffer below the published history: the
        # stale cursor resyncs from the snapshot (the journal is not
        # consulted, though it still mirrors every publish).
        bus = obs.state().bus
        record = bus._topics[topic]
        record.mods = collections.deque(list(record.mods)[-1:], maxlen=1)
        reply = client.poll_datasets({topic: stale + 1}, timeout=5.0)[topic]
        assert reply["gap"] is True
        assert reply["mods"] == []
        assert reply["init"]["status"] == "done"
        assert reply["seq"] == record.seq
        # The resynced cursor polls clean from here on.
        follow = client.poll_datasets({topic: reply["seq"]}, timeout=0.2)
        assert follow[topic] == {"mods": [], "seq": reply["seq"]}

    def test_queue_panel_and_metrics_on_daemon(self, service):
        from repro.obs.dashboard import (
            DashboardModel,
            attach,
            refresh,
            render_frame,
        )

        client = ServiceClient.discover(service.root)
        job = client.submit("E6", quick=True, params={"pump_mw": 3.0})
        client.wait(job["job_id"], timeout=60.0)
        model = DashboardModel()
        attach(client, model)
        assert model.workers == 1
        assert model.jobs[job["job_id"]]["status"] == "done"
        frame = render_frame(model)
        assert f"job {job['job_id']} run E6 done 1/1" in frame
        # The fleet and metrics panels read their RPCs, not the bus.
        assert "┌ fleet" in frame and "runners alive=1" in frame
        assert "┌ metrics" in frame
        assert model.metrics["counters"], "the first job counted something"
        again = client.submit("E6", quick=True, params={"pump_mw": 3.0})
        client.wait(again["job_id"], timeout=60.0)
        refresh(client, model, timeout=0.0)
        assert model.deltas, "the second job moved some counter"
        assert "(+" in render_frame(model)

    def test_subscriptions_take_sweep_topics_only(self, service):
        from repro.errors import ConfigurationError

        client = ServiceClient.discover(service.root)
        # An older client asking for a deleted topic gets a 400, which
        # the client raises as ConfigurationError, like any bad param.
        for name in ("metrics.registry", "fleet.state", "no.such.topic"):
            with pytest.raises(ConfigurationError, match="datasets.sweep"):
                client.subscribe([name])
            with pytest.raises(ConfigurationError, match="datasets.sweep"):
                client.poll_datasets({name: 0})
        with pytest.raises(ConfigurationError, match="non-empty"):
            client.subscribe([])
        # A sweep topic subscribes at seq 0 before its job exists.
        topic = names.sweep_topic(datasets.job_key(9))
        assert client.subscribe([topic]) == {topic: {"init": {}, "seq": 0}}

    def test_bus_holds_no_job_state_after_fifty_jobs(self, service):
        client = ServiceClient.discover(service.root)
        jobs = [
            client.submit("E6", quick=True, params={"pump_mw": 2.0 + n / 10})
            for n in range(50)
        ]
        for job in jobs:
            assert client.wait(job["job_id"], timeout=60.0)["status"] == "done"
        assert obs.state().bus.topics() == []


class TestQueuePanelWithoutTelemetry:
    def test_dashboard_frame_under_repro_obs_0(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(obs.OBS_ENV_VAR, "0")
        obs.reset()
        service = ExperimentService(
            root=tmp_path / "engine-root", port=0, workers=1,
            use_processes=False,
        )
        service.start()
        try:
            assert not obs.enabled()
            client = ServiceClient.discover(service.root)
            job = client.submit("E7", quick=True, scan=SCAN, seed=7)
            finished = client.wait(job["job_id"], timeout=120.0)
            assert finished["status"] == "done"
            from repro.cli import main

            assert main(
                ["dashboard", "--once", "--archive-dir", str(service.root)]
            ) == 0
        finally:
            service.stop()
        frame = capsys.readouterr().out
        assert "┌ queue" in frame
        assert "workers 0/1 busy" in frame
        assert "done=1" in frame
        assert "job 1 sweep E7 done 4/4" in frame
        # The fleet panel reads ``fleet.status``, so it shows too.
        assert "┌ fleet" in frame
        assert "runners alive=1" in frame


class TestEventFeedPartialCompaction:
    """A journal that lost only its *early* span still flags the gap."""

    def test_partial_journal_loss_gaps_then_delivers_tail(self, tmp_path):
        service = ExperimentService(
            root=tmp_path / "engine-root", port=0, workers=1,
            use_processes=False,
        )
        service.start()
        try:
            client = ServiceClient.discover(service.root)
            job = client.submit("E6", quick=True, params={"pump_mw": 2.0})
            client.wait(job["job_id"], timeout=60.0)
            store = service.store
            with store._lock:
                # Rotation dropped everything before the final event:
                # tail empty, journal keeps only the newest line.
                tail = store.journal._tail[-1]
                store.journal._tail.clear()
                store.journal_path.write_text(
                    json.dumps(tail, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
            events, latest, gap = client.events(0, timeout=2.0)
            assert gap is True
            assert [e["seq"] for e in events] == [tail["seq"]]
            assert latest == tail["seq"]
            # The jumped cursor does not re-report the gap.
            events, latest, gap = client.events(latest, timeout=0.2)
            assert events == [] and not gap
        finally:
            service.stop()
