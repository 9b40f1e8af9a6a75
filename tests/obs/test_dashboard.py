"""Dashboard model, frame renderer and offline journal replay."""

from __future__ import annotations

from repro import obs
from repro.obs import names
from repro.obs.dashboard import (
    BACKFILL,
    MAX_JOBS,
    DashboardModel,
    attach,
    refresh,
    render_frame,
    replay_frames,
    sweep_series,
)


def _sweep_payload(topic_key: str = "job-1"):
    topic = names.sweep_topic(topic_key)
    init = {
        "schema": 1,
        "experiment": "E7",
        "points": {},
        "counts": {"done": 0, "cached": 0, "total": 3},
        "status": "running",
    }
    return topic, init


def _event(job_id, event, status, kind=None, done=0, total=1, seq=0):
    """One queue-journal entry as the ``events`` feed returns it."""
    entry = {
        "seq": seq,
        "event": event,
        "job_id": job_id,
        "status": status,
        "experiment_id": "E7",
        "done_points": done,
        "total_points": total,
    }
    if kind is not None:
        entry["kind"] = kind
    return entry


class TestModel:
    def test_subscribe_then_poll_accumulates(self):
        topic, init = _sweep_payload()
        model = DashboardModel()
        model.apply_subscribe({topic: {"init": init, "seq": 1}})
        assert model.cursors == {topic: 1}
        model.apply_poll(
            {
                topic: {
                    "mods": [
                        {
                            "seq": 2,
                            "mod": {
                                "op": "set",
                                "key": "points.0",
                                "value": {"metrics": {"visibility_mean": 0.8}},
                            },
                        },
                        {
                            "seq": 3,
                            "mod": {
                                "op": "update",
                                "key": "counts",
                                "value": {"done": 1},
                            },
                        },
                    ],
                    "seq": 3,
                }
            }
        )
        assert model.cursors == {topic: 3}
        assert model.topics[topic]["counts"]["done"] == 1
        assert model.topics[topic]["points"]["0"]["metrics"] == {
            "visibility_mean": 0.8
        }
        assert topic not in model.gapped

    def test_gap_reply_replaces_snapshot_and_badges(self):
        topic, init = _sweep_payload()
        model = DashboardModel()
        model.apply_subscribe({topic: {"init": init, "seq": 1}})
        fresh = dict(init, status="done", counts={"done": 3, "total": 3})
        model.apply_poll(
            {topic: {"mods": [], "seq": 9, "init": fresh, "gap": True}}
        )
        assert model.topics[topic]["status"] == "done"
        assert model.cursors[topic] == 9
        assert topic in model.gapped

    def test_metrics_deltas_tracked_across_updates(self):
        client = _FakeClient([], head=0)
        model = DashboardModel()
        client.counters = {"engine.runs": 10}
        refresh(client, model, timeout=0.0)
        assert model.deltas == {}
        assert "(+" not in render_frame(model)
        client.counters = {"engine.runs": 14, "cache.hits": 2}
        refresh(client, model, timeout=0.0)
        assert model.deltas == {"engine.runs": 4.0, "cache.hits": 2.0}
        frame = render_frame(model)
        assert "engine.runs" in frame and "(+4)" in frame


class TestSweepSeries:
    def test_points_ordered_by_integer_index(self):
        snapshot = {
            "points": {
                "10": {"metrics": {"visibility_mean": 0.3}},
                "2": {"metrics": {"visibility_mean": 0.2}},
                "0": {"metrics": {"visibility_mean": 0.1}},
            }
        }
        series = dict(sweep_series(snapshot))
        assert series["visibility_mean"] == [0.1, 0.2, 0.3]

    def test_preferred_metrics_rank_first_and_cap_applies(self):
        metrics = {"zz": 1.0, "aa": 2.0, "visibility_mean": 0.9, "car": 7.0}
        snapshot = {"points": {"0": {"metrics": metrics}}}
        keys = [key for key, _ in sweep_series(snapshot, limit=3)]
        assert keys == ["visibility_mean", "car", "aa"]

    def test_empty_snapshot_has_no_series(self):
        assert sweep_series({}) == []
        assert sweep_series({"points": {}}) == []


class TestRenderFrame:
    def test_panels_render_deterministically(self):
        topic, init = _sweep_payload()
        model = DashboardModel()
        model.apply_health(
            {"workers": 2, "counts": {"running": 1, "pending": 2}}
        )
        model.apply_events(
            [
                _event(1, "submitted", "pending", kind="sweep", total=3),
                _event(1, "started", "running"),
                _event(1, "progress", "running", done=1, total=3),
            ],
            seq=3,
        )
        model.apply_subscribe({topic: {"init": init, "seq": 1}})
        model.fleet = _FakeClient([], head=0).fleet_status()
        model.apply_metrics({"counters": {"engine.runs": 3}})
        frame = render_frame(model)
        assert frame == render_frame(model)  # deterministic
        assert "repro dashboard (live)" in frame
        assert "┌ queue" in frame
        assert "workers 1/2 busy" in frame
        assert "job 1 sweep E7 running 1/3" in frame
        assert "┌ fleet" in frame
        assert "runners alive=1 lost=0 leases=1" in frame
        assert "runner-1" in frame and "busy=1" in frame
        assert "┌ sweep job-1 — E7" in frame
        assert "┌ metrics" in frame
        assert "engine.runs" in frame

    def test_gap_badge_on_lossy_topic(self):
        topic, init = _sweep_payload()
        model = DashboardModel()
        model.apply_subscribe({topic: {"init": init, "seq": 1}})
        model.gapped.add(topic)
        assert "[gap: resynced from snapshot]" in render_frame(model)


class TestQueueFold:
    def test_long_feed_holds_only_the_newest_jobs(self):
        model = DashboardModel()
        model.apply_health({"workers": 1, "counts": {"done": 4000}})
        lifecycle = [
            ("submitted", "pending", 0),
            ("started", "running", 0),
            ("done", "done", 1),
        ]
        events = [
            _event(job_id, event, status, kind="run", done=done, seq=seq)
            for seq, (job_id, (event, status, done)) in enumerate(
                ((job_id, step) for job_id in range(1, 4001)
                 for step in lifecycle),
                start=1,
            )
        ]
        assert len(events) >= 10_000
        for start in range(0, len(events), 700):
            chunk = events[start : start + 700]
            model.apply_events(chunk, seq=chunk[-1]["seq"])
            assert len(model.jobs) <= MAX_JOBS
        assert sorted(model.jobs) == list(range(4001 - MAX_JOBS, 4001))
        assert model.seq == len(events)
        # A transition of a job older than every held one is ignored.
        model.apply_events([_event(3, "requeued", "pending")], seq=12_001)
        assert 3 not in model.jobs
        frame = render_frame(model)
        assert "job 4000 run E7 done 1/1" in frame
        assert "[gap]" not in frame

    def test_gap_resyncs_and_badges_the_panel(self):
        model = DashboardModel()
        model.apply_health({"workers": 1, "counts": {"done": 2}})
        model.apply_events(
            [_event(1, "done", "done", kind="run"),
             _event(2, "done", "done", kind="run")],
            seq=2,
        )
        model.apply_events(
            [_event(9, "submitted", "pending", kind="run", seq=9)],
            seq=9,
            gap=True,
        )
        assert sorted(model.jobs) == [9]
        frame = render_frame(model)
        assert "┌ queue [gap]" in frame
        assert "job 9 run E7 pending 0/1" in frame
        assert "job 1 " not in frame

    def test_no_queue_panel_without_a_queue_feed(self):
        assert "┌ queue" not in render_frame(DashboardModel())


class _FakeClient:
    """The client methods the live cycle calls, over a scripted feed."""

    def __init__(self, events, head):
        self.events_feed = events
        self.head = head
        self.since: list[int] = []
        self.subscribed: list[object] = []
        self.polled: list[dict[str, int]] = []
        self.counters: dict[str, int] = {}

    def health(self):
        return {"workers": 2, "counts": {"pending": 1}, "seq": self.head}

    def fleet_status(self):
        runner = {
            "runner_id": "runner-1",
            "status": "alive",
            "host": "h",
            "pid": 7,
            "leases": [1],
            "completed": 3,
            "failed": 0,
        }
        return {
            "counts": {"alive": 1, "lost": 0, "leases": 1},
            "runners": [runner],
            "leases": [],
        }

    def metrics(self):
        return {"counters": dict(self.counters), "gauges": {}}

    def events(self, since, timeout=0.0):
        self.since.append(since)
        fresh = [e for e in self.events_feed if e["seq"] > since]
        return fresh, self.head, False

    def subscribe(self, topics):
        self.subscribed.append(topics)
        return {topic: {"init": {}, "seq": 0} for topic in topics}

    def poll_datasets(self, cursors, timeout=0.0):
        self.polled.append(dict(cursors))
        return {t: {"mods": [], "seq": seq} for t, seq in cursors.items()}


class TestLiveCycle:
    def test_attach_starts_inside_the_journal_tail(self):
        from repro.service.store import EVENT_BUFFER

        assert BACKFILL < EVENT_BUFFER
        client = _FakeClient([], head=50_000)
        attach(client, DashboardModel())
        assert client.since == [50_000 - BACKFILL]
        client = _FakeClient([], head=10)
        attach(client, DashboardModel())
        assert client.since == [0]

    def test_topics_are_subscribed_by_name_and_dropped(self):
        feed = [
            _event(1, "submitted", "pending", kind="sweep", total=4, seq=1),
            _event(2, "submitted", "pending", kind="run", seq=2),
        ]
        client = _FakeClient(feed, head=2)
        model = DashboardModel()
        attach(client, model)
        sweep_1 = names.sweep_topic("job-1")
        assert client.subscribed == [[sweep_1]]
        refresh(client, model, timeout=0.0)
        assert len(client.subscribed) == 1  # nothing new to subscribe
        # Newer jobs push sweep 1 out of the model and off the cursors.
        client.events_feed += [
            _event(job_id, "submitted", "pending", kind="run", seq=job_id)
            for job_id in range(3, 3 + MAX_JOBS)
        ]
        client.head = 2 + MAX_JOBS
        polls = len(client.polled)
        refresh(client, model, timeout=0.0)
        assert 1 not in model.jobs
        assert sweep_1 not in model.cursors
        assert all(isinstance(t, list) for t in client.subscribed)
        # No sweep is held any more, so the cycle polls no topic.
        assert client.polled[polls:] == []
        assert "job 8 run E7 pending" in render_frame(model)


class TestReplay:
    def _journaled_sweep(self, tmp_path):
        obs.configure(enabled=True, root=tmp_path)
        from repro.runtime.engine import RunEngine
        from repro.runtime.scan import ListScan

        engine = RunEngine(root=tmp_path)
        return engine.sweep(
            "E7",
            ListScan("pump_phase_rad", [0.0, 0.6, 1.2]),
            quick=True,
            seed=5,
        )

    def test_replay_reconstructs_finished_sweep(self, tmp_path):
        self._journaled_sweep(tmp_path)
        frames = list(replay_frames(tmp_path))
        assert len(frames) >= 4  # one per point + the final status frame
        model, last = frames[-1]
        assert model.source == "replay"
        assert "repro dashboard (replay)" in last
        topic = model.sweep_topics()[0]
        snapshot = model.topics[topic]
        assert snapshot["status"] == "done"
        assert snapshot["counts"]["done"] == 3
        assert sorted(snapshot["points"]) == ["0", "1", "2"]

    def test_replay_without_journal_is_empty_but_yields(self, tmp_path):
        frames = list(replay_frames(tmp_path))
        assert len(frames) == 1  # the final frame of an empty model
        assert "repro dashboard (replay)" in frames[0][1]


class TestCli:
    def test_dashboard_replay_once(self, tmp_path, capsys):
        TestReplay()._journaled_sweep(tmp_path)
        from repro.cli import main

        assert main(
            ["dashboard", "--replay", "--once", "--archive-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "repro dashboard (replay)" in out
        assert "visibility_mean" in out

    def test_dashboard_replay_empty_root_fails_with_hint(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        assert main(
            ["dashboard", "--replay", "--once", "--archive-dir", str(tmp_path)]
        ) == 1
        assert "REPRO_OBS=1" in capsys.readouterr().err
