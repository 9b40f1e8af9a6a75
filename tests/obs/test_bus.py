"""Dataset-bus semantics: diffs, cursors, replay, gaps, resync."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import names
from repro.obs.bus import REPLAY_BUFFER, DatasetBus, apply_mod

#: A sweep topic the cases below use as a generic one.
TOPIC = names.sweep_topic("t")


class TestApplyMod:
    def test_set_creates_nested_path(self):
        snapshot = {}
        apply_mod(snapshot, {"op": "set", "key": "points.3", "value": {"a": 1}})
        assert snapshot == {"points": {"3": {"a": 1}}}

    def test_append_and_update(self):
        # ``update`` merges into the slot; ``append`` is not an op and
        # leaves the snapshot as it was.
        snapshot = {"log": [1], "counts": {"done": 0, "total": 4}}
        apply_mod(
            snapshot, {"op": "update", "key": "counts", "value": {"done": 1}}
        )
        with pytest.raises(ValueError):
            apply_mod(snapshot, {"op": "append", "key": "log", "value": 2})
        assert snapshot == {"log": [1], "counts": {"done": 1, "total": 4}}

    def test_empty_key_update_merges_root(self):
        snapshot = {"status": "running", "x": 1}
        apply_mod(snapshot, {"op": "update", "key": "", "value": {"status": "done"}})
        assert snapshot == {"status": "done", "x": 1}

    def test_unknown_op_and_bad_root_update_raise(self):
        with pytest.raises(ValueError):
            apply_mod({}, {"op": "delete", "key": "x"})
        with pytest.raises(ValueError):
            apply_mod({}, {"op": "append", "key": "x", "value": 2})
        with pytest.raises(ValueError):
            apply_mod({}, {"op": "set", "key": "", "value": {"x": 1}})


class TestTopicRegistry:
    def test_known_topics_accepted(self):
        bus = DatasetBus()
        assert bus.publish_init(names.sweep_topic("job-1"), {}) == 1
        assert bus.subscribe([names.sweep_topic("job-9")]) == {
            names.sweep_topic("job-9"): {"init": {}, "seq": 0}
        }

    def test_unregistered_topic_rejected(self):
        bus = DatasetBus()
        with pytest.raises(ConfigurationError):
            bus.publish_init("weather.report", {})
        # Only sweep topics exist (the fleet and metrics are RPCs), on
        # every entry point, and the bare family prefix is no topic.
        for name in ("metrics.registry", "fleet.state", "datasets.sweep."):
            with pytest.raises(ConfigurationError, match="datasets.sweep"):
                bus.subscribe([name])
            with pytest.raises(ConfigurationError):
                bus.poll({name: 0})


class TestBusCore:
    def test_init_and_mods_share_one_seq_stream(self):
        bus = DatasetBus()
        topic = names.sweep_topic("t")
        assert bus.publish_init(topic, {"points": {}}) == 1
        assert bus.publish_mod(
            topic, {"op": "set", "key": "points.0", "value": {"a": 1}}
        ) == 2
        entry = bus.subscribe([topic])[topic]
        assert entry["seq"] == 2
        assert entry["init"] == {"points": {"0": {"a": 1}}}

    def test_poll_returns_exactly_the_missed_mods_in_order(self):
        bus = DatasetBus()
        topic = names.sweep_topic("t")
        bus.publish_init(topic, {"points": {}})
        for index in range(5):
            bus.publish_mod(
                topic,
                {"op": "set", "key": f"points.{index}", "value": {"i": index}},
            )
        reply = bus.poll({topic: 3})[topic]
        assert "gap" not in reply and "init" not in reply
        assert [m["seq"] for m in reply["mods"]] == [4, 5, 6]
        assert reply["seq"] == 6

    def test_current_cursor_yields_no_mods_and_no_resync(self):
        bus = DatasetBus()
        bus.publish_init(TOPIC, {})
        reply = bus.poll({TOPIC: 1})
        assert reply[TOPIC] == {"mods": [], "seq": 1}

    def test_subscriber_reconstruction_matches_live_snapshot(self):
        bus = DatasetBus()
        topic = names.sweep_topic("t")
        bus.publish_init(topic, {"points": {}, "counts": {"done": 0}})
        entry = bus.subscribe([topic])[topic]
        mine, cursor = dict(entry["init"]), entry["seq"]
        for index in range(4):
            bus.publish_mod(
                topic, {"op": "set", "key": f"points.{index}", "value": index}
            )
            bus.publish_mod(
                topic,
                {"op": "update", "key": "counts", "value": {"done": index + 1}},
            )
        reply = bus.poll({topic: cursor})[topic]
        for mod in reply["mods"]:
            apply_mod(mine, mod["mod"])
        assert mine == bus.subscribe([topic])[topic]["init"]

    def test_reinit_supersedes_without_gap(self):
        # A fresh init makes older cursors stale, not lossy: the new
        # snapshot *contains* everything the missed mods built.
        bus = DatasetBus()
        bus.publish_init(TOPIC, {"jobs": {}})
        bus.publish_mod(TOPIC, {"op": "set", "key": "jobs.1", "value": {}})
        bus.publish_init(TOPIC, {"jobs": {"1": {}, "2": {}}})
        reply = bus.poll({TOPIC: 1})[TOPIC]
        assert reply["init"] == {"jobs": {"1": {}, "2": {}}}
        assert not reply.get("gap")
        assert reply["mods"] == []

    def test_eviction_without_journal_resyncs_with_gap(self, tmp_path):
        # The obs journal mirrors every publish, but the bus answers
        # from memory: an evicted span resyncs from the snapshot.
        obs.configure(enabled=True, root=tmp_path)
        bus = obs.state().bus
        bus.replay = 2
        topic = names.sweep_topic("t")
        obs.publish_init(topic, {"points": {}})
        for index in range(6):
            obs.publish_mod(
                topic, {"op": "set", "key": f"points.{index}", "value": index}
            )
        reply = bus.poll({topic: 1})[topic]
        assert reply["gap"] is True
        assert reply["mods"] == []
        assert reply["seq"] == 7
        assert reply["init"] == bus.subscribe([topic])[topic]["init"]
        assert reply["init"]["points"] == {str(i): i for i in range(6)}

    def test_unknown_topic_cursor_zero_is_quietly_empty(self):
        reply = DatasetBus().poll({TOPIC: 0})
        assert reply[TOPIC] == {"mods": [], "seq": 0}

    def test_unknown_topic_with_positive_cursor_flags_gap(self):
        reply = DatasetBus().poll({TOPIC: 5})
        entry = reply[TOPIC]
        assert entry["gap"] is True and entry["init"] == {}

    def test_future_cursor_resyncs_with_gap(self):
        bus = DatasetBus()
        bus.publish_init(TOPIC, {})
        assert bus.poll({TOPIC: 99})[TOPIC]["gap"]

    def test_default_replay_buffer_size(self):
        assert DatasetBus()._topics == {}
        assert REPLAY_BUFFER == 1024


class TestStaleCursorReadsNoJournal:
    """A stale cursor is answered from memory, however long the journal."""

    def test_resync_never_reads_the_obs_journal(self, tmp_path, monkeypatch):
        obs.configure(enabled=True, root=tmp_path)
        journal = obs.state().journal
        for index in range(10_000):
            journal.emit(names.EVENT_OBS_STARTED, {"pid": index})
        bus = obs.state().bus
        bus.replay = 2
        topic = names.sweep_topic("big")
        obs.publish_init(topic, {"points": {}})
        for index in range(5):
            obs.publish_mod(
                topic, {"op": "set", "key": f"points.{index}", "value": index}
            )
        from repro.obs import journal as journal_module

        assert sum(1 for _ in journal_module.read_events(tmp_path)) > 10_000

        def forbidden(*args, **kwargs):
            raise AssertionError("the bus read the obs journal")

        monkeypatch.setattr(journal_module, "read_events", forbidden)
        evicted = bus.poll({topic: 1})[topic]
        assert evicted["gap"] is True and evicted["seq"] == 6
        assert evicted["init"]["points"] == {str(i): i for i in range(5)}
        never = bus.poll({names.sweep_topic("x"): 5})
        assert never == {
            names.sweep_topic("x"): {
                "mods": [], "seq": 0, "gap": True, "init": {}
            }
        }


class TestJournalFallback:
    def test_gap_after_journal_loss(self, tmp_path):
        obs.configure(enabled=True, root=tmp_path)
        bus = obs.state().bus
        topic = names.sweep_topic("jloss")
        obs.publish_init(topic, {"points": {}})
        for index in range(8):
            obs.publish_mod(
                topic, {"op": "set", "key": f"points.{index}", "value": index}
            )
        import collections

        record = bus._topics[topic]
        record.mods = collections.deque(list(record.mods)[-2:], maxlen=2)
        for path in (tmp_path / "obs").glob("events*.jsonl"):
            path.unlink()
        reply = bus.poll({topic: 1})[topic]
        assert reply["gap"] is True
        assert reply["init"] == bus.subscribe([topic])[topic]["init"]


class TestLongPoll:
    def test_poll_wakes_on_cross_thread_publish(self):
        bus = DatasetBus()
        topic = TOPIC
        bus.publish_init(topic, {})
        results = {}

        def poller():
            results["reply"] = bus.poll({topic: 1}, timeout=5.0)

        thread = threading.Thread(target=poller)
        thread.start()
        bus.publish_mod(topic, {"op": "set", "key": "x", "value": 1})
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        mods = results["reply"][topic]["mods"]
        assert [m["seq"] for m in mods] == [2]

    def test_poll_timeout_returns_current_heads(self):
        bus = DatasetBus()
        bus.publish_init(TOPIC, {})
        reply = bus.poll({TOPIC: 1}, timeout=0.05)
        assert reply[TOPIC] == {"mods": [], "seq": 1}


class TestFacadePublish:
    def test_disabled_facade_publish_is_free_and_zero(self):
        assert obs.publish_init(TOPIC, {"x": 1}) == 0
        assert obs.publish_mod(
            TOPIC, {"op": "set", "key": "x", "value": 1}
        ) == 0

    def test_only_dataset_topics_are_journaled(self, tmp_path):
        obs.configure(enabled=True, root=tmp_path)
        obs.publish_init(names.sweep_topic("x"), {"points": {}})
        obs.publish_mod(
            names.sweep_topic("x"),
            {"op": "set", "key": "points.0", "value": 1},
        )
        from repro.obs.journal import read_events

        kinds = [
            entry["name"]
            for entry in read_events(tmp_path)
            if entry["name"]
            in (names.EVENT_DATASET_INIT, names.EVENT_DATASET_MOD)
        ]
        assert kinds == [names.EVENT_DATASET_INIT, names.EVENT_DATASET_MOD]
