"""The event journal: schema-stamped lines, seq resume, rotation."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import names
from repro.obs.journal import (
    JOURNAL_SCHEMA,
    EventJournal,
    obs_dir,
    read_events,
)


def span_document(span_id="s1", **extra):
    """A minimal finished-span document (what pool workers ship back)."""
    document = {
        "name": names.SPAN_ENGINE_RUN,
        "trace_id": span_id,
        "span_id": span_id,
        "parent_id": None,
        "unix": 1.7e9,
        "duration_s": 0.5,
        "status": "ok",
        "attrs": {},
    }
    document.update(extra)
    return document


class TestWriting:
    def test_emit_stamps_schema_seq_and_clock(self, tmp_path, manual_clock):
        journal = EventJournal(tmp_path, clock=manual_clock)
        manual_clock.advance(3.0)
        entry = journal.emit(names.EVENT_RUN_FINISHED, {"run_id": "r1"})
        assert entry["schema"] == JOURNAL_SCHEMA
        assert entry["seq"] == 1
        assert entry["kind"] == "event"
        assert entry["unix"] == manual_clock.wall()
        assert entry["attrs"] == {"run_id": "r1"}
        on_disk = (obs_dir(tmp_path) / "events.jsonl").read_text()
        assert json.loads(on_disk) == entry

    def test_emit_span_preserves_document(self, tmp_path):
        journal = EventJournal(tmp_path)
        entry = journal.emit_span(span_document(span_id="w9-1"))
        assert entry["kind"] == "span"
        assert entry["span_id"] == "w9-1"
        assert entry["seq"] == 1

    def test_unregistered_event_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            EventJournal(tmp_path).emit("run.exploded")

    def test_seq_resumes_across_writers(self, tmp_path):
        first = EventJournal(tmp_path)
        first.emit(names.EVENT_RUN_FINISHED)
        first.emit(names.EVENT_RUN_FINISHED)
        second = EventJournal(tmp_path)
        assert second.seq == 2
        assert second.emit(names.EVENT_RUN_FINISHED)["seq"] == 3


class TestRotation:
    def test_rotation_keeps_readers_whole(self, tmp_path):
        journal = EventJournal(tmp_path, max_lines=5)
        for _ in range(12):
            journal.emit(names.EVENT_RUN_FINISHED)
        assert (obs_dir(tmp_path) / "events-1.jsonl").exists()
        entries = read_events(tmp_path)
        # Two rotations happened: lines 1-5 were replaced by 6-10, and
        # 11-12 are live — readers see a contiguous, reset-free tail.
        assert [e["seq"] for e in entries] == list(range(6, 13))
        assert journal.seq == 12

    def test_forced_rotation(self, tmp_path):
        journal = EventJournal(tmp_path, max_lines=1)
        journal.emit(names.EVENT_RUN_FINISHED)
        assert not journal.path.exists()
        assert journal.rotated_path.exists()
        assert journal.emit(names.EVENT_RUN_FINISHED)["seq"] == 2

    def test_seq_survives_rotation_and_reopen(self, tmp_path):
        journal = EventJournal(tmp_path, max_lines=3)
        for _ in range(3):
            journal.emit(names.EVENT_RUN_FINISHED)  # the third rotates
        reopened = EventJournal(tmp_path, max_lines=3)
        entry = reopened.emit(names.EVENT_RUN_FINISHED)
        assert [e["seq"] for e in read_events(tmp_path)] == [1, 2, 3, 4]
        assert read_events(tmp_path, since=3) == [entry]


class TestReading:
    def test_since_filters_and_orders(self, tmp_path):
        journal = EventJournal(tmp_path)
        for _ in range(4):
            journal.emit(names.EVENT_RUN_FINISHED)
        assert [e["seq"] for e in read_events(tmp_path, since=2)] == [3, 4]

    def test_foreign_schema_lines_dropped(self, tmp_path):
        journal = EventJournal(tmp_path)
        journal.emit(names.EVENT_RUN_FINISHED)
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"schema": 99, "seq": 50}) + "\n")
            handle.write("not json at all\n")
        entries = read_events(tmp_path)
        assert [e["seq"] for e in entries] == [1]

    def test_missing_journal_reads_empty(self, tmp_path):
        assert read_events(tmp_path) == []
