"""The sequenced journal primitive: seq, batching, rotation, tail, gaps."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.utils import journal
from repro.utils.journal import Journal, read, rotated_path


@pytest.fixture
def path(tmp_path):
    return tmp_path / "log" / "journal.jsonl"


def entries(n, **fields):
    return [{"n": index, **fields} for index in range(n)]


def seqs(items):
    return [entry["seq"] for entry in items]


class Reads:
    """An ``on_read`` hook that records every ``(skipped, fallback)``."""

    def __init__(self):
        self.calls = []

    def __call__(self, skipped, fallback):
        self.calls.append((skipped, fallback))


class TestAppend:
    def test_batch_gets_consecutive_seqs_in_one_append(
        self, path, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            journal, "append_line", lambda *args: calls.append(args)
        )
        log = Journal(path, max_lines=100)
        batch = entries(3)
        log.append(batch)
        log.append([])
        assert seqs(batch) == [1, 2, 3] and log.seq == 3
        assert len(calls) == 1
        assert [json.loads(line) for line in calls[0][1].split("\n")] == batch

    def test_rotates_at_max_lines(self, path):
        log = Journal(path, max_lines=4)
        log.append(entries(3))
        assert not log.rotated_path.exists()
        log.append(entries(1))
        assert log.rotated_path == rotated_path(path)
        assert log.rotated_path.name == "journal-1.jsonl"
        assert not path.exists()
        log.append(entries(2))
        assert seqs(read(path)[0]) == [1, 2, 3, 4, 5, 6]
        assert len(path.read_text().splitlines()) == 2

    def test_a_failing_rotation_hook_postpones_the_rotation(self, path):
        log = Journal(path, max_lines=2)
        seen = []

        def hook(live):
            seen.append(len(live.read_text().splitlines()))
            if len(seen) == 1:
                raise OSError("disk full")

        log.before_rotate = hook
        log.append(entries(2))  # full: the hook fails, nothing rotates
        assert not log.rotated_path.exists() and seen == [2]
        log.append(entries(1))  # retried: the hook saw every line first
        assert seen == [2, 3] and not path.exists()
        assert seqs(read(log.rotated_path)[0]) == [1, 2, 3]

    def test_reopen_resumes_seq_from_both_generations(self, path):
        Journal(path, max_lines=2).append(entries(2))  # rotates: live gone
        reopened = Journal(path, max_lines=2)
        assert reopened.seq == 2
        reopened.append(entries(1))
        assert seqs(read(path, since=2)[0]) == [3]


class TestSince:
    def test_tail_answers_without_reading_disk(self, path):
        reads = Reads()
        log = Journal(path, max_lines=100, tail=4, on_read=reads)
        log.append(entries(6))
        assert seqs(log.since(2)[0]) == [3, 4, 5, 6]
        assert log.since(6) == ([], False)
        assert reads.calls == [(0, False)]  # the open read only

    def test_tail_eviction_falls_back_to_disk_without_gap(self, path):
        reads = Reads()
        log = Journal(path, max_lines=100, tail=4, on_read=reads)
        log.append(entries(10))
        fresh, gap = log.since(0)
        assert seqs(fresh) == list(range(1, 11)) and not gap
        assert reads.calls[-1] == (0, True)

    def test_rotated_out_span_gaps(self, path):
        log = Journal(path, max_lines=3, tail=2)
        log.append(entries(8))  # one batch: the live file rotates once
        log.append(entries(4))  # and again: 1..8 are gone from disk
        fresh, gap = log.since(0)
        assert gap and seqs(fresh) == [9, 10, 11, 12]
        assert log.since(9) == ([e for e in fresh if e["seq"] > 9], False)

    def test_all_lost_is_a_gap_too(self, path):
        log = Journal(path, max_lines=100)
        log.append(entries(3))
        path.write_text("", encoding="utf-8")
        assert log.since(0) == ([], True)


class TestMalformed:
    def test_skipped_and_counted(self, path):
        Journal(path, max_lines=100).append(entries(2))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"n": "missing seq"}\n')
            handle.write('{"seq": "7"}\n')
            handle.write('{"seq": true}\n')
            handle.write("[1, 2]\n")
            handle.write("\n")
            handle.write('{"seq": 3, "torn')
        found, skipped = read(path)
        assert seqs(found) == [1, 2] and skipped == 4  # torn: not counted
        reads = Reads()
        reopened = Journal(path, max_lines=100, tail=8, on_read=reads)
        assert reopened.seq == 2 and reads.calls == [(4, False)]
        assert seqs(reopened.since(0)[0]) == [1, 2]

    def test_open_parses_only_the_lines_its_tail_holds(self, path):
        path.parent.mkdir(parents=True)
        path.write_text('{"seq": "old"}\n' + "".join(
            json.dumps({"seq": seq}) + "\n" for seq in range(1, 1001)
        ))
        reads = Reads()
        log = Journal(path, max_lines=5000, tail=8, on_read=reads)
        assert log.seq == 1000 and log.lines == 1001
        assert reads.calls == [(0, False)]  # the old bad line: not read
        assert seqs(log.since(992)[0]) == list(range(993, 1001))
        assert len(log.since(0)[0]) == 1000  # from disk
        assert reads.calls[-1] == (1, True)

    def test_missing_files_read_empty(self, path):
        assert read(path) == ([], 0)
        assert Journal(path, max_lines=10).seq == 0


class TestWriters:
    def test_writers_share_seq_and_rotation(self, path):
        first = Journal(path, max_lines=4)
        second = Journal(path, max_lines=4)
        for _ in range(3):
            first.append(entries(1))
            second.append(entries(1))
        # One rotation, at the file's fourth line: nothing is dropped.
        assert seqs(read(path)[0]) == [1, 2, 3, 4, 5, 6]
        assert len(path.read_text().splitlines()) == 2

    def test_follow_hands_over_other_writers_lines_in_file_order(self, path):
        reader = Journal(path, max_lines=100)
        writer = Journal(path, max_lines=100)
        writer.append(entries(2))
        reader.append(entries(1))  # reads 1-2 first: they are not followed
        writer.append(entries(2, late=True))
        found, rewound = reader.follow()
        assert seqs(found) == [4, 5] and not rewound
        assert reader.seq == 5 and reader.follow() == ([], False)

    def test_follow_rewinds_when_its_generation_rotated_out_unseen(self, path):
        reader = Journal(path, max_lines=3)
        writer = Journal(path, max_lines=3)
        for size in (3, 3, 1):  # two rotations: the reader's file is gone
            writer.append(entries(size))
        found, rewound = reader.follow()
        assert rewound and seqs(found) == [4, 5, 6, 7]
        assert reader.follow() == ([], False)


def test_concurrent_appends_and_reads_keep_seq_consecutive(path):
    # More threads than cores, a tiny switch interval and a rotation in
    # the middle: a lost update would duplicate or skip a seq.
    log = Journal(path, max_lines=150, tail=16)
    threads_n, per_thread = 6, 40
    gaps = []

    def work(thread):
        for index in range(per_thread):
            log.append([{"thread": thread, "index": index}])
            gaps.append(log.since(max(0, log.seq - 8))[1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(thread,))
            for thread in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    total = threads_n * per_thread
    found, skipped = read(path)
    assert seqs(found) == list(range(1, total + 1)) and skipped == 0
    assert log.rotated_path.exists() and not any(gaps)
    for thread in range(threads_n):
        mine = [e["index"] for e in found if e["thread"] == thread]
        assert mine == list(range(per_thread))
