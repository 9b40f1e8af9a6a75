"""append_line's cached handles: they follow renames, forks and bounds.

The journals append one fsynced line per event through a per-path
cached descriptor; these tests pin that a line always lands in the file
its path names *now* — after rotation, compaction or deletion — that a
forked child never duplicates a line, that concurrent appends through
evictions lose none, and that the cache stays bounded.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import sys
import threading

import pytest

import repro.service.store as store_module
from repro.obs import names
from repro.obs.journal import EventJournal
from repro.service.store import JobStore
from repro.utils import io
from repro.utils.io import append_line, atomic_write_text, read_json_lines


def lines(path: pathlib.Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def test_appends_reuse_one_descriptor(tmp_path):
    path = tmp_path / "log.jsonl"
    append_line(path, "one")
    descriptor = io._APPENDERS[str(path)].fd
    append_line(path, "two\n")
    assert io._APPENDERS[str(path)].fd == descriptor
    assert lines(path) == ["one", "two"]


def test_rotated_journal_receives_the_next_line(tmp_path):
    first = EventJournal(tmp_path)
    first.emit(names.EVENT_JOB_TRANSITION, {"n": 1})
    EventJournal(tmp_path).rotate()  # a second writer renames the file
    first.emit(names.EVENT_JOB_TRANSITION, {"n": 2})
    live = read_json_lines(first.path)
    rotated = read_json_lines(first.rotated_path)
    assert [entry["attrs"]["n"] for entry in rotated] == [1]
    assert [entry["attrs"]["n"] for entry in live] == [2]


def test_compacted_queue_journal_receives_the_next_transition(
    tmp_path, monkeypatch
):
    first = JobStore(tmp_path)
    job, _ = first.submit("E6")
    for _ in range(12):
        first.update_progress(job, 0, 1)
    monkeypatch.setattr(store_module, "JOURNAL_COMPACT_LINES", 10)
    monkeypatch.setattr(store_module, "EVENT_BUFFER", 5)
    JobStore(tmp_path)  # compacts journal.jsonl by replacing it
    first.update_progress(job, 1, 1)
    entries = read_json_lines(first.journal_path)
    assert len(entries) == 6
    assert entries[-1]["seq"] == first.seq
    assert entries[-1]["done_points"] == 1


def test_deleted_parent_directory_is_recreated(tmp_path):
    path = tmp_path / "a" / "b" / "log.jsonl"
    append_line(path, "before")
    shutil.rmtree(tmp_path / "a")
    append_line(path, "after")
    assert lines(path) == ["after"]


def test_atomic_write_creates_a_missing_directory(tmp_path):
    path = tmp_path / "x" / "y" / "doc.json"
    atomic_write_text(path, "{}")
    atomic_write_text(path, "[]")
    assert path.read_text(encoding="utf-8") == "[]"
    assert [p.name for p in path.parent.iterdir()] == ["doc.json"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_appends_without_duplicates(tmp_path):
    path = tmp_path / "log.jsonl"
    append_line(path, "parent-1")  # the parent now holds a cached handle
    pid = os.fork()
    if pid == 0:  # child
        status = 1
        try:
            if not io._APPENDERS:  # the inherited cache was dropped
                append_line(path, "child-1")
                append_line(path, "child-2")
                status = 0
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    append_line(path, "parent-2")
    assert lines(path) == ["parent-1", "child-1", "child-2", "parent-2"]


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_open_descriptors_stay_bounded(tmp_path):
    before = len(os.listdir("/proc/self/fd"))
    for index in range(100):
        append_line(tmp_path / f"log-{index}.jsonl", str(index))
    after = len(os.listdir("/proc/self/fd"))
    assert after - before <= io.APPEND_HANDLES
    assert len(io._APPENDERS) <= io.APPEND_HANDLES
    assert lines(tmp_path / "log-0.jsonl") == ["0"]
    assert lines(tmp_path / "log-99.jsonl") == ["99"]


def test_concurrent_appends_through_evictions_lose_no_line(tmp_path):
    # More threads than cores and more paths than cached handles, so
    # threads keep evicting descriptors other threads are about to use.
    paths = [tmp_path / f"log-{index}.jsonl" for index in range(12)]
    threads_n, per_thread = 6, 40

    def work(thread: int) -> None:
        for index in range(per_thread):
            path = paths[(thread + index) % len(paths)]
            append_line(path, f"{path.name}:{thread}:{index}")

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
    written = [line for path in paths for line in lines(path)]
    assert sorted(written) == sorted(
        f"{paths[(thread + index) % len(paths)].name}:{thread}:{index}"
        for thread in range(threads_n)
        for index in range(per_thread)
    )
    for path in paths:
        assert all(line.startswith(path.name + ":") for line in lines(path))
