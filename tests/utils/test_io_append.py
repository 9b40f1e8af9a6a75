"""append_line's cached handles: they follow renames, forks and bounds.

The journals append one fsynced line per event through a per-path
cached descriptor; these tests pin that a line always lands in the file
its path names *now* — after rotation, replacement or deletion — that
a line appended after a torn tail starts on a line of its own, that a
forked child never duplicates a line, that concurrent appends through
evictions lose none, and that the cache stays bounded.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import sys
import threading

import pytest

import repro.service.store as store_module
from repro.analysis import index
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
    first.emit(names.EVENT_RUN_FINISHED, {"n": 1})
    # A second writer's append fills its tiny journal and renames it.
    second = EventJournal(tmp_path, max_lines=2)
    second.emit(names.EVENT_RUN_FINISHED, {"n": 9})
    first.emit(names.EVENT_RUN_FINISHED, {"n": 2})
    live = read_json_lines(first.path)
    rotated = read_json_lines(first.rotated_path)
    assert [entry["attrs"]["n"] for entry in rotated] == [1, 9]
    assert [entry["attrs"]["n"] for entry in live] == [2]


def test_rotated_queue_journal_receives_the_next_transition(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(store_module, "JOURNAL_MAX_LINES", 3)
    store = JobStore(tmp_path)
    job, _ = store.submit("E6")
    store.update_progress(job, 0, 1)
    store.update_progress(job, 0, 1)  # the third line rotates the file
    store.update_progress(job, 1, 1)
    rotated = read_json_lines(store.journal_path.with_name("journal-1.jsonl"))
    entries = read_json_lines(store.journal_path)
    assert [entry["seq"] for entry in rotated] == [1, 2, 3]
    assert [entry["seq"] for entry in entries] == [4] == [store.seq]
    assert entries[-1]["done_points"] == 1


def _queue_journal(root, marker):
    store = JobStore(root)
    store.submit(marker, dedupe=False)
    return store.journal_path


def _obs_journal(root, marker):
    journal = EventJournal(root)
    journal.emit(names.EVENT_RUN_FINISHED, {"marker": marker})
    return journal.path


def _index_journal(root, marker):
    index.journal_append(root, {"run_id": marker})
    return index.index_dir(root) / index.JOURNAL_FILE


@pytest.mark.parametrize(
    "append", [_queue_journal, _obs_journal, _index_journal],
    ids=["queue", "obs", "index"],
)
@pytest.mark.parametrize("cut", [1, 9, -1], ids=["head", "middle", "newline"])
def test_append_after_torn_tail_starts_a_new_line(tmp_path, append, cut):
    for marker in ("E1", "E2", "E3"):
        path = append(tmp_path, marker)
    data = path.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    whole = read_json_lines(path)[:-1]
    # A crash mid-append leaves the last line torn at `cut` bytes in
    # (`newline`: only its terminating newline is missing) ...
    path.write_bytes(data[: last + cut if cut > 0 else len(data) + cut])
    for appender in io._APPENDERS.values():
        with appender.lock:  # ... and the restarted process holds no
            appender.close()  # descriptor on the file yet.
    append(tmp_path, "E9")
    entries = [e for e in read_json_lines(path) if isinstance(e, dict)]
    assert entries[: len(whole)] == whole
    assert "E9" in json.dumps(entries[-1])
    assert len(entries) == len(whole) + (2 if cut == -1 else 1)


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
