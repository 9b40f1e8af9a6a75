"""The sequenced, rotating JSONL journal under the queue and telemetry.

A :class:`Journal` owns a live file ``<stem>.jsonl`` and one older
generation ``<stem>-1.jsonl``.  It stamps consecutive ``seq`` numbers
onto each batch and writes the batch with one fsynced
:func:`~repro.utils.io.append_line`; it renames the live file over the
older one (``os.replace``) once it holds ``max_lines`` lines; it resumes
``seq`` from both generations on open; and it answers cursors from a
bounded in-memory tail, falling back to disk.  Readers skip torn lines,
and skip and count entries whose ``seq`` is not an integer — admitting
one would re-deliver it to every cursor forever.  Telemetry-free on
purpose: callers count skips and fallbacks (``on_read``).  Pure stdlib:
this sits below the no-numpy CLI path.
"""

from __future__ import annotations

import collections
import json
import os
import pathlib
import threading
from collections.abc import Callable, Iterable
from operator import itemgetter
from typing import Any

from repro.utils.io import append_line, read_json_lines

#: One journal entry: a JSON object whose ``seq`` the journal stamps.
Entry = dict[str, Any]

#: ``on_read(skipped, fallback)``, see :class:`Journal`.
ReadHook = Callable[[int, bool], None]


def rotated_path(path: str | pathlib.Path) -> pathlib.Path:
    """The older generation of a journal: ``<stem>-1<suffix>``."""
    path = pathlib.Path(path)
    return path.with_name(f"{path.stem}-1{path.suffix}")


def read(
    path: str | pathlib.Path, since: int = 0
) -> tuple[list[Entry], int]:
    """``(entries with seq > since, entries skipped)``, both generations.

    Ordered by ``seq`` (stably: writers sharing a file keep their own
    order).  Needs no :class:`Journal`: the read-only path of
    ``repro trace`` and ``repro metrics``.
    """
    path = pathlib.Path(path)
    entries: list[Entry] = []
    skipped = 0
    for part in (rotated_path(path), path):
        for entry in read_json_lines(part):
            seq = entry.get("seq") if isinstance(entry, dict) else None
            if type(seq) is not int:  # bools and coerced strings too
                skipped += 1
            elif seq > since:
                entries.append(entry)
    entries.sort(key=itemgetter("seq"))
    return entries, skipped


class Journal:
    """One process's sequenced writer (and tail reader) of a journal.

    ``max_lines`` is the live file's rotation threshold and ``tail`` how
    many of the newest entries :meth:`since` answers from memory.
    ``on_read(skipped, fallback)``, if given, hears of every read of the
    files: the one at open and each disk fallback of :meth:`since`.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        max_lines: int,
        tail: int = 0,
        on_read: ReadHook | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.rotated_path = rotated_path(self.path)
        self.max_lines = max_lines
        self._on_read = on_read
        self._lock = threading.Lock()
        entries, skipped = read(self.path)
        self._seq: int = max((e["seq"] for e in entries), default=0)
        self._tail: collections.deque[Entry] = collections.deque(
            entries[-tail:] if tail else (), maxlen=tail
        )
        try:
            self._lines = self.path.read_bytes().count(b"\n")
        except FileNotFoundError:
            self._lines = 0
        if on_read is not None:
            on_read(skipped, False)

    @property
    def seq(self) -> int:
        """The sequence number of the last appended entry."""
        with self._lock:
            return self._seq

    def append(self, entries: Iterable[Entry]) -> None:
        """Stamp consecutive seqs onto ``entries`` (in place), write them
        in one fsynced append, then rotate if the live file is full (a
        large batch may overshoot ``max_lines``; it is never split)."""
        batch = list(entries)
        if not batch:
            return
        with self._lock:
            for entry in batch:
                self._seq += 1
                entry["seq"] = self._seq
            append_line(
                self.path,
                "\n".join(json.dumps(e, sort_keys=True) for e in batch),
            )
            self._tail.extend(batch)
            self._lines += len(batch)
            if self._lines >= self.max_lines:
                try:
                    os.replace(self.path, self.rotated_path)
                except OSError:
                    return  # best-effort; appends continue regardless
                self._lines = 0

    def since(self, seq: int) -> tuple[list[Entry], bool]:
        """``(entries with seq > seq, gap)``, oldest first.

        Served from the tail when it reaches back to ``seq + 1``, else
        from both files; ``gap`` is True only when the entries right
        after ``seq`` are gone from both generations.
        """
        with self._lock:
            if self._seq <= seq:
                return [], False
            if self._tail and self._tail[0]["seq"] <= seq + 1:
                return [e for e in self._tail if e["seq"] > seq], False
            # Read under the lock: a rotation between reading the two
            # generations would hide the live one.
            entries, skipped = read(self.path, since=seq)
        if self._on_read is not None:
            self._on_read(skipped, True)
        gap = not entries or entries[0]["seq"] > seq + 1
        return entries, gap
