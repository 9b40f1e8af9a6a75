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

Writers in several processes share a journal.  They take turns under
an ``flock`` on ``<stem>.lock`` (:meth:`Journal.locked`), and each keeps
a byte cursor into the files: before it appends it reads what the others
appended since it last looked, so ``seq`` rises in file order across
all writers and every writer counts the same lines towards rotation.
:meth:`Journal.follow` hands those lines over to a writer that wants
them.
"""

from __future__ import annotations

import collections
import contextlib
import fcntl
import functools
import json
import os
import pathlib
import threading
import weakref
from collections.abc import Callable, Iterable, Iterator
from operator import itemgetter
from typing import Any, BinaryIO

from repro.utils.io import append_line

#: One journal entry: a JSON object whose ``seq`` the journal stamps.
Entry = dict[str, Any]

#: ``on_read(skipped, fallback)``, see :class:`Journal`.
ReadHook = Callable[[int, bool], None]

#: Bytes read at a time when an open scans a file from its end.
BLOCK = 1 << 16


def rotated_path(path: str | pathlib.Path) -> pathlib.Path:
    """The older generation of a journal: ``<stem>-1<suffix>``."""
    path = pathlib.Path(path)
    return path.with_name(f"{path.stem}-1{path.suffix}")


def _parse(data: bytes) -> tuple[list[Entry], int]:
    """``(entries, skipped)`` of JSONL bytes, in order.

    Blank and torn lines are dropped; parsed lines that are not objects
    with an integer ``seq`` count as skipped.
    """
    entries: list[Entry] = []
    skipped = 0
    for raw in data.split(b"\n"):
        try:
            entry = json.loads(raw)
        except ValueError:
            continue  # blank or torn
        seq = entry.get("seq") if isinstance(entry, dict) else None
        if type(seq) is not int:  # bools and coerced strings too
            skipped += 1
        else:
            entries.append(entry)
    return entries, skipped


def _read_bytes(path: pathlib.Path) -> bytes:
    """The bytes of ``path``, empty when it is missing."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return b""


def _inode(path: pathlib.Path) -> int | None:
    """The inode of ``path``, None when it is missing."""
    try:
        return os.stat(path).st_ino
    except FileNotFoundError:
        return None


def _lines_backwards(handle: BinaryIO) -> Iterator[bytes]:
    """The lines of an open file, newest first, read in blocks from its end."""
    position = handle.seek(0, os.SEEK_END)
    rest = b""
    while position > 0:
        step = min(BLOCK, position)
        position -= step
        handle.seek(position)
        lines = (handle.read(step) + rest).split(b"\n")
        rest = lines[0]
        yield from reversed(lines[1:])
    yield rest


def read(
    path: str | pathlib.Path, since: int = 0
) -> tuple[list[Entry], int]:
    """``(entries with seq > since, entries skipped)``, both generations.

    Ordered by ``seq``, which is file order for lines a :class:`Journal`
    wrote (the sort orders files that older writers shared).  Needs no
    :class:`Journal`: the read-only path of ``repro trace`` and
    ``repro metrics``.
    """
    path = pathlib.Path(path)
    entries, skipped = _parse(
        _read_bytes(rotated_path(path)) + b"\n" + _read_bytes(path)
    )
    entries = [entry for entry in entries if entry["seq"] > since]
    entries.sort(key=itemgetter("seq"))
    return entries, skipped


class Journal:
    """One process's sequenced writer (and tail reader) of a journal.

    ``max_lines`` is the live file's rotation threshold and ``tail`` how
    many of the newest entries :meth:`since` answers from memory.
    ``on_read(skipped, fallback)``, if given, hears of every read of the
    files: the one at open (of the newest lines, enough to fill the tail
    and find :attr:`seq`), each disk fallback of :meth:`since` and each
    catch-up with the other writers that skipped a line.
    """

    #: Called, under the lock, with the live file's path just before the
    #: live file rotates out; an ``OSError`` it raises postpones the
    #: rotation to the next append.  The job queue compacts here.
    before_rotate: Callable[[pathlib.Path], None] | None = None

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
        self._lock = threading.RLock()
        self._holds = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock_fd = os.open(
            self.path.with_suffix(".lock"),
            os.O_RDWR | os.O_CREAT | os.O_CLOEXEC,
            0o666,
        )
        weakref.finalize(self, os.close, self._lock_fd)
        #: Where reading resumes: the generation file read last, at its
        #: position, held open so its inode cannot name another file.
        self._held: BinaryIO | None = None
        self._held_inode: int | None = None
        #: Lines in the live file, for rotation.
        self.lines = 0
        self._seq = 0
        self._tail: collections.deque[Entry] = collections.deque(maxlen=tail)
        with self.locked():  # the live file exists, so the cursor names it
            os.close(os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o666))
            skipped = self._open()
        if on_read is not None:
            on_read(skipped, False)

    def _open(self) -> int:
        """Put the cursor at the live file's end, and read the newest
        entries into the tail and :attr:`seq` (lock held); returns the
        lines those reads skipped.

        Only as many lines are parsed as the tail holds (one at least,
        for ``seq``), newest first; the live file's lines are counted,
        not parsed, for rotation.
        """
        self._hold(self.path)
        want = max(self._tail.maxlen or 0, 1)
        newest: list[Entry] = []
        skipped = 0
        for path in (self.path, self.rotated_path):
            try:
                handle = open(path, "rb")
            except FileNotFoundError:
                continue
            with handle:
                for raw in _lines_backwards(handle):
                    found, bad = _parse(raw)
                    newest += found
                    skipped += bad
                    if len(newest) >= want:
                        break
            if len(newest) >= want:
                break
        if self._held is not None:
            blocks = iter(functools.partial(self._held.read, BLOCK), b"")
            self.lines = sum(block.count(b"\n") for block in blocks)
        if newest:
            newest.sort(key=itemgetter("seq"))
            self._tail.extend(newest)
            self._seq = newest[-1]["seq"]
        return skipped

    @property
    def seq(self) -> int:
        """The sequence number of the last entry written or read."""
        with self._lock:
            return self._seq

    @contextlib.contextmanager
    def locked(self) -> Iterator[None]:
        """Hold the journal against this process's other threads and
        against the other writers (reentrant)."""
        with self._lock:
            if not self._holds:
                fcntl.flock(self._lock_fd, fcntl.LOCK_EX)
            self._holds += 1
            try:
                yield
            finally:
                self._holds -= 1
                if not self._holds:
                    fcntl.flock(self._lock_fd, fcntl.LOCK_UN)

    def append(self, entries: Iterable[Entry]) -> None:
        """Stamp consecutive seqs onto ``entries`` (in place), write them
        in one fsynced append, then rotate if the live file is full (a
        large batch may overshoot ``max_lines``; it is never split).

        Lines other writers appended since this one last looked are read
        first, and :meth:`follow` no longer hands them over.
        """
        batch = list(entries)
        if not batch:
            return
        with self.locked():
            self._read_new()
            for entry in batch:
                self._seq += 1
                entry["seq"] = self._seq
            append_line(
                self.path,
                "\n".join(json.dumps(e, sort_keys=True) for e in batch),
            )
            self._tail.extend(batch)
            self.lines += len(batch)
            if _inode(self.path) != self._held_inode:
                self._hold(self.path)
            if self._held is not None:
                self._held.seek(0, os.SEEK_END)  # past the batch
            if self.lines < self.max_lines:
                return
            try:
                if self.before_rotate is not None:
                    self.before_rotate(self.path)
                os.replace(self.path, self.rotated_path)
            except OSError:
                return  # best-effort; appends continue regardless
            self.lines = 0  # the cursor stays in the rotated generation

    def follow(self) -> tuple[list[Entry], bool]:
        """``(entries, rewound)``: what the other writers appended since
        this journal last looked, in file order.

        ``rewound`` is True when the generation this journal last read
        has rotated out unseen: the entries are then every retained one,
        and whatever else it held is gone from the files.
        """
        with self.locked():
            found, _, rewound = self._read_new()
        return found, rewound

    def _read_new(self) -> tuple[list[Entry], int, bool]:
        """``(entries past the cursor, lines skipped, rewound)`` in file
        order; moves the cursor to the end (lock held).

        After a rotation the rest of the generation the cursor was in
        comes first.  When that generation is gone from both files (or
        the live file shrank in place, or nothing is held) every
        retained entry is read again.  Entries newer than :attr:`seq`
        join the tail and raise it.  Skipped lines are reported unless
        it rewound: a re-read meets lines reported before.
        """
        try:
            live = os.stat(self.path)
        except FileNotFoundError:
            live = None
        held = self._held
        if held is not None and live is not None \
                and live.st_ino == self._held_inode:
            if live.st_size == held.tell():
                return [], 0, False
            rewound = live.st_size < held.tell()  # rewritten in place
            if rewound:
                held.seek(0)
                self.lines = 0
            data = held.read()
            self.lines += data.count(b"\n")
        else:
            rewound = held is None or (
                _inode(self.rotated_path) != self._held_inode
            )
            if rewound:
                self._hold(self.rotated_path)
            data = self._held.read() if self._held else b""
            self.lines = 0
            if live is not None:
                self._hold(self.path)
                live_data = self._held.read() if self._held else b""
                self.lines = live_data.count(b"\n")
                data += b"\n" + live_data
        found, skipped = _parse(data)
        fresh = sorted(
            (entry for entry in found if entry["seq"] > self._seq),
            key=itemgetter("seq"),
        )
        if fresh:
            self._tail.extend(fresh)
            self._seq = fresh[-1]["seq"]
        if skipped and not rewound and self._on_read is not None:
            self._on_read(skipped, False)
        return found, skipped, rewound

    def _hold(self, path: pathlib.Path | None) -> None:
        """Move the cursor to the start of ``path`` (None: nowhere)."""
        if self._held is not None:
            self._held.close()
        try:
            self._held = open(path, "rb") if path is not None else None
        except FileNotFoundError:
            self._held = None
        self._held_inode = (
            os.fstat(self._held.fileno()).st_ino if self._held else None
        )

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
        with self.locked():
            entries, skipped = read(self.path, since=seq)
        if self._on_read is not None:
            self._on_read(skipped, True)
        gap = not entries or entries[0]["seq"] > seq + 1
        return entries, gap
