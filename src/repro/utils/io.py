"""Crash-safe file primitives shared by the runtime and service layers.

Everything that persists engine or queue state goes through
:func:`atomic_write_text`: the text lands in a same-directory temp file
first and is ``os.replace``-d over the destination, so a reader — or a
second engine sharing the same ``$REPRO_RUNTIME_ROOT`` — can never
observe a torn half-written file.  Appends (the journals of
:mod:`repro.utils.journal`, the index op log) go through
:func:`append_line`, which writes and fsyncs every call so a crash
loses at most the line being written — and the next descriptor opened
on the file ends that torn fragment before its first line.

:func:`append_line` reuses a small, bounded cache of open append
descriptors (:data:`APPEND_HANDLES`; the least recently used closes
first) instead of opening and closing the file for every line.  The
cached handle follows renames: before each write it compares the
path's ``(st_dev, st_ino)`` with the open descriptor's and reopens when
the file was rotated, replaced or deleted, so a line always
lands in the file the path names at that moment.  A forked child starts
with an empty cache and never writes to, flushes or closes the
descriptors it inherited.

Pure stdlib on purpose: this module sits below the CLI's no-numpy
cached fast path.
"""

from __future__ import annotations

import collections
import os
import pathlib
import threading
from typing import TypeVar

#: Per-process uniquifier for temp-file names; two threads of one
#: process writing the same destination must not share a temp path.
_COUNTER_LOCK = threading.Lock()
_COUNTER = 0

#: Most append descriptors :func:`append_line` keeps open at once.
APPEND_HANDLES = 8

#: A destination path, handed back as the caller gave it.
_PathT = TypeVar("_PathT", str, pathlib.Path)


def _temp_path(path: str) -> str:
    """A process-and-thread-unique sibling temp path for ``path``.

    Plain strings: a ``pathlib.Path`` per write would intern every new
    file name for the life of the process.
    """
    global _COUNTER
    with _COUNTER_LOCK:
        _COUNTER += 1
        serial = _COUNTER
    head, name = os.path.split(path)
    return os.path.join(head, f".{name}.tmp-{os.getpid()}-{serial}")


def _replace_with(path: str, data: bytes) -> None:
    """Write ``data`` to a temp sibling, fsync it, and rename it over ``path``."""
    tmp = _temp_path(path)
    try:
        try:
            handle = open(tmp, "wb")
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            handle = open(tmp, "wb")
        with handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass


def atomic_write_text(path: _PathT, text: str) -> _PathT:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The parent directory is created if missing.  Concurrent writers of
    the same path serialise to last-writer-wins with no interleaving;
    readers always see either the previous or the new complete content.
    Returns ``path`` as given.
    """
    _replace_with(os.fspath(path), text.encode("utf-8"))
    return path


def atomic_write_bytes(path: _PathT, data: bytes) -> _PathT:
    """Binary twin of :func:`atomic_write_text` (npz archives etc.)."""
    _replace_with(os.fspath(path), data)
    return path


class _Appender:
    """One cached append descriptor and the lock its writes hold."""

    __slots__ = ("lock", "fd", "ident", "retired")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.fd: int | None = None
        #: ``(st_dev, st_ino)`` of the file ``fd`` refers to.
        self.ident: tuple[int, int] | None = None
        #: Set once evicted from the cache; a retired appender never
        #: writes again (a caller holding one fetches a fresh one).
        self.retired = False

    def write(self, path: str, data: bytes) -> None:
        """Append ``data`` to ``path`` and fsync it (caller holds the lock)."""
        try:
            stat = os.stat(path)
            current: tuple[int, int] | None = (stat.st_dev, stat.st_ino)
        except FileNotFoundError:
            current = None
        if self.fd is None or current != self.ident:
            self.close()
            self.fd = _open_append(path)
            stat = os.fstat(self.fd)
            self.ident = (stat.st_dev, stat.st_ino)
            size = stat.st_size
            if size and os.pread(self.fd, 1, size - 1) != b"\n":
                data = b"\n" + data  # end a torn tail before the new line
        view = memoryview(data)
        while view:
            view = view[os.write(self.fd, view):]
        os.fsync(self.fd)

    def close(self) -> None:
        """Close the descriptor, if one is open (caller holds the lock)."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
            self.ident = None


def _open_append(path: str) -> int:
    """An ``O_APPEND`` descriptor on ``path`` (directory made if missing).

    Read-write, so a fresh descriptor can check for a torn last line.
    """
    flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
    try:
        return os.open(path, flags, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        return os.open(path, flags, 0o666)


_APPENDERS: collections.OrderedDict[str, _Appender] = collections.OrderedDict()
_APPENDERS_LOCK = threading.Lock()


def _appender(path: str) -> _Appender:
    """The cached appender of ``path``, evicting the least recently used."""
    evicted: list[_Appender] = []
    with _APPENDERS_LOCK:
        appender = _APPENDERS.get(path)
        if appender is None:
            appender = _APPENDERS[path] = _Appender()
            while len(_APPENDERS) > APPEND_HANDLES:
                evicted.append(_APPENDERS.popitem(last=False)[1])
        else:
            _APPENDERS.move_to_end(path)
    for victim in evicted:
        with victim.lock:
            victim.retired = True
            victim.close()
    return appender


def _forget_appenders() -> None:
    """Give a forked child an empty cache, leaving inherited descriptors be."""
    global _APPENDERS, _APPENDERS_LOCK
    _APPENDERS = collections.OrderedDict()
    _APPENDERS_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_appenders)


def append_line(path: str | pathlib.Path, line: str) -> None:
    """Append one ``\\n``-terminated line to ``path``, written + fsynced.

    The building block of every journal.  Writes to one path are
    serialised by a per-path lock held across write and fsync; the line
    goes out in one ``write`` on an ``O_APPEND`` descriptor, so nothing
    is left buffered in the process.  A crash mid-append loses only the
    trailing partial line: readers skip it, and the next descriptor
    opened on the file terminates it before appending.  The parent
    directory is created if missing.
    """
    key = os.fspath(path)
    data = (line.rstrip("\n") + "\n").encode("utf-8")
    while True:
        appender = _appender(key)
        with appender.lock:
            if not appender.retired:
                appender.write(key, data)
                return


def read_json_lines(path: str | pathlib.Path) -> list[object]:
    """Parse a JSONL file, skipping blank and torn (unparseable) lines.

    Tolerance for a trailing partial line is what makes
    :func:`append_line` journals crash-safe to read back.
    """
    import json

    path = pathlib.Path(path)
    if not path.exists():
        return []
    entries: list[object] = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        raw = raw.strip()
        if not raw:
            continue
        try:
            entries.append(json.loads(raw))
        except ValueError:
            continue
    return entries
