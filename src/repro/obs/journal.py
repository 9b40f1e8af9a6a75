"""The append-only telemetry event journal: ``<root>/obs/events.jsonl``.

Every lifecycle event (run archived, analyzer finished, dataset-bus
publish) and every finished span becomes one schema-versioned JSON
line.  :class:`EventJournal` stamps ``schema`` and ``unix`` and appends
through the sequenced :class:`~repro.utils.journal.Journal` — fsynced,
torn-tail tolerant, rotated at ``max_lines`` to ``events-1.jsonl``
with ``seq`` rising across rotations and reopens.  This file is the
substrate ``repro trace`` renders span trees from.  Service-job
transitions are not copied here: the queue journal
(``<root>/queue/journal.jsonl``) is their durable record.

Line schema (``schema`` 1)::

    {"schema": 1, "seq": 42, "unix": 1700000000.0,
     "kind": "event" | "span", "name": "run.finished", ...}

``span`` lines additionally carry ``trace_id``/``span_id``/
``parent_id``/``duration_s``/``status``; both kinds carry ``attrs``.
"""

from __future__ import annotations

import pathlib
from collections.abc import Mapping

from repro.obs import names
from repro.obs.clock import Clock
from repro.utils.journal import Journal, read, rotated_path

#: Journal line schema version.
JOURNAL_SCHEMA = 1

#: Directory (under the engine root) and file names.
OBS_DIR = "obs"
EVENTS_FILE = "events.jsonl"
ROTATED_FILE = rotated_path(EVENTS_FILE).name

#: Default rotation threshold, lines in the live file.
MAX_LINES = 50_000


def obs_dir(root: str | pathlib.Path) -> pathlib.Path:
    """The telemetry directory under an engine root."""
    return pathlib.Path(root) / OBS_DIR


class EventJournal(Journal):
    """One process's writer of an engine root's telemetry journal."""

    def __init__(
        self,
        root: str | pathlib.Path,
        max_lines: int = MAX_LINES,
        clock: Clock | None = None,
    ) -> None:
        super().__init__(obs_dir(root) / EVENTS_FILE, max_lines)
        self.root = pathlib.Path(root)
        self.clock = clock if clock is not None else Clock()

    def emit(
        self, name: str, attrs: Mapping[str, object] | None = None
    ) -> dict[str, object]:
        """Append one lifecycle event line; returns the written entry."""
        names.require_event(name)
        entry: dict[str, object] = {
            "kind": "event",
            "name": name,
            "attrs": dict(attrs or {}),
        }
        return self._stamp_and_append(entry)

    def emit_span(self, span_event: Mapping[str, object]) -> dict[str, object]:
        """Append one finished-span document (see ``Span.to_event``).

        Accepts plain dicts so spans shipped back from pool workers can
        be journaled without reconstructing Span objects.
        """
        entry = dict(span_event)
        entry["kind"] = "span"
        return self._stamp_and_append(entry)

    def _stamp_and_append(
        self, entry: dict[str, object]
    ) -> dict[str, object]:
        """Stamp ``schema`` and ``unix``, then append (which adds seq)."""
        entry["schema"] = JOURNAL_SCHEMA
        entry.setdefault("unix", self.clock.wall())
        self.append([entry])
        return entry


def read_events(
    root: str | pathlib.Path, since: int = 0
) -> list[dict[str, object]]:
    """Read a root's journal (rotated + live) without a writer instance.

    The read-only path behind ``repro trace`` and ``repro metrics``:
    pure JSON, no numpy, no journal mutation.  Entries of a foreign
    schema version are dropped rather than guessed at.
    """
    entries, _ = read(obs_dir(root) / EVENTS_FILE, since=since)
    return [e for e in entries if e.get("schema") == JOURNAL_SCHEMA]
