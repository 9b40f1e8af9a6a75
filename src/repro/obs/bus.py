"""The in-process publish/subscribe dataset bus (ARTIQ sync_struct idiom).

One :class:`DatasetBus` per process broadcasts live datasets to many
concurrent subscribers as an ``init`` snapshot followed by ordered,
structured ``mod`` diffs — the protocol ARTIQ's ``sync_struct`` uses
between master and dashboards.  Three topic families ride on it (see
:mod:`repro.obs.names`): per-sweep datasets (``datasets.sweep.<key>``),
the metrics registry (``metrics.registry``) and the runner fleet
(``fleet.state``).  Job-queue state does not: its transitions have one
feed, the queue journal behind the ``events`` RPC.

Wire contract, mirroring the PR 7 long-poll gap semantics of the queue
feed:

* every publish on a topic increments that topic's monotonic sequence
  number; ``init`` resets the snapshot, ``mod`` mutates it;
* a subscriber holds one cursor per topic and polls for entries with
  ``seq > cursor``; answers come from a bounded in-memory replay
  buffer;
* a cursor behind the replay buffer falls back to re-reading the obs
  journal (``datasets.*`` topics are journaled on publish);
* ``gap: true`` is returned **only** when diffs are irrecoverably gone
  (journal rotated away, or a non-journaled topic) — together with a
  fresh snapshot and the head sequence number, so pollers resynchronise
  instead of spinning or silently losing points;
* a cursor predating the topic's current ``init`` is answered with the
  fresh snapshot (``init`` key, no gap): the missed diffs were
  superseded, not lost.

Mods are dotted-path operations applied by :func:`apply_mod`, which is
a pure function shared by the server (to maintain the live snapshot)
and every client (to reconstruct it) — both sides apply the same diffs
to the same init, so reconstruction is byte-identical::

    {"op": "set",    "key": "points.3", "value": {...}}
    {"op": "append", "key": "log",      "value": "line"}
    {"op": "update", "key": "counts",   "value": {"done": 4}}

Pure stdlib, no numpy: the bus sits inside the cached-CLI import
closure pinned by IMP001, and never imports the :mod:`repro.obs`
façade (the façade imports *it*).
"""

from __future__ import annotations

import collections
import json
import pathlib
import threading
import time
from collections.abc import Mapping

from repro.obs import names

#: Bus document schema version (init snapshots and poll payloads).
BUS_SCHEMA = 1

#: Default per-topic replay-buffer depth (mod entries).
REPLAY_BUFFER = 1024

#: Topic-name prefix of the journaled family: publishes are mirrored
#: into the obs journal so stale cursors (and offline replay) recover.
JOURNALED_PREFIX = "datasets."


def is_journaled(topic: str) -> bool:
    """Whether publishes on ``topic`` are mirrored to the obs journal."""
    return topic.startswith(JOURNALED_PREFIX)


def apply_mod(
    snapshot: dict[str, object], mod: Mapping[str, object]
) -> dict[str, object]:
    """Apply one structured diff to a snapshot in place; returns it.

    The single mutation function of the bus protocol: the publisher's
    live snapshot and every subscriber's reconstruction go through this
    same code, so the two can never diverge.  Intermediate path
    segments are created as dicts when absent (a ``set`` on
    ``points.3`` works against a fresh ``{}``).
    """
    op = mod.get("op")
    key = str(mod.get("key", ""))
    value = mod.get("value")
    if not key:
        if op != "update" or not isinstance(value, Mapping):
            raise ValueError(
                f"bus mod with empty key must be a mapping 'update', "
                f"got op={op!r}"
            )
        snapshot.update(value)
        return snapshot
    parts = key.split(".")
    target: dict[str, object] = snapshot
    for part in parts[:-1]:
        step = target.get(part)
        if not isinstance(step, dict):
            step = {}
            target[part] = step
        target = step
    leaf = parts[-1]
    if op == "set":
        target[leaf] = value
    elif op == "append":
        slot = target.get(leaf)
        if not isinstance(slot, list):
            slot = []
            target[leaf] = slot
        slot.append(value)
    elif op == "update":
        if not isinstance(value, Mapping):
            raise ValueError(f"bus 'update' needs a mapping value at {key!r}")
        slot = target.get(leaf)
        if not isinstance(slot, dict):
            slot = {}
            target[leaf] = slot
        slot.update(value)
    else:
        raise ValueError(f"unknown bus mod op {op!r} (set/append/update)")
    return snapshot


class _Topic:
    """One topic's live state: snapshot, sequence, replay buffer."""

    __slots__ = ("seq", "init_seq", "snapshot", "mods")

    def __init__(self, replay: int) -> None:
        self.seq = 0
        self.init_seq = 0
        self.snapshot: dict[str, object] = {}
        self.mods: collections.deque[dict[str, object]] = collections.deque(
            maxlen=replay
        )


class DatasetBus:
    """The process-wide dataset broadcaster behind the ``repro.obs`` façade.

    Thread-safe via a single condition variable: publishers notify,
    long-pollers wait on it across every topic they watch.  The bus
    never performs journal *writes* (the façade owns the journal); it
    only *reads* the journal — via :attr:`journal_root`, set when the
    façade attaches a root — to serve cursors that fell behind the
    in-memory replay buffer.
    """

    def __init__(self, replay: int = REPLAY_BUFFER) -> None:
        self.replay = max(1, int(replay))
        self.journal_root: pathlib.Path | None = None
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._topics: dict[str, _Topic] = {}

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish_init(
        self, topic: str, snapshot: Mapping[str, object]
    ) -> int:
        """Replace a topic's snapshot; returns the publish sequence number.

        The snapshot is normalised through a JSON round trip so the bus
        never aliases caller-owned mutable state and everything it
        holds is wire-serialisable by construction.
        """
        names.require_topic(topic)
        document = json.loads(json.dumps(snapshot))
        with self._changed:
            entry = self._topics.get(topic)
            if entry is None:
                entry = self._topics[topic] = _Topic(self.replay)
            entry.seq += 1
            entry.init_seq = entry.seq
            entry.snapshot = document
            entry.mods.clear()
            self._changed.notify_all()
            return entry.seq

    def publish_mod(self, topic: str, mod: Mapping[str, object]) -> int:
        """Append one diff to a topic; returns the publish sequence number.

        The diff is applied to the live snapshot immediately (through
        the same :func:`apply_mod` subscribers use) and retained in the
        bounded replay buffer.  Publishing on a topic that was never
        inited implicitly starts it from an empty snapshot.
        """
        names.require_topic(topic)
        document = json.loads(json.dumps(mod))
        with self._changed:
            entry = self._topics.get(topic)
            if entry is None:
                entry = self._topics[topic] = _Topic(self.replay)
            apply_mod(entry.snapshot, document)
            entry.seq += 1
            entry.mods.append({"seq": entry.seq, "mod": document})
            self._changed.notify_all()
            return entry.seq

    def retire(self, topic: str) -> None:
        """Forget a topic whose publisher is done with it.

        A later cursor on it is answered as for a topic of a past life:
        from the obs journal if it is journaled, else with a gap.
        """
        with self._changed:
            self._topics.pop(topic, None)

    # ------------------------------------------------------------------
    # Subscribing
    # ------------------------------------------------------------------
    def topics(self) -> list[str]:
        """Every live topic name, sorted."""
        with self._lock:
            return sorted(self._topics)

    def subscribe(
        self, topics: list[str] | None = None
    ) -> dict[str, dict[str, object]]:
        """Init snapshots: topic → ``{"init": snapshot, "seq": n}``.

        ``None`` subscribes to every live topic.  Unknown topic names
        are answered with an empty snapshot at seq 0, so a subscriber
        can watch a topic that has not started publishing yet.
        """
        with self._lock:
            wanted = sorted(self._topics) if topics is None else list(topics)
            out: dict[str, dict[str, object]] = {}
            for topic in wanted:
                entry = self._topics.get(topic)
                if entry is None:
                    out[topic] = {"init": {}, "seq": 0}
                else:
                    out[topic] = {
                        "init": json.loads(json.dumps(entry.snapshot)),
                        "seq": entry.seq,
                    }
            return out

    def poll(
        self,
        cursors: Mapping[str, int],
        timeout: float = 0.0,
    ) -> dict[str, dict[str, object]]:
        """Long-poll every cursor: topic → diffs/seq (init + gap on loss).

        Blocks up to ``timeout`` seconds until *any* watched topic has
        something newer than its cursor, then answers all of them.
        Per-topic payload: ``{"mods": [{"seq", "mod"}...], "seq": n}``
        plus ``"init"`` (a fresh snapshot, when the topic was re-inited
        past the cursor or after a loss) and ``"gap": true`` (diffs
        irrecoverably lost — see the module docs).
        """
        deadline = time.monotonic() + max(0.0, timeout)
        with self._changed:
            while True:
                results = {
                    str(topic): self._collect(str(topic), int(since))
                    for topic, since in cursors.items()
                }
                if any(
                    r["mods"] or "init" in r for r in results.values()
                ):
                    return results
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return results
                self._changed.wait(remaining)

    def _collect(self, topic: str, since: int) -> dict[str, object]:
        """One topic's poll payload for one cursor (lock held)."""
        entry = self._topics.get(topic)
        if entry is None:
            if since <= 0:
                return {"mods": [], "seq": 0}
            # The subscriber knows a past life of this topic (daemon
            # restart); recover from the journal or declare the gap.
            recovered = self._journal_mods(topic, since)
            if recovered:
                return {"mods": recovered, "seq": recovered[-1]["seq"]}
            return {"mods": [], "seq": 0, "gap": True, "init": {}}
        if since == entry.seq:
            return {"mods": [], "seq": entry.seq}
        if since > entry.seq:
            # A cursor from a different topic generation: resynchronise
            # with a fresh snapshot rather than waiting forever.
            return self._resync(entry, gap=True)
        if since < entry.init_seq:
            # The missed diffs were superseded by a newer init: the
            # fresh snapshot carries the whole state, nothing was lost.
            return self._resync(entry, gap=False)
        pending = [e for e in entry.mods if e["seq"] > since]
        if pending and pending[0]["seq"] == since + 1:
            # Per-topic seqs are consecutive, so covering the head
            # means covering the whole (since, seq] span.
            return {
                "mods": [dict(e) for e in pending],
                "seq": entry.seq,
            }
        # Replay buffer evicted the span; journaled topics re-read the
        # obs journal (the PR 7 fallback idiom), everything else gaps.
        recovered = self._journal_mods(topic, since)
        if (
            recovered
            and recovered[0]["seq"] == since + 1
            and recovered[-1]["seq"] == entry.seq
            and len(recovered) == entry.seq - since
        ):
            return {"mods": recovered, "seq": entry.seq}
        return self._resync(entry, gap=True)

    @staticmethod
    def _resync(entry: _Topic, gap: bool) -> dict[str, object]:
        """A fresh-snapshot payload jumping the cursor to the head."""
        payload: dict[str, object] = {
            "mods": [],
            "seq": entry.seq,
            "init": json.loads(json.dumps(entry.snapshot)),
        }
        if gap:
            payload["gap"] = True
        return payload

    def _journal_mods(
        self, topic: str, since: int
    ) -> list[dict[str, object]]:
        """Replay one topic's journaled diffs with bus seq > ``since``.

        Empty for non-journaled topics and rootless processes.  Entries
        come back sorted by bus sequence number (journal line order is
        not guaranteed to match publish order across threads).
        """
        if self.journal_root is None or not is_journaled(topic):
            return []
        from repro.obs.journal import read_events

        recovered: list[dict[str, object]] = []
        for entry in read_events(self.journal_root):
            if entry.get("kind") != "event":
                continue
            if entry.get("name") != names.EVENT_DATASET_MOD:
                continue
            attrs = entry.get("attrs")
            if not isinstance(attrs, dict) or attrs.get("topic") != topic:
                continue
            seq = attrs.get("bus_seq")
            if isinstance(seq, int) and seq > since:
                recovered.append({"seq": seq, "mod": attrs.get("mod", {})})
        recovered.sort(key=lambda e: e["seq"])
        return recovered
