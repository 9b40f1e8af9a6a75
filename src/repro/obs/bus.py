"""The in-process publish/subscribe dataset bus (ARTIQ sync_struct idiom).

One :class:`DatasetBus` per process broadcasts live sweep datasets to
many concurrent subscribers as an ``init`` snapshot followed by
ordered, structured ``mod`` diffs — the protocol ARTIQ's
``sync_struct`` uses between master and dashboards.  One topic family
rides on it (see :mod:`repro.obs.names`): per-sweep datasets
(``datasets.sweep.<key>``).  Everything else a dashboard shows has its
own feed: job-queue transitions the queue journal behind the
``events`` RPC, the runner fleet the ``fleet.status`` RPC and the
metrics snapshot the ``metrics`` RPC.

Wire contract, mirroring the long-poll gap semantics of the queue
feed:

* every publish on a topic increments that topic's monotonic sequence
  number; ``init`` resets the snapshot, ``mod`` mutates it;
* a subscriber holds one cursor per topic and polls for entries with
  ``seq > cursor``; answers come from a bounded in-memory replay
  buffer;
* a cursor the buffer no longer covers (it fell behind, or names a
  topic the bus does not hold) is answered with ``gap: true`` plus a
  fresh snapshot and the head sequence number, so pollers resynchronise
  from the whole state instead of spinning or silently losing points;
* a cursor predating the topic's current ``init`` is answered with the
  fresh snapshot (``init`` key, no gap): the missed diffs were
  superseded, not lost.

Mods are dotted-path operations applied by :func:`apply_mod`, which is
a pure function shared by the server (to maintain the live snapshot)
and every client (to reconstruct it) — both sides apply the same diffs
to the same init, so reconstruction is byte-identical::

    {"op": "set",    "key": "points.3", "value": {...}}
    {"op": "update", "key": "counts",   "value": {"done": 4}}

Pure stdlib, no numpy: the bus sits inside the cached-CLI import
closure pinned by IMP001, and never imports the :mod:`repro.obs`
façade (the façade imports *it*) nor reads the obs journal (the
façade mirrors publishes there for ``repro dashboard --replay``).
"""

from __future__ import annotations

import collections
import json
import threading
import time
from collections.abc import Mapping

from repro.obs import names

#: Bus document schema version (init snapshots and poll payloads).
BUS_SCHEMA = 1

#: Default per-topic replay-buffer depth (mod entries).
REPLAY_BUFFER = 1024

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
    elif op == "update":
        if not isinstance(value, Mapping):
            raise ValueError(f"bus 'update' needs a mapping value at {key!r}")
        slot = target.get(leaf)
        if not isinstance(slot, dict):
            slot = {}
            target[leaf] = slot
        slot.update(value)
    else:
        raise ValueError(f"unknown bus mod op {op!r} (set/update)")
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
    long-pollers wait on it across every topic they watch.  Answers
    come from memory alone, so no poll ever holds the lock over I/O.
    """

    def __init__(self, replay: int = REPLAY_BUFFER) -> None:
        self.replay = max(1, int(replay))
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
        with a gap and an empty snapshot.
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

    def subscribe(self, topics: list[str]) -> dict[str, dict[str, object]]:
        """Init snapshots: topic → ``{"init": snapshot, "seq": n}``.

        Every name must be a registered topic
        (:func:`~repro.obs.names.require_topic`); one the bus does not
        hold yet is answered with an empty snapshot at seq 0, so a
        subscriber can watch a sweep that has not started publishing.
        """
        for topic in topics:
            names.require_topic(topic)
        with self._lock:
            out: dict[str, dict[str, object]] = {}
            for topic in topics:
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
        not covered by the replay buffer — see the module docs).  Every
        name must be a registered topic.
        """
        for topic in cursors:
            names.require_topic(str(topic))
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
            # restart, or a retired sweep): declare the gap.
            return {"mods": [], "seq": 0, "gap": True, "init": {}}
        if since == entry.seq:
            return {"mods": [], "seq": entry.seq}
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
        # The replay buffer evicted the span, or the cursor is ahead of
        # the head (another topic generation): the snapshot carries it.
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
