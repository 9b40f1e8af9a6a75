"""The ``repro dashboard`` terminal UI: live panels over the daemon's feeds.

Pure presentation, pure stdlib: a :class:`DashboardModel` accumulates
what :func:`attach`/:func:`refresh` fetch through a
:class:`~repro.service.client.ServiceClient` (or the journal entries of
a finished run, for ``--replay``), and :func:`render_frame` turns the
model into one ANSI-free text frame the CLI paints in place.  Keeping
model and renderer free of sockets and terminals makes every panel
unit-testable with plain dicts.

Panels:

* **queue** — worker utilisation and per-status counts from
  ``health``, and the newest :data:`MAX_JOBS` jobs folded from the
  queue journal's ``events`` feed (the one ``repro watch`` reads), so
  it works with telemetry off;
* **fleet** — the ``fleet.status`` reply: runner registry, the
  daemon's own workers included (alive/lost counts, per-runner lease
  and completion tallies), so it works with telemetry off too;
* **one panel per held sweep job** — its ``datasets.sweep.job-<id>``
  bus topic: progress counters plus a sparkline per headline metric
  series (fringe visibility, CHSH S, CAR, ...) ordered by scan index,
  exactly the live view the paper's Bell-fringe and CAR scans need;
* **metrics** — the ``metrics`` reply, with each counter's change
  since the previous reply, so rates are visible without a second
  tool.

Adding a panel: read it from the RPC that already serves its data in
:func:`attach`/:func:`refresh` and give it a section in
:func:`render_frame`; the bus is for per-point sweep data only.  See
DESIGN.md "Live datasets and dashboard".
"""

from __future__ import annotations

import json
import pathlib
from collections.abc import Iterable, Iterator, Mapping
from typing import Any

from repro.obs import names
from repro.obs.bus import apply_mod
from repro.service.datasets import job_key
from repro.utils.tables import sparkline

#: Sweep metric keys promoted into sparkline rows, best first.
PREFERRED_METRICS = (
    "visibility_mean",
    "s_mean",
    "car",
    "car_max",
    "key_rate",
    "fidelity",
    "coincidences",
)

#: How many sparkline rows one sweep panel shows.
MAX_SERIES = 3

#: How many recent jobs the queue panel lists (and the model holds).
MAX_JOBS = 6

#: How far behind the journal head :func:`attach` starts its ``events``
#: cursor: inside the store's in-memory tail (``EVENT_BUFFER``, 4096),
#: so attaching never makes the daemon read the journal files.
BACKFILL = 1024

#: The job fields a queue line shows, as journal entries carry them.
_JOB_FIELDS = (
    "kind", "experiment_id", "status", "done_points", "total_points"
)


class DashboardModel:
    """Client-side state of the queue, fleet, metrics and sweep topics.

    Sweep topics follow the bus contract: an ``init`` replaces a
    topic's snapshot, ordered ``mods`` mutate it through the shared
    :func:`~repro.obs.bus.apply_mod`, and a ``gap`` flag is remembered
    so the frame can badge lossy topics.  The queue is ``workers`` and
    ``counts`` from ``health`` plus ``jobs`` (id → fields of its last
    event, newest :data:`MAX_JOBS` only) folded from ``events`` up to
    the cursor ``seq``.  ``fleet`` and ``metrics`` are the latest
    ``fleet.status`` and ``metrics`` replies; ``deltas`` are the
    counter changes between the last two ``metrics`` replies.
    """

    def __init__(self) -> None:
        self.topics: dict[str, dict[str, object]] = {}
        self.cursors: dict[str, int] = {}
        self.gapped: set[str] = set()
        self.deltas: dict[str, float] = {}
        self.fleet: dict[str, object] | None = None
        self.metrics: dict[str, object] | None = None
        self.source = "live"
        self.workers: int | None = None
        self.counts: dict[str, int] = {}
        self.jobs: dict[int, dict[str, Any]] = {}
        self.seq = 0
        self.queue_gapped = False

    def apply_health(self, health: Mapping[str, object]) -> None:
        """Take worker count and per-status counts from a ``health`` reply."""
        workers = health.get("workers")
        self.workers = workers if isinstance(workers, int) else 0
        self.counts = _section(health, "counts")

    def apply_events(
        self,
        events: Iterable[Mapping[str, object]],
        seq: int,
        gap: bool = False,
    ) -> None:
        """Fold an ``events`` reply into the held jobs; advance the cursor.

        A ``gap`` (transitions lost) drops the held jobs, rebuilds them
        from the events that follow and badges the panel.  Once
        :data:`MAX_JOBS` are held, a job older than all of them is
        ignored.
        """
        if gap:
            self.jobs.clear()
            self.queue_gapped = True
        for event in events:
            job_id = event.get("job_id")
            if not isinstance(job_id, int):
                continue
            job = self.jobs.get(job_id)
            if job is None:
                if len(self.jobs) >= MAX_JOBS:
                    oldest = min(self.jobs)
                    if job_id < oldest:
                        continue
                    del self.jobs[oldest]
                job = self.jobs[job_id] = {}
            job.update(
                (key, event[key]) for key in _JOB_FIELDS if key in event
            )
        self.seq = int(seq)

    def apply_metrics(self, snapshot: Mapping[str, object]) -> None:
        """Take a ``metrics`` reply; record counter changes since the last."""
        counters = _section(snapshot, "counters")
        if self.metrics is not None:
            before = _section(self.metrics, "counters")
            self.deltas = {
                str(series): float(value - before.get(series, 0))
                for series, value in counters.items()
                if value != before.get(series, 0)
            }
        self.metrics = dict(snapshot)

    def wanted_topics(self) -> set[str]:
        """The bus topics the frame shows: the held sweep jobs'."""
        return {
            names.sweep_topic(job_key(job_id))
            for job_id, job in self.jobs.items()
            if job.get("kind") == "sweep"
        }

    def apply_subscribe(
        self, payload: Mapping[str, Mapping[str, object]]
    ) -> None:
        """Ingest a ``subscribe`` reply (topic → init + seq)."""
        for topic, entry in payload.items():
            init = entry.get("init")
            self.topics[topic] = (
                dict(init) if isinstance(init, Mapping) else {}
            )
            self.cursors[topic] = int(entry.get("seq", 0))  # type: ignore[arg-type]

    def apply_poll(
        self, payload: Mapping[str, Mapping[str, object]]
    ) -> None:
        """Ingest a ``poll_datasets`` reply, advancing every cursor."""
        for topic, entry in payload.items():
            if entry.get("gap"):
                self.gapped.add(topic)
            init = entry.get("init")
            if isinstance(init, Mapping):
                self.topics[topic] = dict(init)
            snapshot = self.topics.setdefault(topic, {})
            for mod in entry.get("mods") or []:  # type: ignore[union-attr]
                if isinstance(mod, Mapping) and isinstance(
                    mod.get("mod"), Mapping
                ):
                    apply_mod(snapshot, mod["mod"])  # type: ignore[arg-type]
            self.cursors[topic] = int(entry.get("seq", self.cursors.get(topic, 0)))  # type: ignore[arg-type]

    def sweep_topics(self) -> list[str]:
        """Every topic held (the bus carries only sweeps), sorted."""
        return sorted(self.topics)


def _section(document: Mapping[str, object], key: str) -> dict[str, Any]:
    """One mapping member of a reply, or ``{}`` when absent or malformed."""
    value = document.get(key)
    return dict(value) if isinstance(value, Mapping) else {}


def sweep_series(
    snapshot: Mapping[str, object], limit: int = MAX_SERIES
) -> list[tuple[str, list[float]]]:
    """The sparkline-able metric series of one sweep snapshot.

    Points are ordered by their integer scan index (pooled sweeps
    complete out of order; the dict keys restore the axis).  Preferred
    paper observables come first, then remaining numeric metrics
    alphabetically, capped at ``limit`` rows.
    """
    points = snapshot.get("points")
    if not isinstance(points, Mapping) or not points:
        return []
    ordered = [
        points[key]
        for key in sorted(points, key=lambda k: int(k) if str(k).isdigit() else 0)
        if isinstance(points[key], Mapping)
    ]
    available: dict[str, list[float]] = {}
    for point in ordered:
        metrics = point.get("metrics")
        if not isinstance(metrics, Mapping):
            continue
        for key, value in metrics.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                available.setdefault(str(key), []).append(float(value))
    ranked = [k for k in PREFERRED_METRICS if k in available]
    ranked += sorted(k for k in available if k not in PREFERRED_METRICS)
    return [(key, available[key]) for key in ranked[:limit]]


def _bar(fraction: float, width: int = 20) -> str:
    """A text progress bar, clamped to [0, 1]."""
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "█" * filled + "░" * (width - filled)


def _queue_lines(model: DashboardModel) -> list[str]:
    """The queue panel's body lines."""
    counts = model.counts
    workers = model.workers
    running = int(counts.get("running", 0) or 0)
    lines = []
    folded = (
        "  ".join(f"{k}={counts[k]}" for k in sorted(counts)) or "empty"
    )
    if workers:
        lines.append(
            f"workers {running}/{workers} busy "
            f"{_bar(running / workers, 10)}  {folded}"
        )
    else:
        lines.append(folded)
    for job_id in sorted(model.jobs):
        job = model.jobs[job_id]
        done = int(job.get("done_points", 0) or 0)
        total = int(job.get("total_points", 1) or 1)
        lines.append(
            f"job {job_id} {job.get('kind', '?')} "
            f"{job.get('experiment_id', '?')} {job.get('status', '?')} "
            f"{done}/{total} "
            f"{_bar(done / total if total else 0.0, 12)}"
        )
    return lines


def _fleet_lines(status: Mapping[str, object]) -> list[str]:
    """The fleet panel's body: runner counts plus one line per runner."""
    counts = _section(status, "counts")
    lines = [
        f"runners alive={counts.get('alive', 0)} "
        f"lost={counts.get('lost', 0)} "
        f"leases={counts.get('leases', 0)}"
    ]
    runners = status.get("runners")
    if isinstance(runners, list):
        docs = [doc for doc in runners if isinstance(doc, Mapping)]
        for doc in sorted(docs, key=lambda d: str(d.get("runner_id"))):
            leases = doc.get("leases")
            busy = len(leases) if isinstance(leases, (list, tuple)) else 0
            lines.append(
                f"{doc.get('runner_id', '?'):<12} {doc.get('status', '?'):<6} "
                f"{doc.get('host', '?')}:{doc.get('pid', '?')} "
                f"busy={busy} done={doc.get('completed', 0)} "
                f"failed={doc.get('failed', 0)}"
            )
    return lines


def _sweep_lines(topic: str, snapshot: Mapping[str, object]) -> list[str]:
    """One sweep panel's body lines (progress + metric sparklines)."""
    counts = _section(snapshot, "counts")
    done = int(counts.get("done", 0) or 0)
    total = int(counts.get("total", 0) or 0)
    cached = int(counts.get("cached", 0) or 0)
    status = snapshot.get("status", "?")
    lines = [
        f"{status} {done}/{total or '?'} points"
        + (f" ({cached} cached)" if cached else "")
        + (f" {_bar(done / total, 16)}" if total else "")
    ]
    for key, values in sweep_series(snapshot):
        low, high = min(values), max(values)
        lines.append(
            f"{key:<18} {sparkline(values)}  "
            f"[{low:.4g} .. {high:.4g}] n={len(values)}"
        )
    return lines


def _metrics_lines(
    snapshot: Mapping[str, object], deltas: Mapping[str, float]
) -> list[str]:
    """The metrics panel's body: counters with deltas, top gauges."""
    counters = _section(snapshot, "counters")
    lines = []
    for series in sorted(counters)[:8]:
        value = counters[series]
        delta = deltas.get(series)
        suffix = (
            f"  (+{delta:g})" if isinstance(delta, float) and delta else ""
        )
        lines.append(f"{series:<44} {value}{suffix}")
    gauges = snapshot.get("gauges")
    if isinstance(gauges, Mapping):
        for series in sorted(gauges)[:4]:
            value = gauges[series]
            if isinstance(value, (int, float)):
                lines.append(f"{series:<44} {value:g}")
    return lines


def render_frame(model: DashboardModel, width: int = 78) -> str:
    """One complete dashboard frame as plain text.

    Deterministic for a given model (sorted topics, fixed panel order):
    the CI smoke job archives a frame as an artifact and tests compare
    substrings without fighting timestamps.
    """
    rule = "─" * width

    def panel(title: str, body: list[str]) -> list[str]:
        header = f"┌ {title} "
        return [header + "─" * max(0, width - len(header))] + [
            f"│ {line}" for line in (body or ["(no data yet)"])
        ]

    lines = [f"repro dashboard ({model.source})", rule]
    if model.workers is not None:
        title = "queue [gap]" if model.queue_gapped else "queue"
        lines += panel(title, _queue_lines(model))
    if model.fleet is not None and model.fleet.get("runners"):
        lines += panel("fleet", _fleet_lines(model.fleet))
    for topic in model.sweep_topics():
        snapshot = model.topics[topic]
        if not snapshot:
            continue  # subscribed before the sweep's first publish
        key = topic[len(names.TOPIC_SWEEP_PREFIX) :]
        experiment = snapshot.get("experiment", "?")
        title = f"sweep {key} — {experiment}"
        if topic in model.gapped:
            title += " [gap: resynced from snapshot]"
        lines += panel(title, _sweep_lines(topic, snapshot))
    if model.metrics is not None:
        lines += panel("metrics", _metrics_lines(model.metrics, model.deltas))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Live fetch cycles
# ---------------------------------------------------------------------------


def attach(client, model: DashboardModel) -> None:
    """The first fetch: queue state, recent jobs, fleet, metrics and
    the held sweeps' bus topics.

    The ``events`` cursor starts :data:`BACKFILL` entries behind the
    journal head ``health`` reports, which the daemon answers from
    memory however long it has been running.
    """
    health = client.health()
    model.apply_health(health)
    since = max(0, int(health.get("seq", 0)) - BACKFILL)
    model.apply_events(*client.events(since))
    _fetch_panels(client, model)


def refresh(client, model: DashboardModel, timeout: float) -> None:
    """One live cycle: wait up to ``timeout`` for queue events, then
    re-read the counts, the fleet, the metrics and the bus topics."""
    model.apply_events(*client.events(model.seq, timeout=timeout))
    model.apply_health(client.health())
    _fetch_panels(client, model)


def _fetch_panels(client, model: DashboardModel) -> None:
    """Re-read the fleet and metrics RPCs and follow the sweep topics."""
    model.fleet = dict(client.fleet_status())
    model.apply_metrics(client.metrics())
    _follow_topics(client, model)


def _follow_topics(client, model: DashboardModel) -> None:
    """Subscribe to newly wanted topics by name, drop unwanted ones and
    poll the rest without waiting."""
    wanted = model.wanted_topics()
    for topic in set(model.cursors) - wanted:
        del model.topics[topic], model.cursors[topic]
        model.gapped.discard(topic)
    held = dict(model.cursors)
    fresh = sorted(wanted - set(held))
    if fresh:
        model.apply_subscribe(client.subscribe(fresh))
    if held:
        model.apply_poll(client.poll_datasets(held))


# ---------------------------------------------------------------------------
# Offline replay from the obs journal
# ---------------------------------------------------------------------------


def replay_events(
    root: str | pathlib.Path,
) -> list[dict[str, object]]:
    """The journaled dataset publishes of a root, in bus order.

    Reads ``<root>/obs/events.jsonl`` (rotated file included) and keeps
    only the ``dataset.init``/``dataset.mod`` entries — the mirror of
    every sweep-topic publish — sorted by topic and bus sequence number
    so replay applies them exactly as the bus broadcast them.
    """
    from repro.obs.journal import read_events

    wanted = (names.EVENT_DATASET_INIT, names.EVENT_DATASET_MOD)
    entries = [
        entry
        for entry in read_events(root)
        if entry.get("kind") == "event"
        and entry.get("name") in wanted
        and isinstance(entry.get("attrs"), dict)
    ]
    entries.sort(
        key=lambda e: (
            str(e["attrs"].get("topic", "")),  # type: ignore[index]
            int(e["attrs"].get("bus_seq", 0) or 0),  # type: ignore[index]
        )
    )
    return entries


def replay_frames(
    root: str | pathlib.Path,
) -> Iterator[tuple[DashboardModel, str]]:
    """Yield ``(model, frame)`` per replayed sweep point (then a final).

    Drives the same model/renderer as the live path, but from the obs
    journal alone — no daemon required.  A frame is yielded after every
    ``set points.<i>`` diff so the CLI can animate the sweep, plus one
    final frame carrying the terminal status mods.
    """
    model = DashboardModel()
    model.source = "replay"
    pending = False
    for entry in replay_events(root):
        attrs = entry["attrs"]
        topic = str(attrs.get("topic", ""))  # type: ignore[union-attr]
        if entry.get("name") == names.EVENT_DATASET_INIT:
            snapshot = attrs.get("snapshot")  # type: ignore[union-attr]
            model.topics[topic] = (
                json.loads(json.dumps(snapshot))
                if isinstance(snapshot, Mapping)
                else {}
            )
            pending = True
            continue
        mod = attrs.get("mod")  # type: ignore[union-attr]
        if not isinstance(mod, Mapping):
            continue
        apply_mod(model.topics.setdefault(topic, {}), mod)
        pending = True
        if str(mod.get("key", "")).startswith("points."):
            yield model, render_frame(model)
            pending = False
    if pending or not model.topics:
        yield model, render_frame(model)
