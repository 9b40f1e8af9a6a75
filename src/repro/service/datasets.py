"""The sweep publisher: per-point sweep datasets onto the obs bus.

The service-side half of the live-dataset layer (the bus itself lives
in :mod:`repro.obs.bus`).  Each sweep gets one ``datasets.sweep.<key>``
topic.  A service job's is keyed by job id (``job-<id>``); local
engine sweeps key it by a content hash of the sweep request, so
re-running the same sweep lands on the same topic.  An ``init``
carries the sweep header; every completed point arrives as a ``set
points.<index>`` diff (points are a dict keyed by the stringified scan
index because pooled execution completes them out of order), and a
final ``update`` publishes the terminal status.  The obs journal
mirrors every publish, so the offline dashboard replays these.

Nothing else is on the bus.  Each job transition's one record is its
queue-journal line (:mod:`repro.service.store`), which the ``events``
RPC serves to ``repro watch`` and ``repro dashboard``; the dashboard
reads the fleet and the metrics snapshot from their RPCs.

Everything here is stdlib-only and imports nothing but the obs façade,
so the runtime engine can lazily import it from inside ``sweep()``
without creating an import cycle (service → engine → service).
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping

from repro import obs
from repro.obs import names

#: Version stamp carried in every dataset init snapshot.
DATASET_SCHEMA = 1


def sweep_key(
    experiment_id: str,
    scan: Mapping[str, object] | None,
    seed: int,
    quick: bool,
    params: Mapping[str, object] | None,
) -> str:
    """The stable topic key of one local sweep request.

    A content hash, so repeating the same sweep (the common
    cache-warmed workflow) continues its existing topic instead of
    leaking a new one per invocation.
    """
    payload = json.dumps(
        {
            "experiment": experiment_id.upper(),
            "scan": dict(scan) if scan else None,
            "seed": int(seed),
            "quick": bool(quick),
            "params": dict(params or {}),
        },
        sort_keys=True,
        default=str,
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
    return f"{experiment_id.upper()}-{digest}"


def job_key(job_id: int) -> str:
    """The topic key of one service job's sweep."""
    return f"job-{int(job_id)}"


class SweepPublisher:
    """Publishes one sweep's init/point/finish lifecycle onto the bus.

    Construct through :meth:`for_job` or :meth:`for_local` — both
    return ``None`` while telemetry is disabled, so callers guard with
    ``if publisher is not None`` and the disabled path never builds a
    document.
    """

    def __init__(
        self, topic: str, header: Mapping[str, object], total: int
    ) -> None:
        self.topic = topic
        self._done = 0
        self._cached = 0
        snapshot: dict[str, object] = {
            "schema": DATASET_SCHEMA,
            "points": {},
            "counts": {"done": 0, "cached": 0, "total": int(total)},
            "status": "running",
        }
        snapshot.update(header)
        obs.publish_init(topic, snapshot)

    @classmethod
    def for_job(cls, job: object, total: int) -> "SweepPublisher | None":
        """A publisher for one service sweep job (None when disabled)."""
        if not obs.enabled():
            return None
        topic = names.sweep_topic(job_key(job.job_id))  # type: ignore[attr-defined]
        header = {
            "experiment": str(job.experiment_id),  # type: ignore[attr-defined]
            "job_id": int(job.job_id),  # type: ignore[attr-defined]
            "seed": int(job.seed),  # type: ignore[attr-defined]
            "quick": bool(job.quick),  # type: ignore[attr-defined]
            "scan": dict(job.scan) if job.scan else None,  # type: ignore[attr-defined]
        }
        return cls(topic, header, total)

    @classmethod
    def for_local(
        cls,
        experiment_id: str,
        scan: Mapping[str, object] | None,
        seed: int,
        quick: bool,
        params: Mapping[str, object] | None,
        total: int,
    ) -> "SweepPublisher | None":
        """A publisher for one in-process engine sweep (None when disabled)."""
        if not obs.enabled():
            return None
        topic = names.sweep_topic(
            sweep_key(experiment_id, scan, seed, quick, params)
        )
        header = {
            "experiment": experiment_id.upper(),
            "job_id": None,
            "seed": int(seed),
            "quick": bool(quick),
            "scan": dict(scan) if scan else None,
        }
        return cls(topic, header, total)

    def point(
        self,
        index: int,
        params: Mapping[str, object],
        metrics: Mapping[str, object],
        run_id: str | None = None,
        cached: bool = False,
    ) -> None:
        """Publish one completed sweep point and bump the counters."""
        obs.publish_mod(
            self.topic,
            {
                "op": "set",
                "key": f"points.{int(index)}",
                "value": {
                    "params": dict(params),
                    "metrics": dict(metrics),
                    "run_id": run_id,
                    "cached": bool(cached),
                },
            },
        )
        self._done += 1
        if cached:
            self._cached += 1
        obs.publish_mod(
            self.topic,
            {
                "op": "update",
                "key": "counts",
                "value": {"done": self._done, "cached": self._cached},
            },
        )

    def finish(
        self, status: str, metrics: Mapping[str, object] | None = None
    ) -> None:
        """Publish the terminal status (and final metrics) of the sweep."""
        value: dict[str, object] = {"status": str(status)}
        if metrics is not None:
            value["metrics"] = dict(metrics)
        obs.publish_mod(self.topic, {"op": "update", "key": "", "value": value})

