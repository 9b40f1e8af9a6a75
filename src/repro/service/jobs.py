"""The job model of the experiment service.

A :class:`Job` is one queued unit of work — either a single experiment
run (kind ``"run"``) or a whole parameter sweep (kind ``"sweep"``,
carrying a serialised scan description).  Jobs move through the
lifecycle state machine::

    pending ──► running ──► done
       │           │    └──► failed     (error = type/message/traceback)
       └──────────►└───────► cancelled

``pending → cancelled`` is immediate; a *running* job only observes
``cancel_requested`` at its next point boundary (sweeps) or completion
(single runs).  ``requeue`` returns any terminal job to ``pending``
with its attempt counter bumped.

Jobs live on disk as queue-journal lines (see
:class:`repro.service.store.JobStore`): the submission line carries
every field, later lines only what a transition changed, and
:meth:`Job.apply` folds them; an ended job whose lines rotated out is
one line of :meth:`Job.fields` in a compacted file.  Everything here
round-trips losslessly through :meth:`Job.to_dict` /
:meth:`Job.from_dict`.

Pure stdlib: the model sits below the CLI's no-numpy fast path.
"""

from __future__ import annotations

import dataclasses
import datetime
import sys
import time
from collections.abc import Iterable, Mapping
from typing import Any

from repro.errors import ConfigurationError
from repro.runtime.engine import RunSpec


def _iso(unix: float | None) -> str | None:
    """A unix timestamp as a UTC ISO-8601 string (None passes through)."""
    if not unix:
        return None
    stamp = datetime.datetime.fromtimestamp(unix, tz=datetime.timezone.utc)
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")

#: Lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: All states, in lifecycle order (useful for table sorting).
STATUSES = (PENDING, RUNNING, DONE, FAILED, CANCELLED)

#: States a job can never leave (except via ``requeue``).
TERMINAL = frozenset({DONE, FAILED, CANCELLED})

#: Legal transitions of the state machine.
_TRANSITIONS = {
    PENDING: {RUNNING, CANCELLED},
    RUNNING: {DONE, FAILED, CANCELLED},
    DONE: {PENDING},  # requeue
    FAILED: {PENDING},
    CANCELLED: {PENDING},
}

#: Job kinds.
KIND_RUN = "run"
KIND_SWEEP = "sweep"
KIND_ANALYZE = "analyze"

#: The placeholder experiment id carried by analyze-kind jobs (they
#: target an analysis pipeline, not a driver).
ANALYSIS_EXPERIMENT = "ANALYSIS"


@dataclasses.dataclass
class Job:
    """One queued experiment run or sweep, with its full lifecycle state."""

    job_id: int
    kind: str
    experiment_id: str
    seed: int = 0
    quick: bool = False
    params: dict[str, object] = dataclasses.field(default_factory=dict)
    scan: dict[str, object] | None = None
    #: Analyze-kind jobs: the analysis pipeline name to run (see
    #: :data:`repro.analysis.pipelines.PIPELINES`).
    analysis_pipeline: str | None = None
    pipeline: str = "main"
    priority: int = 0
    status: str = PENDING
    cancel_requested: bool = False
    attempt: int = 1
    submitted_unix: float = 0.0
    started_unix: float | None = None
    finished_unix: float | None = None
    #: Progress counters: points finished vs. total (1/1 for run jobs).
    done_points: int = 0
    total_points: int = 1
    #: Filled on completion: the archived run id(s) and cache verdicts.
    run_ids: list[str] = dataclasses.field(default_factory=list)
    cached_points: int = 0
    metrics: dict[str, float] | None = None
    #: Filled on failure: ``type``/``message``/``traceback`` strings.
    error: dict[str, str] | None = None
    #: The executing runner's identity, stamped at claim time (the
    #: master's own workers are a runner too).
    #: Cleared whenever the job returns to ``pending`` so a stale
    #: identity can never outlive the claim it described.
    runner_id: str | None = None
    runner_host: str | None = None
    runner_pid: int | None = None

    def __post_init__(self) -> None:
        """Validate kind/scan consistency and normalise the id fields."""
        if self.kind not in (KIND_RUN, KIND_SWEEP, KIND_ANALYZE):
            raise ConfigurationError(
                f"job kind must be '{KIND_RUN}', '{KIND_SWEEP}' or "
                f"'{KIND_ANALYZE}', got {self.kind!r}"
            )
        if self.kind == KIND_SWEEP and not self.scan:
            raise ConfigurationError("sweep jobs need a scan description")
        if self.kind != KIND_SWEEP and self.scan:
            raise ConfigurationError(f"{self.kind} jobs must not carry a scan")
        if self.kind == KIND_ANALYZE and not self.analysis_pipeline:
            raise ConfigurationError(
                "analyze jobs need an analysis pipeline name"
            )
        if self.kind != KIND_ANALYZE and self.analysis_pipeline:
            raise ConfigurationError(
                f"{self.kind} jobs must not carry an analysis pipeline"
            )
        self.experiment_id = self.experiment_id.upper()
        if not self.pipeline:
            raise ConfigurationError("pipeline name must be non-empty")
        # Jobs are rebuilt from disk over and over (every journal fold,
        # every ended job read back); sharing these few-valued strings
        # keeps each job's footprint to what is really its own.
        for name in ("kind", "experiment_id", "pipeline", "status"):
            value = getattr(self, name)
            if type(value) is str:
                setattr(self, name, sys.intern(value))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def spec(self) -> RunSpec:
        """The engine :class:`RunSpec` of a run-kind job."""
        if self.kind != KIND_RUN:
            raise ConfigurationError(
                f"job {self.job_id} is a {self.kind} job and has no "
                "single-run spec"
            )
        return self._point_spec({})

    def points(self) -> list[tuple[dict[str, object] | None, RunSpec]]:
        """``(scan point, spec)`` pairs of a run or sweep job, in order.

        A run job is one pair with no scan point.  The one point loop,
        :func:`repro.fleet.runner.execute_points`, executes from this
        list on every runner.
        """
        if self.kind == KIND_RUN:
            return [(None, self.spec())]
        from repro.runtime.scan import scan_from_describe

        return [
            (dict(point), self._point_spec(point))
            for point in scan_from_describe(self.scan)
        ]

    def _point_spec(self, point: Mapping[str, object]) -> RunSpec:
        """One scan point's spec: the job's params, overridden by the point."""
        return RunSpec.make(
            self.experiment_id,
            seed=self.seed,
            quick=self.quick,
            params={**self.params, **point},
        )

    def fingerprint(self) -> str | None:
        """The cache fingerprint (run jobs only; None for sweeps)."""
        return self.spec().fingerprint() if self.kind == KIND_RUN else None

    def sort_key(self) -> tuple[int, int]:
        """Claim order: highest priority first, then submission order."""
        return (-self.priority, self.job_id)

    @property
    def is_terminal(self) -> bool:
        """Whether the job has reached a final state."""
        return self.status in TERMINAL

    @property
    def wait_s(self) -> float | None:
        """Seconds spent queued (submission → claim), None while pending."""
        if self.started_unix is None:
            return None
        return max(0.0, round(self.started_unix - self.submitted_unix, 6))

    @property
    def run_s(self) -> float | None:
        """Seconds spent executing (claim → terminal), None until finished."""
        if self.started_unix is None or self.finished_unix is None:
            return None
        return max(0.0, round(self.finished_unix - self.started_unix, 6))

    def label(self) -> str:
        """One-line description used in progress and log messages."""
        parts = [f"#{self.job_id}", self.kind, self.experiment_id]
        if self.analysis_pipeline:
            parts.append(self.analysis_pipeline)
        if self.priority:
            parts.append(f"prio={self.priority}")
        if self.pipeline != "main":
            parts.append(f"pipeline={self.pipeline}")
        return " ".join(parts)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def transition(self, status: str) -> None:
        """Move to ``status``, enforcing the lifecycle state machine."""
        allowed = _TRANSITIONS.get(self.status, set())
        if status not in allowed:
            raise ConfigurationError(
                f"job {self.job_id} cannot go {self.status!r} → {status!r}; "
                f"allowed: {sorted(allowed)}"
            )
        self.status = status
        now = time.time()
        if status == RUNNING:
            self.started_unix = now
        elif status in TERMINAL:
            self.finished_unix = now
        elif status == PENDING:  # requeue
            self.reset_to_pending()

    def reset_to_pending(self) -> None:
        """Return a running job to ``pending`` for another attempt.

        The lease-expiry twin of the ``requeue`` transition: same field
        resets and attempt bump, but entered from ``running`` — the
        state machine reserves ``terminal → pending`` for requeue, and
        a job abandoned by a dead runner was never terminal.
        """
        self.status = PENDING
        self.attempt += 1
        self.cancel_requested = False
        self.started_unix = None
        self.finished_unix = None
        self.done_points = 0
        self.run_ids = []
        self.cached_points = 0
        self.metrics = None
        self.error = None
        self.clear_runner()

    def serve_cached(self, run_id: str, metrics: Mapping[str, float]) -> None:
        """End a running job as done from one cached point."""
        self.transition(DONE)
        self.done_points = self.total_points = self.cached_points = 1
        self.run_ids = [run_id]
        self.metrics = dict(metrics)

    def assign_runner(
        self, runner_id: str, host: str | None, pid: int | None
    ) -> None:
        """Stamp the executing worker's identity onto the job."""
        self.runner_id = str(runner_id)
        self.runner_host = str(host) if host else None
        self.runner_pid = int(pid) if pid else None

    def clear_runner(self) -> None:
        """Drop the runner identity (the claim it described is gone)."""
        self.runner_id = None
        self.runner_host = None
        self.runner_pid = None

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """The JSON-native document of the job: its :meth:`fields`, plus
        derived human-readable timing.

        The derived block carries ISO-8601 ``queued_at``/``started_at``/
        ``finished_at`` plus ``wait_s`` (queue wait) and ``run_s``
        (execution time).  :meth:`from_dict` ignores unknown keys, so
        the derived block never threatens the round-trip.  Only the
        container fields are copied (``dataclasses.asdict`` would deep
        copy everything), so mutating the document never reaches back
        into the job.
        """
        document = {k: _copy_json(v) for k, v in self.fields().items()}
        document["queued_at"] = _iso(self.submitted_unix)
        document["started_at"] = _iso(self.started_unix)
        document["finished_at"] = _iso(self.finished_unix)
        document["wait_s"] = self.wait_s
        document["run_s"] = self.run_s
        return document

    def fields(self, names: Iterable[str] | None = None) -> dict[str, object]:
        """The named dataclass fields (default: all, in declaration
        order), as the job holds them: nothing is copied."""
        if names is None:
            names = _FIELD_ORDER
        return {name: getattr(self, name) for name in names}

    def apply(self, changes: Mapping[str, Any]) -> None:
        """Set the fields one journal line carries (see :meth:`fields`).

        ``run_ids_from``, when present, says the line's ``run_ids`` are
        the list's tail from that index on, not the whole list.
        """
        for name, value in changes.items():
            if name == "run_ids":
                value = self.run_ids[: changes.get("run_ids_from", 0)] + value
            if name in _FIELDS:
                setattr(self, name, value)

    @classmethod
    def from_dict(cls, document: Mapping[str, object]) -> "Job":
        """Rebuild a job from :meth:`to_dict` output (unknown keys ignored)."""
        kwargs = {k: v for k, v in document.items() if k in _FIELDS}
        try:
            return cls(**kwargs)
        except TypeError as error:
            raise ConfigurationError(
                f"unreadable job document (missing fields): {error}"
            ) from error


#: The dataclass field names, in declaration order.
_FIELD_ORDER = tuple(field.name for field in dataclasses.fields(Job))

#: The dataclass field names :meth:`Job.from_dict` accepts.
_FIELDS = frozenset(_FIELD_ORDER)


def _copy_json(value: object) -> object:
    """A copy of a JSON-like value: containers rebuilt, scalars shared."""
    if isinstance(value, dict):
        return type(value)(
            (key, _copy_json(item)) for key, item in value.items()
        )
    if isinstance(value, (list, tuple)):
        return type(value)(_copy_json(item) for item in value)
    return value
