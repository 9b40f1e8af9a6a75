"""Crash-safe persistent job queue under ``<engine root>/queue/``.

Layout::

    <root>/queue/journal.jsonl     sequenced event log, the source of
                                   truth: one line per job transition,
                                   and the long-poll feed
    <root>/queue/journal-1.jsonl   the generation rotated out at
                                   JOURNAL_MAX_LINES lines
    <root>/queue/journal.lock      flock taken by every store writing
                                   the journal
    <root>/queue/jobs/<id>.json    the job's snapshot: written when it
                                   ends (or, live, before a rotation)
                                   and emptied if it is requeued
    <root>/queue/jobs/<id>.claim   O_EXCL claim marker while a lease
                                   runs the job (holder pid, worker)
    <root>/queue/service.json      live server address (written by the
                                   HTTP layer, see repro.service.api)

Durability model: each job transition is one fsynced journal line (a
rotating :class:`~repro.utils.journal.Journal`).  A submission line
carries the whole job document; later lines carry the fields the
transition changed, and a job's state is the fold of its lines.  A job
that ends also gets its snapshot in ``jobs/<id>.json``, and every live
job does before an append that rotates the journal, so the lines a
rotation drops are always covered by a snapshot.  Opening a store
folds the journal onto the snapshots; a root whose journal lines carry
no job fields (the older layout, where job files were rewritten on
every transition) is read from its job files alone.  On restart with
``recover=True`` any job found ``running`` is returned to ``pending``
(its server died mid-run) and stale claim markers are released.

Concurrency model: one :class:`JobStore` instance is thread-safe via a
single condition variable (submitters notify waiting claimers and
long-pollers).  Several stores, in one process or many, may share a
queue directory: each transition, id allocation included, is made under
the journal's lock after folding the lines the other stores appended
(:meth:`JobStore._follow`), and waiters follow the journal while they
wait.  A leased job also gets an O_EXCL claim marker naming its
holder's pid, so recovery can tell a live daemon's job from an orphan.

Deduplication: a run-kind submission whose fingerprint is already in
the engine's result cache completes instantly as a cache hit, and one
that matches a live (pending/running) job coalesces onto it — the
many-clients-one-cache behaviour the paper's sweep campaigns need.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from collections.abc import Iterable, Mapping
from operator import attrgetter
from typing import Any

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import names as obs_names
from repro.runtime.engine import RunEngine, default_root
from repro.service.jobs import (
    ANALYSIS_EXPERIMENT,
    CANCELLED,
    DONE,
    KIND_ANALYZE,
    KIND_RUN,
    KIND_SWEEP,
    PENDING,
    RUNNING,
    STATUSES,
    TERMINAL,
    Job,
)
from repro.utils.io import atomic_write_text
from repro.utils.journal import Journal

#: Directory and file names inside the engine root.
QUEUE_DIR = "queue"
JOBS_DIR = "jobs"
JOURNAL_FILE = "journal.jsonl"

#: How many recent events the journal's in-memory long-poll tail keeps.
EVENT_BUFFER = 4096

#: Live journal lines at which the journal rotates to ``journal-1.jsonl``
#: (one line per job transition and sweep point).
JOURNAL_MAX_LINES = 20_000

#: Longest a waiter sleeps before looking for other stores' transitions.
FOLLOW_S = 0.05

#: The journal-entry key of the job fields a line carries.  It is kept
#: out of the event feed, which serves the rest of the entry.
STATE = "job"

#: The job fields each transition sets; a submission carries them all.
STARTED = ("status", "started_unix", "runner_id", "runner_host", "runner_pid")
PROGRESS = ("done_points", "total_points", "cached_points")
FINISHED = ("status", "finished_unix", "metrics", "error")
SERVED = (*STARTED, *PROGRESS, "finished_unix", "run_ids", "metrics")
RESET = (
    *STARTED, *PROGRESS, *FINISHED[1:], "attempt", "cancel_requested",
    "run_ids",
)


class JobStore:
    """The persistent, thread-safe priority queue of service jobs."""

    def __init__(
        self,
        root: str | pathlib.Path | None = None,
        recover: bool = False,
    ) -> None:
        self.root = pathlib.Path(root) if root is not None else default_root()
        self.queue_dir = self.root / QUEUE_DIR
        self.jobs_dir = self.queue_dir / JOBS_DIR
        self.journal_path = self.queue_dir / JOURNAL_FILE
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        #: ``jobs_dir`` as a string: job files are written through plain
        #: strings, since a ``Path`` per write interns every new name.
        self._jobs_dir = os.fspath(self.jobs_dir)
        self._lock = threading.RLock()
        #: Notified on every transition; ``_work`` only when a job
        #: becomes pending, so idle claimers sleep through the rest.
        self._changed = threading.Condition(self._lock)
        self._work = threading.Condition(self._lock)
        self._jobs: dict[int, Job] = {}
        #: The status index, kept in step with every job that enters
        #: ``_jobs`` (:meth:`_put`) or changes status (:meth:`_index`)
        #: so scheduling reads never scan every job: the ids of each
        #: status in a set, except ``done`` — the bulk of a long-lived
        #: queue, which the index only counts.  A known id in no set is
        #: done.
        self._by_status: dict[str, set[int]] = {
            status: set() for status in STATUSES if status != DONE
        }
        self._done = 0
        #: The highest job id allocated or named by a line or job file.
        self._max_id = 0
        #: Bumped with every ``_work`` notification: a claimer reads it
        #: before a claim pass and hands it to :meth:`wait_for_work`.
        self.work_seq = 0
        #: Ended jobs whose snapshot write failed; rotation retries them.
        self._unsnapshotted: set[int] = set()
        self.journal = Journal(
            self.journal_path,
            JOURNAL_MAX_LINES,
            tail=EVENT_BUFFER,
            on_read=_count_journal_read,
        )
        self._load(recover=recover)

    # ------------------------------------------------------------------
    # Loading and recovery
    # ------------------------------------------------------------------
    def _load(self, recover: bool) -> None:
        """Read the snapshots and fold the whole journal onto them."""
        with self._changed, self.journal.locked():
            self.journal.rewind()
            self._follow()
            if recover:
                self._recover()

    def _read_snapshots(self) -> dict[int, float | None]:
        """Set every job to its snapshot (lock held); returns each
        snapshotted job's ``finished_unix``.

        Known jobs are updated in place, so the objects callers hold
        stay this store's own.
        """
        ended: dict[int, float | None] = {}
        for path in self.jobs_dir.glob("*.json"):
            if path.stem.isdigit():  # its id is taken, whatever it holds
                self._max_id = max(self._max_id, int(path.stem))
            try:
                document = json.loads(path.read_text(encoding="utf-8"))
                job = self._jobs.get(document["job_id"])
                if job is None:
                    job = Job.from_dict(document)
            except (OSError, ValueError, KeyError, TypeError,
                    ConfigurationError):
                continue  # emptied, or a torn or foreign file
            if job.job_id in self._jobs:
                job.apply(document)
            self._put(job)
            ended[job.job_id] = job.finished_unix
        return ended

    def _recover(self) -> None:
        """Return orphaned ``running`` jobs to ``pending`` after a crash,
        and write the snapshots the crash skipped.

        Only *orphaned* ones: a running job whose claim marker names a
        still-alive pid belongs to another daemon sharing this root and
        must be left alone — recovery fences dead servers, it must not
        steal live work.  Stale markers go after their jobs' reset.
        """
        for job_id in sorted(self._unsnapshotted):
            self._snapshot(self._jobs[job_id])
        alive = {p: _holder_alive(p) for p in self.jobs_dir.glob("*.claim")}
        for job in self._with_status(RUNNING):
            if not alive.get(self._claim_path(job.job_id)):
                job.status = PENDING
                job.started_unix = None
                job.clear_runner()
                self._persist(job, "recovered", STARTED)
        for path, held in alive.items():
            if not held:
                path.unlink(missing_ok=True)

    def _follow(self) -> None:
        """Fold the lines other stores journaled since this one looked.

        Each transition is made after this call under the journal's
        lock, so it always starts from the queue's current state.  When
        the journal rewound (at open, or when lines rotated out before
        this store read them) the snapshots are read first: rotation
        snapshots every live job before it drops a generation.  An
        ended job whose snapshot is missing or older than its last line
        (a crash came between the two) is snapshotted again: at once
        when recovering, else when the journal next rotates.  A waiter
        is woken when anything was folded.
        """
        entries, rewound = self.journal.follow()
        ended = self._read_snapshots() if rewound else {}
        folded = [self._fold(entry) for entry in entries]
        if rewound:
            self._unsnapshotted.update(
                job.job_id
                for job in self._jobs.values()
                if job.is_terminal
                and ended.get(job.job_id) != job.finished_unix
            )
        if rewound or any(folded):
            self._changed.notify_all()
            self._wake_claimers()

    def _fold(self, entry: Mapping[str, object]) -> bool:
        """Apply one journal line's job fields (caller holds the lock).

        A line without fields (the older layout) or naming a job this
        store cannot build is skipped, but its id is never handed out.
        """
        state = entry.pop(STATE, None)  # the tail keeps the summary
        job_id = entry.get("job_id")
        if type(job_id) is int:
            self._max_id = max(self._max_id, job_id)
        if not isinstance(state, dict) or type(job_id) is not int:
            return False
        job = self._jobs.get(job_id)
        if job is None:
            try:
                job = Job.from_dict(state)
            except (ConfigurationError, TypeError, ValueError, AttributeError):
                return False
            self._put(job)
        else:
            job.apply(state)
            self._index(job)
        return True

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        experiment_id: str,
        seed: int = 0,
        quick: bool = False,
        params: Mapping[str, object] | None = None,
        scan: Mapping[str, object] | None = None,
        analysis: str | None = None,
        priority: int = 0,
        pipeline: str = "main",
        dedupe: bool = True,
        engine: RunEngine | None = None,
    ) -> tuple[Job, bool]:
        """Enqueue one run, sweep or analysis; returns ``(job, deduplicated)``.

        With ``dedupe`` (the default) a run submission coalesces onto an
        identical live job, and — when ``engine`` is given — a spec
        already in the result cache completes instantly without ever
        entering the queue.  ``scan`` selects a sweep job and must be a
        ``Scan.describe()`` document; ``analysis`` selects an analyze
        job carrying a pipeline name (analyze submissions dedupe onto a
        live analyze job of the same pipeline — the analysis layer's
        own content-addressed cache handles result reuse).
        """
        job = _new_job(
            experiment_id, seed, quick, params, scan, analysis, priority,
            pipeline,
        )
        kind = job.kind
        # Cache consult happens *outside* the store lock: a hit on a
        # pruned run re-archives it (numpy + npz writes), and that disk
        # work must not stall claims and long-polls.  The cache is
        # append-only, so the outcome cannot go stale while we wait.
        outcome = None
        if dedupe and kind == KIND_RUN and engine is not None:
            if engine.cache is not None:
                outcome = engine.lookup(job.spec())
        with self._changed, self.journal.locked():
            self._follow()
            if dedupe and kind == KIND_RUN:
                twin = self._live_twin(job)
                if twin is not None:
                    return twin, True
                if outcome is not None:
                    job.job_id = self._allocate_id()
                    job.transition(RUNNING)
                    job.serve_cached(outcome.run_id, outcome.result.metrics)
                    self._put(job)
                    self._persist(job, "cached")
                    return job, True
            if dedupe and kind == KIND_ANALYZE:
                twin = self._live_analysis_twin(job)
                if twin is not None:
                    return twin, True
            job.job_id = self._allocate_id()
            self._put(job)
            self._persist(job, "submitted")
        return job, False

    def submit_batch(
        self, requests: Iterable[Mapping[str, Any]]
    ) -> list[Job]:
        """Bulk-enqueue submissions with ONE fsynced journal append.

        The load-generator path: no dedupe and no cache consult — the
        caller (benchmarks, campaign scripts) pre-validated its specs
        and wants enqueue cost dominated by one journal append, not by
        per-job fsync pacing.  Each request is a mapping with the
        :meth:`submit` keyword fields (``experiment_id`` required;
        ``seed``/``quick``/``params``/``scan``/``analysis``/
        ``priority``/``pipeline`` optional).
        """
        with self._changed, self.journal.locked():
            self._follow()
            jobs = [
                _new_job(**request, job_id=self._allocate_id())
                for request in requests
            ]
            for job in jobs:
                self._put(job)
            self._persist_batch(
                [(job, self._entry(job, "submitted")) for job in jobs]
            )
        return jobs

    def _allocate_id(self) -> int:
        """The next free job id (caller holds both locks and followed).

        Every id handed out is in a journal line this store folded, or
        (rotated out) names a job file it read, so the next is free.
        """
        self._max_id += 1
        return self._max_id

    def _live_twin(self, job: Job) -> Job | None:
        """The oldest pending/running job with the same fingerprint, if any."""
        fingerprint = job.fingerprint()
        twins = [
            other
            for status in (PENDING, RUNNING)
            for other in self._with_status(status)
            if other.kind == KIND_RUN and other.fingerprint() == fingerprint
        ]
        return min(twins, key=attrgetter("job_id"), default=None)

    def _live_analysis_twin(self, job: Job) -> Job | None:
        """A *pending* analyze job of the same pipeline, if any.

        Only pending twins coalesce: a running analyze job already
        snapshotted the archive index, so a submission arriving after
        new runs were archived must queue its own job or it would be
        answered with a stale report.  (Run-kind dedupe has no such
        hazard — its fingerprint fully determines the result.)
        """
        twins = [
            other
            for other in self._with_status(PENDING)
            if other.kind == KIND_ANALYZE
            and other.analysis_pipeline == job.analysis_pipeline
        ]
        return min(twins, key=attrgetter("job_id"), default=None)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def claim(
        self,
        worker: str,
        max_jobs: int,
        classify,
        identity: tuple[str, str | None, int | None] | None = None,
        max_leased: int | None = None,
    ) -> tuple[list[Job], list[Job]]:
        """Claim up to ``max_jobs`` pending jobs in one locked pass.

        The one way a job leaves ``pending`` (for a runner, through
        :meth:`FleetCoordinator.claim
        <repro.fleet.coordinator.FleetCoordinator.claim>`), in claim
        order (:meth:`Job.sort_key`), under the journal's lock.
        ``classify(job)`` is called under the store lock (so it must be
        cheap — a cache *probe*, not a cache read) and returns one of:

        - ``None`` — skip; the job stays pending for another claimant,
        - ``"lease"`` — claim it ``running`` for the caller to execute
          under an O_EXCL claim marker (skipped if another holds it),
        - ``("compute", fingerprint)`` — a run job the cache misses:
          leased, unless a running job has that fingerprint; then it
          stays pending until that twin ends and a claim serves it,
        - ``("serve", run_id, metrics)`` — an already-cached run-kind
          job; it completes instantly, never leaving the master, and
          no other store ever sees it running.

        Past ``max_leased`` leases (default: no bound), jobs to lease
        stay pending while cached ones are still served.  Returns
        ``(served, leased)``; the batch's lines land in one fsynced
        append (:meth:`_persist_batch`).
        """
        served: list[Job] = []
        leased: list[Job] = []
        batch: list[tuple[Job, dict[str, object]]] = []
        computing: set[str | None] | None = None  # built when needed
        with self._changed, self.journal.locked():
            self._follow()
            for job in sorted(self._with_status(PENDING), key=Job.sort_key):
                if len(served) + len(leased) >= max_jobs:
                    break
                verdict = classify(job)
                if verdict is None:
                    continue
                tag = verdict if isinstance(verdict, str) else verdict[0]
                lease = tag != "serve" or job.kind != KIND_RUN
                if lease and len(leased) == max_leased:
                    continue
                key = verdict[1] if tag == "compute" else None
                if key is not None:
                    if computing is None:
                        running = self._with_status(RUNNING)
                        computing = {other.fingerprint() for other in running}
                    if key in computing:
                        continue  # served once its running twin ends
                if lease and not self._take_claim(job.job_id, worker):
                    continue
                job.transition(RUNNING)
                if identity is not None:
                    job.assign_runner(*identity)
                if lease:
                    if computing is not None:
                        computing.add(key)
                    batch.append((job, self._entry(
                        job, "started", STARTED, worker=worker
                    )))
                    leased.append(job)
                    continue
                job.serve_cached(*verdict[1:])
                batch.append((job, self._entry(
                    job, "served", SERVED, worker=worker
                )))
                served.append(job)
            self._persist_batch(batch)
        return served, leased

    def release(self, job: Job, event: str = "lease_expired") -> None:
        """Return a running job to ``pending`` after its lease died.

        The remote twin of crash :meth:`_recover`: the runner stopped
        heartbeating, so its claim is void.  The attempt counter bumps
        (this *was* an execution attempt) and the runner identity is
        cleared; the claim marker is unlinked only after the pending
        state is durable, mirroring :meth:`finish`.
        """
        with self._changed, self.journal.locked():
            self._follow()
            if job.status != RUNNING:
                return
            job.reset_to_pending()
            self._persist(job, event, RESET)
            self._claim_path(job.job_id).unlink(missing_ok=True)

    def _claim_path(self, job_id: int) -> pathlib.Path:
        """The claim-marker path of one job id."""
        return self.jobs_dir / f"{job_id}.claim"

    def _take_claim(self, job_id: int, worker: str) -> bool:
        """Create the O_EXCL claim marker; False if another holder won."""
        marker = self._claim_path(job_id)
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.write(fd, f"{os.getpid()} {worker}\n".encode())
        os.close(fd)
        return True

    def update_progress(
        self,
        job: Job,
        done_points: int,
        total_points: int,
        run_id: str | None = None,
        cached: bool = False,
    ) -> None:
        """Journal one finished sweep point of a running job."""
        with self._changed, self.journal.locked():
            self._follow()
            job.done_points = done_points
            job.total_points = total_points
            if cached:
                job.cached_points += 1
            entry = self._entry(job, "progress", PROGRESS)
            if run_id is not None:
                # Only the new id: the line splices it onto the list.
                entry[STATE].update(
                    run_ids=[run_id], run_ids_from=len(job.run_ids)
                )
                job.run_ids.append(run_id)
            self._persist_batch([(job, entry)])

    def finish(
        self,
        job: Job,
        status: str,
        metrics: Mapping[str, float] | None = None,
        error: Mapping[str, str] | None = None,
    ) -> None:
        """Transition a running job to a terminal state and persist it."""
        with self._changed, self.journal.locked():
            self._follow()
            job.transition(status)
            if metrics is not None:
                job.metrics = dict(metrics)
            if error is not None:
                job.error = dict(error)
            # Persist the terminal state *before* releasing the claim
            # marker: a second store sharing this queue directory must
            # never win the marker of a job it still sees running.
            self._persist(job, status, FINISHED)
            self._claim_path(job.job_id).unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------
    def get(self, job_id: int) -> Job:
        """The job with ``job_id`` (ConfigurationError if unknown)."""
        with self._lock:
            job = self._jobs.get(int(job_id))
            if job is None:
                known = (
                    f"{len(self._jobs)} known, ids "
                    f"{min(self._jobs)}..{max(self._jobs)}"
                    if self._jobs
                    else "none yet"
                )
                raise ConfigurationError(f"no job {job_id}; {known}")
        return job

    def jobs(self, status: str | None = None) -> list[Job]:
        """All jobs (optionally filtered by status), in claim order."""
        with self._lock:
            if status is None:
                return sorted(self._jobs.values(), key=Job.sort_key)
            return sorted(self._with_status(status), key=Job.sort_key)

    def counts(self) -> dict[str, int]:
        """How many jobs are in each status (empty statuses omitted).

        Read from the status index: O(number of statuses), whatever the
        queue length.
        """
        with self._lock:
            counts = {
                status: len(ids)
                for status, ids in self._by_status.items()
                if ids
            }
            if self._done:
                counts[DONE] = self._done
            return counts

    def cancel(self, job_id: int) -> Job:
        """Cancel a job: immediate when pending, cooperative when running.

        A running job only observes the request at its next sweep-point
        boundary; terminal jobs reject cancellation.
        """
        with self._changed, self.journal.locked():
            self._follow()
            job = self.get(job_id)
            if job.is_terminal:
                raise ConfigurationError(
                    f"job {job_id} is already {job.status}"
                )
            if job.status == PENDING:
                job.transition(CANCELLED)
                self._persist(job, CANCELLED, FINISHED)
            else:
                job.cancel_requested = True
                self._persist(job, "cancel_requested", ("cancel_requested",))
        return job

    def requeue(self, job_id: int) -> Job:
        """Return a terminal job to ``pending`` (attempt counter bumped).

        The ``requeued`` line carries the whole job, as a submission
        does, so the job's snapshot is emptied: it describes an attempt
        that is over.
        """
        with self._changed, self.journal.locked():
            self._follow()
            job = self.get(job_id)
            job.transition(PENDING)
            self._persist(job, "requeued")
            self.job_path(job.job_id).write_bytes(b"")
        return job

    def snapshot(self) -> dict[str, object]:
        """Queue-wide counts plus every job's summary document."""
        with self._lock:
            jobs = self.jobs()
            counts = self.counts()
            seq = self.journal.seq
        return {
            "root": str(self.root),
            "seq": seq,
            "counts": counts,
            "jobs": [job.to_dict() for job in jobs],
        }

    # ------------------------------------------------------------------
    # Events and waiting
    # ------------------------------------------------------------------
    @property
    def seq(self) -> int:
        """The monotonically increasing sequence number of the last event."""
        return self.journal.seq

    def wait_events(
        self, since: int, timeout: float = 0.0
    ) -> tuple[list[dict[str, object]], bool]:
        """Long-poll: block up to ``timeout`` seconds for new events.

        Returns ``(events with seq > since, gap)`` from
        :meth:`Journal.since <repro.utils.journal.Journal.since>`;
        ``gap`` marks that events between ``since`` and the first
        returned event were rotated out of the journal.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        with self._changed:
            while True:
                fresh, gap = self.journal.since(since)
                if fresh or gap:
                    return [_summary(entry) for entry in fresh], gap
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], False
                self._changed.wait(remaining)

    def wait_job(self, job_id: int, timeout: float = 0.0) -> Job:
        """Long-poll: block up to ``timeout`` seconds for a terminal state.

        Returns the job in whatever state it is in when the wait ends;
        callers check :attr:`Job.is_terminal`.
        """
        with self._changed:
            self._wait_until(lambda: self.get(job_id).is_terminal, timeout)
            return self.get(job_id)

    def wait_for_work(self, since: int, timeout: float) -> bool:
        """Block a claimer until a job may have become claimable.

        ``since`` is the :attr:`work_seq` read before a claim pass that
        took nothing: True at once if a job became pending since (so no
        submission is missed), else when one does; False on timeout.
        """
        with self._changed:
            return self.work_seq != since or self._work.wait(timeout)

    def wait_idle(self, timeout: float) -> bool:
        """Block until no job is pending or running (False on timeout).

        Re-checks the status index when a transition is journaled (or
        :meth:`kick` is called), and after folding other stores' lines
        every :data:`FOLLOW_S` without one — never in a busy loop.
        """
        with self._changed:
            return self._wait_until(lambda: not self._live(), timeout)

    def _wait_until(self, ready, timeout: float) -> bool:
        """Wait (lock held) until ``ready()``, following the journal."""
        deadline = time.monotonic() + max(0.0, timeout)
        while not ready():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            if not self._changed.wait(min(remaining, FOLLOW_S)):
                self._follow()
        return True

    def kick(self) -> None:
        """Wake every waiter (used by worker shutdown and tests)."""
        with self._changed:
            self._changed.notify_all()
            self._wake_claimers()

    def _wake_claimers(self) -> None:
        """Wake the claimers waiting for work (caller holds the lock)."""
        self.work_seq += 1
        self._work.notify_all()

    # ------------------------------------------------------------------
    # Persistence internals
    # ------------------------------------------------------------------
    def job_path(self, job_id: int) -> pathlib.Path:
        """The snapshot path of one job id."""
        return pathlib.Path(self._job_file(job_id))

    def _job_file(self, job_id: int) -> str:
        """:meth:`job_path` as a plain string."""
        return os.path.join(self._jobs_dir, f"{job_id}.json")

    def _persist(
        self, job: Job, event: str, fields: Iterable[str] | None = None,
        **extra: object,
    ) -> None:
        """Journal one transition of ``job`` (caller holds both locks).

        ``fields`` names the job fields the transition set; None (a
        job's first line) carries them all.
        """
        self._persist_batch([(job, self._entry(job, event, fields, **extra))])

    def _persist_batch(
        self, batch: list[tuple[Job, dict[str, object]]]
    ) -> None:
        """Journal many prepared entries with ONE fsynced append.

        Caller holds both locks and built each entry with
        :meth:`_entry`.  The batched claim and submit paths hand it all
        their lines at once, so a batch costs one fsync.  Jobs the batch
        ended are counted and snapshotted after the append, and every
        live job is snapshotted before an append that rotates the journal.
        """
        if not batch:
            return
        if self.journal.lines + len(batch) >= self.journal.max_lines:
            self._snapshot_live()
        self.journal.append(entry for _, entry in batch)
        for _, entry in batch:
            del entry[STATE]  # the journal's tail keeps the summary
        if obs.enabled():
            obs.gauge(obs_names.METRIC_QUEUE_DEPTH, self._live())
        self._changed.notify_all()
        if any(job.status == PENDING for job, _ in batch):
            self._wake_claimers()
        for job, _ in batch:
            if job.is_terminal:  # counted once, however it ended
                obs.count(obs_names.METRIC_JOBS_FINISHED, status=job.status)
                if job.wait_s is not None:
                    obs.observe(
                        obs_names.METRIC_QUEUE_WAIT_SECONDS, job.wait_s
                    )
                self._snapshot(job)

    def _entry(
        self, job: Job, event: str, fields: Iterable[str] | None = None,
        **extra: object,
    ) -> dict[str, object]:
        """Index ``job``'s status and build (but not journal) its event.

        Returns the journal entry (the journal stamps its ``seq``): the
        event summary the feed serves, plus the job fields under
        :data:`STATE`.
        """
        self._index(job)
        entry: dict[str, object] = {
            "unix": time.time(),
            "event": event,
            "job_id": job.job_id,
            "kind": job.kind,
            "status": job.status,
            "experiment_id": job.experiment_id,
            "done_points": job.done_points,
            "total_points": job.total_points,
        }
        if job.wait_s is not None:
            entry["wait_s"] = job.wait_s
        entry.update(extra)
        entry[STATE] = job.fields(fields)
        return entry

    def _snapshot(self, job: Job) -> None:
        """Write ``job``'s document to its job file (caller holds the lock)."""
        self._unsnapshotted.add(job.job_id)
        atomic_write_text(
            self._job_file(job.job_id),
            json.dumps(job.to_dict(), sort_keys=True),
        )
        self._unsnapshotted.discard(job.job_id)

    def _snapshot_live(self) -> None:
        """Snapshot every job whose state the journal alone holds.

        Runs before an append that rotates the journal, so before the
        older generation's lines are dropped: live jobs, and ended jobs
        whose snapshot write failed.
        """
        for job_id in sorted(
            self._by_status[PENDING] | self._by_status[RUNNING]
            | self._unsnapshotted
        ):
            self._snapshot(self._jobs[job_id])

    def _put(self, job: Job) -> None:
        """Insert or replace ``job`` in ``_jobs`` and the index (lock held)."""
        known = job.job_id in self._jobs
        self._jobs[job.job_id] = job
        if known:
            self._index(job)
        else:
            self._count(job.job_id, job.status, +1)

    def _index(self, job: Job) -> None:
        """Record a known job's current status (caller holds the lock).

        Only the store's own job objects are indexed: a caller passing
        an object ``_jobs`` does not hold (a stale copy, another store's
        job) changes the journal but not this store's view.
        """
        if self._jobs.get(job.job_id) is not job:
            return
        previous = next(
            (s for s, ids in self._by_status.items() if job.job_id in ids),
            DONE,
        )
        if previous != job.status:
            self._count(job.job_id, previous, -1)
            self._count(job.job_id, job.status, +1)

    def _count(self, job_id: int, status: str, delta: int) -> None:
        """Add (``+1``) or remove (``-1``) one id under ``status``."""
        if status == DONE:
            self._done += delta
        elif delta > 0:
            self._by_status.setdefault(status, set()).add(job_id)
        else:
            self._by_status[status].discard(job_id)

    def _live(self) -> int:
        """How many jobs are pending or running, from the status index."""
        return len(self._by_status[PENDING]) + len(self._by_status[RUNNING])

    def _with_status(self, status: str) -> list[Job]:
        """The jobs in ``status``, from the index (caller holds the lock).

        Each job's own status is re-checked, so a stale index entry can
        only drop a candidate, never admit a job in another state.
        ``done`` jobs have no id set and are found by a scan.
        """
        if status == DONE:
            candidates: Iterable[Job] = self._jobs.values()
        else:
            ids = self._by_status.get(status, ())
            candidates = map(self._jobs.__getitem__, ids)
        return [job for job in candidates if job.status == status]


def _count_journal_read(skipped: int, fallback: bool) -> None:
    """Count a queue-journal read's disk fallback and skipped lines."""
    if fallback:
        obs.count(obs_names.METRIC_EVENTS_JOURNAL_FALLBACKS)
    if skipped:
        obs.count(obs_names.METRIC_QUEUE_JOURNAL_MALFORMED, skipped)


def _summary(entry: dict[str, object]) -> dict[str, object]:
    """A journal entry as the event feed serves it: without the job
    fields it carries when read back from the files."""
    if STATE not in entry:
        return entry
    return {key: value for key, value in entry.items() if key != STATE}


def _holder_alive(marker: pathlib.Path) -> bool:
    """Whether the pid written into a claim marker is still running.

    A SIGKILLed daemon can linger as an unreaped *zombie* — its pid
    still answers ``kill(pid, 0)`` but it will never finish its jobs —
    so on Linux the ``/proc`` state is consulted too.
    """
    try:
        pid = int(marker.read_text(encoding="utf-8").split()[0])
    except (OSError, ValueError, IndexError):
        return False
    if pid == os.getpid():
        return False  # our own previous life cannot still be running
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by another user
    except OSError:
        return False
    return not _is_zombie(pid)


def _is_zombie(pid: int) -> bool:
    """Whether a pid is a zombie (Linux ``/proc``; False where absent)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
        # Field 3, after the parenthesised (possibly space-laden) comm.
        return stat.rpartition(")")[2].split()[0] == "Z"
    except (OSError, IndexError):
        return False


def _new_job(
    experiment_id: str = "",
    seed: int = 0,
    quick: bool = False,
    params: Mapping[str, object] | None = None,
    scan: Mapping[str, object] | None = None,
    analysis: str | None = None,
    priority: int = 0,
    pipeline: str = "main",
    job_id: int = 0,
) -> Job:
    """A pending job of the submission fields :meth:`JobStore.submit`
    takes (a sweep carries ``scan``, an analysis ``analysis``)."""
    if analysis and scan:
        raise ConfigurationError(
            "a submission is either a scan sweep or an analysis, not both"
        )
    return Job(
        job_id=job_id,
        kind=KIND_ANALYZE if analysis else KIND_SWEEP if scan else KIND_RUN,
        experiment_id=ANALYSIS_EXPERIMENT if analysis else str(experiment_id),
        seed=int(seed),
        quick=bool(quick),
        params=dict(params or {}),
        scan=dict(scan) if scan else None,
        analysis_pipeline=analysis or None,
        pipeline=str(pipeline),
        priority=int(priority),
        submitted_unix=time.time(),
    )
