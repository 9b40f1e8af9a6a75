"""Crash-safe persistent job queue under ``<engine root>/queue/``.

Layout::

    <root>/queue/jobs/<id>.json    per-job status file (atomic writes,
                                   the source of truth)
    <root>/queue/jobs/<id>.claim   O_EXCL claim marker while running
    <root>/queue/journal.jsonl     sequenced event log: each job
                                   transition's one durable record
                                   and the long-poll feed
    <root>/queue/journal-1.jsonl   the generation rotated out at
                                   JOURNAL_MAX_LINES lines
    <root>/queue/service.json      live server address (written by the
                                   HTTP layer, see repro.service.api)

Durability model: every job mutation rewrites the job file atomically
and appends one event line to the journal (a rotating
:class:`~repro.utils.journal.Journal`), so killing the process at any
instant leaves a readable queue.  On restart with ``recover=True``
any job found ``running`` is returned to ``pending`` (its server died
mid-run) and stale claim markers are released — the acceptance
criterion of surviving a kill mid-drain.

Concurrency model: one :class:`JobStore` instance is thread-safe via a
single condition variable (submitters notify waiting scheduler workers
and long-pollers).  Two *processes* sharing a queue directory are kept
from double-running a job by the O_EXCL claim markers.

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

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import names as obs_names
from repro.service import datasets
from repro.runtime.engine import RunEngine, RunSpec, default_root
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

#: A transition written by :meth:`JobStore._write_entry` but not yet
#: journaled: ``(journal entry, job document)``.
_Prepared = tuple[dict[str, object], dict[str, object]]


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
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
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
        #: The highest job id this store has loaded or allocated.
        self._max_id = 0
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
        """Read every job file back into memory."""
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                document = json.loads(path.read_text(encoding="utf-8"))
                job = Job.from_dict(document)
            except (OSError, ValueError, ConfigurationError):
                continue  # torn or foreign file; jobs are single-writer
            self._put(job)
            self._max_id = max(self._max_id, job.job_id)
        if recover:
            self._recover()

    def _recover(self) -> None:
        """Return orphaned ``running`` jobs to ``pending`` after a crash.

        Only *orphaned* ones: a running job whose claim marker names a
        still-alive pid belongs to another daemon sharing this root and
        must be left alone — recovery fences dead servers, it must not
        steal live work.
        """
        with self._changed:
            for job in self._jobs.values():
                if self._claim_holder_alive(job.job_id):
                    continue
                if job.status == RUNNING:
                    job.status = PENDING
                    job.started_unix = None
                    job.clear_runner()
                    self._persist(job, "recovered")
                self._claim_path(job.job_id).unlink(missing_ok=True)

    def _claim_holder_alive(self, job_id: int) -> bool:
        """Whether the pid written into a claim marker is still running.

        A SIGKILLed daemon can linger as an unreaped *zombie* — its pid
        still answers ``kill(pid, 0)`` but it will never finish its
        jobs — so on Linux the ``/proc`` state is consulted too.
        """
        try:
            text = self._claim_path(job_id).read_text(encoding="utf-8")
            pid = int(text.split()[0])
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
        if analysis and scan:
            raise ConfigurationError(
                "a submission is either a scan sweep or an analysis, not both"
            )
        if analysis:
            kind = KIND_ANALYZE
            experiment_id = ANALYSIS_EXPERIMENT
        else:
            kind = KIND_SWEEP if scan else KIND_RUN
        # Cache consult happens *outside* the store lock: a hit on a
        # pruned run re-archives it (numpy + npz writes), and that disk
        # work must not stall claims and long-polls.  The cache is
        # append-only, so the outcome cannot go stale while we wait.
        outcome = None
        if dedupe and kind == KIND_RUN and engine is not None:
            if engine.cache is not None:
                spec = RunSpec.make(
                    experiment_id, seed=seed, quick=quick, params=params
                )
                outcome = engine.lookup(spec)
        with self._changed:
            job = Job(
                job_id=0,  # allocated below, after dedup short-circuits
                kind=kind,
                experiment_id=experiment_id,
                seed=int(seed),
                quick=bool(quick),
                params=dict(params or {}),
                scan=dict(scan) if scan else None,
                analysis_pipeline=analysis or None,
                pipeline=pipeline,
                priority=int(priority),
                submitted_unix=time.time(),
            )
            if dedupe and kind == KIND_RUN:
                twin = self._live_twin(job)
                if twin is not None:
                    return twin, True
                if outcome is not None:
                    job.job_id = self._allocate_id()
                    self._serve_from_cache(job, outcome)
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
        self, requests: Iterable[Mapping[str, object]]
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
        jobs: list[Job] = []
        batch: list[_Prepared] = []
        now = time.time()
        with self._changed:
            for request in requests:
                analysis = request.get("analysis")
                scan = request.get("scan")
                if analysis:
                    kind = KIND_ANALYZE
                    experiment_id = ANALYSIS_EXPERIMENT
                else:
                    kind = KIND_SWEEP if scan else KIND_RUN
                    experiment_id = str(request["experiment_id"])
                job = Job(
                    job_id=self._allocate_id(),
                    kind=kind,
                    experiment_id=experiment_id,
                    seed=int(request.get("seed", 0)),
                    quick=bool(request.get("quick", False)),
                    params=dict(request.get("params") or {}),
                    scan=dict(scan) if scan else None,
                    analysis_pipeline=analysis or None,
                    pipeline=str(request.get("pipeline", "main")),
                    priority=int(request.get("priority", 0)),
                    submitted_unix=now,
                )
                self._put(job)
                batch.append(self._write_entry(job, "submitted"))
                jobs.append(job)
            self._persist_batch(batch)
        return jobs

    def _allocate_id(self) -> int:
        """Claim the next free job id atomically across processes.

        The id is reserved by O_EXCL-creating its job file (a stub the
        immediate ``_persist`` overwrites), so two stores submitting to
        one queue directory can never clobber each other's job files.
        """
        candidate = self._max_id
        while True:
            candidate += 1
            try:
                descriptor = os.open(
                    self.job_path(candidate),
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                continue  # another process holds it; try the next id
            os.close(descriptor)
            self._max_id = candidate
            return candidate

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

    def _serve_from_cache(self, job: Job, outcome) -> None:
        """Complete ``job`` instantly from an already-served cache hit.

        ``outcome`` is the :class:`~repro.runtime.engine.RunOutcome`
        the submitter looked up before taking the lock.
        """
        job.transition(RUNNING)
        job.transition(DONE)
        job.done_points = 1
        job.cached_points = 1
        job.run_ids = [outcome.run_id]
        job.metrics = dict(outcome.result.metrics)
        self._put(job)
        self._persist(job, "cached")

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def claim(
        self,
        worker: str = "?",
        identity: tuple[str, str | None, int | None] | None = None,
    ) -> Job | None:
        """Atomically claim the highest-priority pending job, or None.

        Claim order is ``(-priority, job_id)``.  The O_EXCL marker file
        keeps a second scheduler *process* sharing this queue directory
        from double-running the job; within one process the store lock
        already serialises claims.

        ``identity`` is an optional ``(runner_id, host, pid)`` triple
        stamped onto the job so status output names the executing
        worker.
        """
        with self._changed:
            for job in sorted(self._with_status(PENDING), key=Job.sort_key):
                if not self._take_claim(job.job_id, worker):
                    continue
                # Re-read the status file after winning the marker: a
                # *second* store on this queue directory may have run
                # the job to completion since our in-memory snapshot.
                job = self._reload(job.job_id) or job
                if job.status != PENDING:
                    self._claim_path(job.job_id).unlink(missing_ok=True)
                    continue
                job.transition(RUNNING)
                if identity is not None:
                    job.assign_runner(*identity)
                self._persist(job, "started", worker=worker)
                return job
        return None

    def drain(
        self,
        worker: str,
        max_jobs: int,
        classify,
        identity: tuple[str, str | None, int | None] | None = None,
    ) -> tuple[list[Job], list[Job]]:
        """Claim up to ``max_jobs`` pending jobs in one locked pass.

        The batch claim behind fleet leases.  ``classify(job)`` is
        called under the store lock (so it must be cheap — a cache
        *probe*, not a cache read) and returns one of:

        - ``None`` — skip; the job stays pending for another claimant,
        - ``"lease"`` — claim it ``running`` for the caller to execute,
        - ``("serve", run_id, metrics)`` — an already-cached run-kind
          job; it completes instantly, never leaving the master.

        Returns ``(served, leased)``.  All journal lines of the batch
        land in one fsynced append (see :meth:`_persist_batch`): a
        fully-cached 10k-job drain costs hundreds, not tens of
        thousands, of fsyncs — the difference between ~100 jobs/s and
        the >1k jobs/s fleet benchmark bar.
        """
        served: list[Job] = []
        leased: list[Job] = []
        batch: list[_Prepared] = []
        with self._changed:
            for job in sorted(self._with_status(PENDING), key=Job.sort_key):
                if len(served) + len(leased) >= max_jobs:
                    break
                verdict = classify(job)
                if verdict is None:
                    continue
                if not self._take_claim(job.job_id, worker):
                    continue
                job = self._reload(job.job_id) or job
                if job.status != PENDING:
                    self._claim_path(job.job_id).unlink(missing_ok=True)
                    continue
                job.transition(RUNNING)
                if identity is not None:
                    job.assign_runner(*identity)
                if verdict == "lease" or job.kind != KIND_RUN:
                    batch.append(
                        self._write_entry(job, "started", worker=worker)
                    )
                    leased.append(job)
                    continue
                _, run_id, metrics = verdict
                job.transition(DONE)
                job.done_points = 1
                job.total_points = 1
                job.cached_points = 1
                job.run_ids = [run_id]
                job.metrics = dict(metrics)
                batch.append(self._write_entry(job, "served", worker=worker))
                self._claim_path(job.job_id).unlink(missing_ok=True)
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
        with self._changed:
            if job.status != RUNNING:
                return
            job.reset_to_pending()
            self._persist(job, event)
            self._claim_path(job.job_id).unlink(missing_ok=True)

    def _reload(self, job_id: int) -> Job | None:
        """Refresh one job from disk (syncs cross-process state)."""
        try:
            document = json.loads(
                self.job_path(job_id).read_text(encoding="utf-8")
            )
            job = Job.from_dict(document)
        except (OSError, ValueError, ConfigurationError):
            return self._jobs.get(job_id)
        self._put(job)
        return job

    def _claim_path(self, job_id: int) -> pathlib.Path:
        """The claim-marker path of one job id."""
        return self.jobs_dir / f"{job_id}.claim"

    def _take_claim(self, job_id: int, worker: str) -> bool:
        """Create the O_EXCL claim marker; False if another holder won."""
        try:
            descriptor = os.open(
                self._claim_path(job_id),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {worker}\n")
        return True

    def update_progress(
        self,
        job: Job,
        done_points: int,
        total_points: int,
        run_id: str | None = None,
        cached: bool = False,
    ) -> None:
        """Stream one finished sweep point into the job's status file."""
        with self._changed:
            job.done_points = done_points
            job.total_points = total_points
            if run_id is not None:
                job.run_ids.append(run_id)
            if cached:
                job.cached_points += 1
            self._persist(job, "progress")

    def finish(
        self,
        job: Job,
        status: str,
        metrics: Mapping[str, float] | None = None,
        error: Mapping[str, str] | None = None,
    ) -> None:
        """Transition a running job to a terminal state and persist it."""
        with self._changed:
            job.transition(status)
            if metrics is not None:
                job.metrics = dict(metrics)
            if error is not None:
                job.error = dict(error)
            # Persist the terminal state *before* releasing the claim
            # marker: a second store sharing this queue directory must
            # never win the marker and re-read a stale 'running' file.
            self._persist(job, status)
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
        with self._changed:
            job = self.get(job_id)
            if job.is_terminal:
                raise ConfigurationError(
                    f"job {job_id} is already {job.status}"
                )
            if job.status == PENDING:
                job.transition(CANCELLED)
                self._persist(job, CANCELLED)
            else:
                job.cancel_requested = True
                self._persist(job, "cancel_requested")
        return job

    def requeue(self, job_id: int) -> Job:
        """Return a terminal job to ``pending`` (attempt counter bumped)."""
        with self._changed:
            job = self.get(job_id)
            job.transition(PENDING)
            self._persist(job, "requeued")
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
                    return fresh, gap
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], False
                self._changed.wait(remaining)

    def wait_job(self, job_id: int, timeout: float = 0.0) -> Job:
        """Long-poll: block up to ``timeout`` seconds for a terminal state.

        Returns the job in whatever state it is in when the wait ends;
        callers check :attr:`Job.is_terminal`.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        with self._changed:
            while True:
                job = self.get(job_id)
                if job.is_terminal:
                    return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return job
                self._changed.wait(remaining)

    def wait_for_work(self, timeout: float) -> bool:
        """Block a scheduler worker until something changes (or timeout)."""
        with self._changed:
            if self._with_status(PENDING):
                return True
            return self._changed.wait(timeout)

    def kick(self) -> None:
        """Wake every waiter (used by scheduler shutdown and tests)."""
        with self._changed:
            self._changed.notify_all()

    # ------------------------------------------------------------------
    # Persistence internals
    # ------------------------------------------------------------------
    def job_path(self, job_id: int) -> pathlib.Path:
        """The status-file path of one job id."""
        return self.jobs_dir / f"{job_id}.json"

    def _persist(self, job: Job, event: str, **extra: object) -> None:
        """Atomically rewrite the job file and journal one event.

        Caller holds the lock.  The journal line is the transition's one
        durable record and carries the sequence number that drives the
        long-poll subscription feed.
        """
        self._persist_batch([self._write_entry(job, event, **extra)])

    def _persist_batch(self, batch: list[_Prepared]) -> None:
        """Journal many prepared entries with ONE fsynced append.

        Caller holds the lock and already called :meth:`_write_entry`
        for each job.  The journal fsyncs once per append, so the
        batched drain/submit paths hand it all their lines at once —
        this is what lifts fully-cached throughput from per-job fsync
        pacing to >1k jobs/s.
        """
        if not batch:
            return
        self.journal.append(entry for entry, _ in batch)
        for _, document in batch:
            self._publish(document)
        self._changed.notify_all()

    def _write_entry(self, job: Job, event: str, **extra: object) -> _Prepared:
        """Rewrite the job file and build (but not journal) its event.

        Returns ``(entry, document)``: the journal entry (the journal
        stamps its ``seq``) and the job document the file was written
        from, which the bus publish reuses.  The status index is
        updated *before* the disk write, so it mirrors the in-memory
        status even when the write fails.
        """
        self._index(job)
        document = job.to_dict()
        atomic_write_text(
            self.job_path(job.job_id),
            json.dumps(document, indent=2, sort_keys=True),
        )
        entry: dict[str, object] = {
            "unix": time.time(),
            "event": event,
            "job_id": job.job_id,
            "status": job.status,
            "experiment_id": job.experiment_id,
            "done_points": job.done_points,
            "total_points": job.total_points,
        }
        if job.wait_s is not None:
            entry["wait_s"] = job.wait_s
        entry.update(extra)
        return entry, document

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
        job) changes the file on disk but not this store's view.
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

    def _publish(self, document: dict[str, object]) -> None:
        """Publish one journaled transition as the dashboard's live view.

        ``document`` is the job document :meth:`_write_entry` wrote; the
        ``queue.state`` publish reuses it instead of serialising again.
        """
        if obs.enabled():
            counts = self.counts()
            depth = counts.get(PENDING, 0) + counts.get(RUNNING, 0)
            obs.gauge(obs_names.METRIC_QUEUE_DEPTH, depth)
            datasets.publish_queue_job(document, counts)


def _count_journal_read(skipped: int, fallback: bool) -> None:
    """Count a queue-journal read's disk fallback and skipped lines."""
    if fallback:
        obs.count(obs_names.METRIC_EVENTS_JOURNAL_FALLBACKS)
    if skipped:
        obs.count(obs_names.METRIC_QUEUE_JOURNAL_MALFORMED, skipped)


def _is_zombie(pid: int) -> bool:
    """Whether a pid is a zombie (Linux ``/proc``; False where absent)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
        # Field 3, after the parenthesised (possibly space-laden) comm.
        return stat.rpartition(")")[2].split()[0] == "Z"
    except (OSError, IndexError):
        return False
