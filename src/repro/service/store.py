"""Crash-safe persistent job queue under ``<engine root>/queue/``.

Layout::

    <root>/queue/journal.jsonl     sequenced event log, the source of
                                   truth: one line per job transition,
                                   and the long-poll feed
    <root>/queue/journal-1.jsonl   the generation rotated out at
                                   JOURNAL_MAX_LINES lines (the feed's
                                   history; the queue reads only the
                                   compacted files below)
    <root>/queue/journal.lock      flock taken by every store writing
                                   the journal
    <root>/queue/ended/<seq>-<lo>-<hi>.jsonl
                                   one compacted file per rotation: a
                                   header line (the queue's counts and
                                   live jobs as of journal line <seq>),
                                   then the jobs ended in the rotated
                                   generation, one document per line,
                                   sorted by id from <lo> to <hi>
    <root>/queue/jobs/<id>.claim   O_EXCL claim marker while a lease
                                   runs the job (holder pid, worker)
    <root>/queue/service.json      live server address (written by the
                                   HTTP layer, see repro.service.api)

Durability model: each job transition is one fsynced journal line (a
rotating :class:`~repro.utils.journal.Journal`).  A submission line,
and a requeue's, carries the whole job document; later lines carry the
fields the transition changed, and a job's state is the fold of its
lines.  Before the live journal file rotates out, the ended jobs whose
lines it holds are folded, one at a time in id order, into one
compacted file, which is fsynced (with its directory) before the
rotation can drop anything: its header checkpoints the queue up to the
file's last line, so a store opens by reading that header and folding
only the live journal lines past it.  An ended job is then read back
(``get``, ``status``, ``result``) from the live journal or by a bisect
of the compacted files.  A root in an older layout (a snapshot
``jobs/<id>.json`` per ended job, or no job fields in the journal lines)
is folded into one compacted file the first time it is opened.  On
restart with ``recover=True`` any job found ``running`` is returned to
``pending`` (its server died mid-run) and stale claim markers are
released.

Memory model: a store holds its live (pending and running) jobs, the
counts by status, and the :data:`ENDED_JOBS` ended jobs it touched last;
so its memory is bounded by the live work, not by the jobs it served.

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

import collections
import heapq
import itertools
import json
import os
import pathlib
import threading
import time
from array import array
from collections.abc import Iterable, Iterator, Mapping
from operator import attrgetter
from typing import Any, BinaryIO

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import names as obs_names
from repro.runtime.engine import RunEngine, default_root
from repro.service.jobs import (
    ANALYSIS_EXPERIMENT,
    CANCELLED,
    KIND_ANALYZE,
    KIND_RUN,
    KIND_SWEEP,
    PENDING,
    RUNNING,
    TERMINAL,
    Job,
)
from repro.utils.io import atomic_write_lines
from repro.utils.journal import Journal

#: Directory and file names inside the engine root.
QUEUE_DIR = "queue"
JOBS_DIR = "jobs"
ENDED_DIR = "ended"
JOURNAL_FILE = "journal.jsonl"

#: How many recent events the journal's in-memory long-poll tail keeps.
EVENT_BUFFER = 4096

#: Live journal lines at which the journal rotates to ``journal-1.jsonl``
#: (one line per job transition and sweep point).
JOURNAL_MAX_LINES = 20_000

#: Ended jobs a store keeps in memory, the least recently used leaving
#: first; an older one is read back from disk when asked for.
ENDED_JOBS = 256

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

#: The statuses a store holds every job of, by id.
LIVE = (PENDING, RUNNING)

#: A compacted body line's sort key packs the job id above the index of
#: the journal line it came from.
_LINE_BITS = 32

#: A compaction sorts its line keys in runs of this many, then merges
#: them, so it never holds a Python int per line of the generation.
_SORT_RUN = 1024

#: A bisect of a compacted body reads the last this many bytes whole.
_SCAN_BYTES = 1 << 14


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
        self.ended_dir = self.queue_dir / ENDED_DIR
        self.journal_path = self.queue_dir / JOURNAL_FILE
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.ended_dir.mkdir(exist_ok=True)
        self._lock = threading.RLock()
        #: Notified on every transition; ``_work`` only when a job
        #: becomes pending, so idle claimers sleep through the rest.
        self._changed = threading.Condition(self._lock)
        self._work = threading.Condition(self._lock)
        #: The jobs in memory: every live one, and the ended ones in
        #: ``_recent``.  The objects callers hold are these.
        self._jobs: dict[int, Job] = {}
        #: The status index, kept in step with every job that enters
        #: ``_jobs`` (:meth:`_admit`) or changes status (:meth:`_index`),
        #: so scheduling reads never scan a job table: the ids of each
        #: live status, and a count of each ended one.
        self._by_status: dict[str, set[int]] = {status: set() for status in LIVE}
        self._ended: collections.Counter[str] = collections.Counter()
        #: The ended jobs in ``_jobs``, least recently used first, each
        #: with the status it is counted under.
        self._recent: collections.OrderedDict[int, str] = (
            collections.OrderedDict()
        )
        #: ``(seq, lo, hi, path)`` of each compacted file, oldest first;
        #: listed again before each read of them, as other stores
        #: sharing the root add files.
        self._compacted: list[tuple[int, int, int, str]] = []
        #: The highest job id allocated or named by a line or job file.
        self._max_id = 0
        #: Bumped with every ``_work`` notification: a claimer reads it
        #: before a claim pass and hands it to :meth:`wait_for_work`.
        self.work_seq = 0
        self.journal = Journal(
            self.journal_path,
            JOURNAL_MAX_LINES,
            tail=EVENT_BUFFER,
            on_read=_count_journal_read,
        )
        self.journal.before_rotate = self._compact
        self._load(recover=recover)

    # ------------------------------------------------------------------
    # Loading and recovery
    # ------------------------------------------------------------------
    def _load(self, recover: bool) -> None:
        """Read the newest checkpoint and fold the live journal past it."""
        with self._changed, self.journal.locked():
            for entry in self.journal.follow()[0]:
                entry.pop(STATE, None)  # the tail keeps the summary
            self._reload()
            if recover:
                self._recover()

    def _reload(self) -> None:
        """Rebuild the in-memory queue from disk (both locks held).

        The newest compacted file's header gives the counts, the live
        jobs and the highest id as of its line; the live journal's
        later lines are folded onto them.  A root in an older layout is
        compacted first (:meth:`_migrate`).  Jobs this store held stay
        the same objects, updated in place.
        """
        held = self._jobs
        self._jobs = {}
        self._recent.clear()
        self._by_status = {status: set() for status in LIVE}
        self._ended = collections.Counter()
        snapshots = self._snapshot_files()
        if snapshots:  # their ids are taken, whatever the files hold
            self._max_id = max(self._max_id, max(snapshots))
        self._list_compacted()
        if not self._compacted and (
            snapshots or self.journal.rotated_path.exists()
        ):
            self._migrate(snapshots)
        header = self._header()
        after = 0
        if header is not None:
            after = header["seq"]
            self._max_id = max(self._max_id, header["max_id"])
            self._ended.update(header["counts"])
            for fields in header["live"]:
                job = _replay(None, fields)
                if job is not None:
                    self._admit(job)
        for entry in self._entries(after):
            self._fold(entry)
        for job_id, job in self._jobs.items():
            old = held.get(job_id)
            if old is not None and old is not job:
                old.apply(job.fields())
                self._jobs[job_id] = old

    def _recover(self) -> None:
        """Return orphaned ``running`` jobs to ``pending`` after a crash,
        and delete the temp file of a compaction the crash cut short.

        Only *orphaned* ones: a running job whose claim marker names a
        still-alive pid belongs to another daemon sharing this root and
        must be left alone — recovery fences dead servers, it must not
        steal live work.  Stale markers go after their jobs' reset.
        """
        for name in os.listdir(self.ended_dir):
            if name.startswith("."):  # no compaction runs: we hold the lock
                os.unlink(os.path.join(self.ended_dir, name))
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
        lines rotated out before this store read them, it reloads from
        disk instead (the rotation compacted them first).  It holds the
        journal's lock throughout, so no rotation falls between its
        reads of the files.  A waiter is woken when anything was folded.
        """
        with self.journal.locked():
            entries, rewound = self.journal.follow()
            if rewound:
                for entry in entries:
                    entry.pop(STATE, None)
                self._reload()
            elif not any([self._fold(entry) for entry in entries]):
                return
        self._changed.notify_all()
        self._wake_claimers()

    def _fold(self, entry: dict[str, object]) -> bool:
        """Apply one journal line's job fields (caller holds the lock).

        A line naming a job this store holds updates it in place.  A
        whole job (a submission, or a requeue carrying the status the
        job was counted under as ``was``) enters memory; a later line of
        an ended job this store let go reads the job back from disk
        first.  A line without fields (the older layout) or naming a job
        this store cannot build is skipped, but its id is never handed
        out.
        """
        state = entry.pop(STATE, None)  # the tail keeps the summary
        job_id = entry.get("job_id")
        new = type(job_id) is int and job_id > self._max_id
        if type(job_id) is int:
            self._max_id = max(self._max_id, job_id)
        if not isinstance(state, dict) or type(job_id) is not int:
            return False
        job = self._jobs.get(job_id)
        if job is None and "kind" in state:
            job = _replay(None, state)
            if job is None:
                return False
            was = entry.get("was")
            if not new and was in TERMINAL:
                self._ended[was] -= 1
            self._admit(job)
            return True
        if job is None:
            job = self._read_job(job_id, before=entry.get("seq"))
            if job is None:
                return False
            self._remember(job)
        job.apply(state)
        self._index(job)
        return True

    def _migrate(self, snapshots: Mapping[int, str]) -> None:
        """Fold a root in an older layout into one compacted file.

        The older layouts kept a snapshot ``jobs/<id>.json`` of every
        ended job (and, before that, of every job at every transition,
        with journal lines carrying no job fields).  The snapshots are
        read, every retained journal line is folded onto them, and the
        result is written as the first compacted file; the snapshots are
        deleted once it is durable.
        """
        jobs: dict[int, Job] = {}
        for path in snapshots.values():
            try:
                with open(path, encoding="utf-8") as handle:
                    job = Job.from_dict(json.load(handle))
            except (OSError, ValueError, KeyError, TypeError,
                    AttributeError, ConfigurationError):
                continue  # emptied, or a torn or foreign file
            jobs[job.job_id] = job
        for path in (self.journal.rotated_path, self.journal_path):
            for entry in self._entries(0, path):
                if type(entry.get("job_id")) is int:
                    self._max_id = max(self._max_id, entry["job_id"])
                _fold_into(jobs, entry)
        ended = sorted(
            (job for job in jobs.values() if job.is_terminal),
            key=attrgetter("job_id"),
        )
        self._write_compacted(
            collections.Counter(job.status for job in ended),
            [job.fields() for job in jobs.values() if not job.is_terminal],
            (ended[0].job_id, ended[-1].job_id) if ended else (0, 0),
            (job.fields() for job in ended),
        )
        for path in snapshots.values():
            os.unlink(path)

    def _snapshot_files(self) -> dict[int, str]:
        """The older layout's ``jobs/<id>.json`` files, by id."""
        return {
            int(name[:-5]): os.path.join(self.jobs_dir, name)
            for name in os.listdir(self.jobs_dir)
            if name.endswith(".json") and name[:-5].isdigit()
        }

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
                    self._admit(job)
                    self._persist(job, "cached")
                    return job, True
            if dedupe and kind == KIND_ANALYZE:
                twin = self._live_analysis_twin(job)
                if twin is not None:
                    return twin, True
            job.job_id = self._allocate_id()
            self._admit(job)
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
                self._admit(job)
            self._persist_batch(
                [(job, self._entry(job, "submitted")) for job in jobs]
            )
        return jobs

    def _allocate_id(self) -> int:
        """The next free job id (caller holds both locks and followed).

        Every id handed out is in a journal line this store folded, or
        (rotated out) under a compacted header's highest id, so the next
        is free.
        """
        self._max_id += 1
        return self._max_id

    def _live_twin(self, job: Job) -> Job | None:
        """The oldest pending/running job with the same fingerprint, if any."""
        fingerprint = job.fingerprint()
        twins = [
            other
            for status in LIVE
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
        """The job with ``job_id`` (ConfigurationError if unknown).

        An ended job this store no longer holds is read back from the
        live journal or the compacted files.
        """
        job_id = int(job_id)
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                if job_id in self._recent:
                    self._recent.move_to_end(job_id)
                return job
            with self.journal.locked():
                self._follow()
                job = self._jobs.get(job_id)
                if job is None and 0 < job_id <= self._max_id:
                    job = self._read_job(job_id)
                    if job is not None:
                        self._remember(job)
            if job is None:
                total = sum(self.counts().values())
                known = (
                    f"{total} known, ids 1..{self._max_id}"
                    if total
                    else "none yet"
                )
                raise ConfigurationError(f"no job {job_id}; {known}")
        return job

    def jobs(self, status: str | None = None) -> list[Job]:
        """All jobs (optionally filtered by status), in claim order.

        Live statuses are read from memory; the others read every
        compacted file and the live journal.
        """
        with self._changed, self.journal.locked():
            self._follow()
            if status in LIVE:
                found: Iterable[Job] = self._with_status(status)
            else:
                found = [
                    job for job in self._every_job().values()
                    if status is None or job.status == status
                ]
            return sorted(found, key=Job.sort_key)

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
            counts.update(
                (status, count)
                for status, count in self._ended.items()
                if count
            )
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
        does, and the status it ended with (``was``), so a store that
        no longer holds the job moves it out of that count.
        """
        with self._changed, self.journal.locked():
            self._follow()
            job = self.get(job_id)
            was = job.status
            job.transition(PENDING)
            self._persist(job, "requeued", was=was)
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

        Folds other stores' lines first, so a job submitted through
        another store counts; then re-checks the status index when a
        transition is journaled (or :meth:`kick` is called), and after
        folding other stores' lines every :data:`FOLLOW_S` without one —
        never in a busy loop.
        """
        with self._changed:
            self._follow()
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
        their lines at once, so a batch costs one fsync.  An append
        that fills the live file compacts it first (:meth:`_compact`).
        """
        if not batch:
            return
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

    def _compact(self, generation: pathlib.Path) -> None:
        """Write the jobs ended in ``generation`` into one compacted file.

        The journal's :attr:`~repro.utils.journal.Journal.before_rotate`
        hook: it runs under both locks, after the append that filled the
        live file and before that file rotates out.  The file's header
        is this store's checkpoint (counts, live jobs, highest id, the
        last seq); its body is each job that has a line in the
        generation past the previous checkpoint and is ended now, in id
        order.  The lines are indexed first (packed integers, sorted in
        runs of :data:`_SORT_RUN` that are merged as the body is
        written), then each job is folded alone, from memory if this
        store holds it, so the pass holds one job at a time.
        """
        self._list_compacted()
        if self._compacted and self._compacted[-1][0] >= self.journal.seq:
            return  # compacted already; a crash came before the rotation
        after = self._compacted[-1][0] if self._compacted else 0
        runs: list[array] = []
        run: list[int] = []
        offsets = array("q")
        with open(generation, "rb") as handle:
            offset = 0
            for raw in handle:
                entry = _line(raw)
                if (
                    entry is not None
                    and entry["seq"] > after
                    and type(entry.get("job_id")) is int
                    and isinstance(entry.get(STATE), dict)
                    and self._indexed_status(entry["job_id"]) not in LIVE
                ):
                    run.append(entry["job_id"] << _LINE_BITS | len(offsets))
                    offsets.append(offset)
                    if len(run) == _SORT_RUN:
                        runs.append(array("q", sorted(run)))
                        run = []
                offset += len(raw)
            runs.append(array("q", sorted(run)))
            self._write_compacted(
                self._ended,
                [
                    job.fields() for job in sorted(
                        self._with_status(PENDING) + self._with_status(RUNNING),
                        key=attrgetter("job_id"),
                    )
                ],
                (
                    min(part[0] for part in runs if part) >> _LINE_BITS,
                    max(part[-1] for part in runs if part) >> _LINE_BITS,
                ) if offsets else (0, 0),
                self._ended_fields(handle, heapq.merge(*runs), offsets),
            )

    def _ended_fields(
        self, handle: BinaryIO, keys: Iterable[int], offsets: array
    ) -> Iterator[dict[str, object]]:
        """The fields of each ended job the sorted line ``keys`` name."""
        live = self._header_live()
        job_id, lines = 0, []
        for key in itertools.chain(keys, [0]):  # 0 ends the last job
            if key >> _LINE_BITS != job_id:
                job = self._jobs.get(job_id)
                if job is None and lines:
                    job = _fold_states(
                        job_id,
                        [_state_at(handle, offsets[line]) for line in lines],
                        lambda job_id: self._compacted_job(job_id, live),
                    )
                if job is not None and job.is_terminal:
                    yield job.fields()
                job_id, lines = key >> _LINE_BITS, []
            lines.append(key & ((1 << _LINE_BITS) - 1))

    def _write_compacted(
        self,
        counts: Mapping[str, int],
        live: list[dict[str, object]],
        ids: tuple[int, int],
        ended: Iterable[dict[str, object]],
    ) -> None:
        """Write one compacted file at the journal's seq (locks held).

        ``ids`` bounds the ids of the ``ended`` fields, which come in id
        order.  The file is streamed (:func:`atomic_write_lines`), so it
        is durable under its name ``<seq>-<lo>-<hi>.jsonl`` before the
        caller drops anything it covers.
        """
        seq = self.journal.seq
        header = {
            "seq": seq,
            "max_id": self._max_id,
            "counts": {status: n for status, n in counts.items() if n},
            "live": live,
        }
        path = os.path.join(self.ended_dir, f"{seq}-{ids[0]}-{ids[1]}.jsonl")
        atomic_write_lines(path, itertools.chain(
            [json.dumps(header)], map(json.dumps, ended)
        ))
        self._compacted.append((seq, *ids, path))

    def _list_compacted(self) -> None:
        """Read the compacted files' seqs and id ranges from their names."""
        found = []
        for name in os.listdir(self.ended_dir):
            parts = name[:-6].split("-") if name.endswith(".jsonl") else ()
            if len(parts) == 3 and all(part.isdigit() for part in parts):
                seq, lo, hi = map(int, parts)
                found.append((seq, lo, hi, os.path.join(self.ended_dir, name)))
        self._compacted = sorted(found)

    def _header(self) -> dict[str, Any] | None:
        """The newest compacted file's header, None before the first."""
        if not self._compacted:
            return None
        with open(self._compacted[-1][3], "rb") as handle:
            return json.loads(handle.readline())

    def _header_live(self) -> dict[int, dict[str, object]]:
        """The newest header's live jobs' fields, by id."""
        header = self._header()
        return {} if header is None else {
            fields["job_id"]: fields for fields in header["live"]
        }

    def _compacted_job(
        self, job_id: int, live: Mapping[int, Mapping[str, object]]
    ) -> Job | None:
        """A job as the compacted files leave it: live at the newest
        header (``live``), else the newest body holding it."""
        if job_id in live:
            return _replay(None, live[job_id])
        for _, lo, hi, path in reversed(self._compacted):
            if lo <= job_id <= hi:
                fields = _bisect(path, job_id)
                if fields is not None:
                    return _replay(None, fields)
        return None

    def _entries(
        self, after: int, path: pathlib.Path | None = None,
        job_id: int | None = None,
    ) -> Iterator[dict[str, Any]]:
        """The entries of a journal file (the live one by default) with
        seq > ``after``, in file order; only ``job_id``'s when given."""
        needles = () if job_id is None else (
            b'"job_id": %d,' % job_id, b'"job_id": %d}' % job_id
        )
        try:
            handle = open(path or self.journal_path, "rb")
        except FileNotFoundError:
            return
        with handle:
            for raw in handle:
                if needles and not any(n in raw for n in needles):
                    continue
                entry = _line(raw)
                if entry is not None and entry["seq"] > after and (
                    job_id is None or entry.get("job_id") == job_id
                ):
                    yield entry

    def _read_job(self, job_id: int, before: object = None) -> Job | None:
        """One job as the disk holds it (both locks held): its lines in
        the live journal (those before seq ``before``, if given) folded
        onto the compacted files' copy."""
        self._list_compacted()
        after = self._compacted[-1][0] if self._compacted else 0
        states = [
            entry[STATE]
            for entry in self._entries(after, job_id=job_id)
            if isinstance(entry.get(STATE), dict)
            and (type(before) is not int or entry["seq"] < before)
        ]
        live = self._header_live()
        return _fold_states(
            job_id, states, lambda job_id: self._compacted_job(job_id, live)
        )

    def _every_job(self) -> dict[int, Job]:
        """Every job, read from the compacted files and the live journal
        (both locks held): the whole history at once."""
        jobs: dict[int, Job] = {}
        self._list_compacted()
        for _, _, _, path in self._compacted:  # newer copies replace older
            with open(path, "rb") as handle:
                handle.readline()  # the header
                for raw in handle:
                    job = _replay(None, json.loads(raw))
                    if job is not None:
                        jobs[job.job_id] = job
        for fields in self._header_live().values():
            job = _replay(None, fields)
            if job is not None:
                jobs[job.job_id] = job
        after = self._compacted[-1][0] if self._compacted else 0
        for entry in self._entries(after):
            _fold_into(jobs, entry)
        jobs.update(self._jobs)
        return jobs

    # ------------------------------------------------------------------
    # The status index
    # ------------------------------------------------------------------
    def _admit(self, job: Job) -> None:
        """Take a job this store has not counted into memory (lock held)."""
        self._jobs[job.job_id] = job
        self._count(job.job_id, job.status, +1)

    def _remember(self, job: Job) -> None:
        """Hold an ended job read back from disk; it is counted already."""
        if job.is_terminal:
            self._jobs[job.job_id] = job
            self._recent[job.job_id] = job.status
            self._evict()

    def _index(self, job: Job) -> None:
        """Record a known job's current status (caller holds the lock).

        Only the store's own job objects are indexed: a caller passing
        an object ``_jobs`` does not hold (a stale copy, another store's
        job) changes the journal but not this store's view.
        """
        if self._jobs.get(job.job_id) is not job:
            return
        previous = self._indexed_status(job.job_id)
        if previous != job.status:
            self._count(job.job_id, previous, -1)
            self._count(job.job_id, job.status, +1)

    def _indexed_status(self, job_id: int) -> str | None:
        """The status the index holds ``job_id`` under (None: not held)."""
        for status in LIVE:
            if job_id in self._by_status[status]:
                return status
        return self._recent.get(job_id)

    def _count(self, job_id: int, status: str | None, delta: int) -> None:
        """Add (``+1``) or remove (``-1``) one id under ``status``."""
        if status in self._by_status:
            if delta > 0:
                self._by_status[status].add(job_id)
            else:
                self._by_status[status].discard(job_id)
        elif status is not None:
            self._ended[status] += delta
            if delta > 0:
                self._recent[job_id] = status
                self._evict()
            else:
                self._recent.pop(job_id, None)

    def _evict(self) -> None:
        """Let the least recently used ended jobs go, past :data:`ENDED_JOBS`
        (the newest always stays: its caller is still using it)."""
        while len(self._recent) > max(1, ENDED_JOBS):
            job_id, _ = self._recent.popitem(last=False)
            del self._jobs[job_id]

    def _live(self) -> int:
        """How many jobs are pending or running, from the status index."""
        return len(self._by_status[PENDING]) + len(self._by_status[RUNNING])

    def _with_status(self, status: str) -> list[Job]:
        """The jobs in a live ``status``, from the index (lock held).

        Each job's own status is re-checked, so a stale index entry can
        only drop a candidate, never admit a job in another state.
        """
        ids = self._by_status.get(status, ())
        return [
            job for job in map(self._jobs.__getitem__, ids)
            if job.status == status
        ]


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


def _line(raw: bytes) -> dict[str, Any] | None:
    """One journal line parsed; None when torn or without an integer seq."""
    try:
        entry = json.loads(raw)
    except ValueError:
        return None
    if isinstance(entry, dict) and type(entry.get("seq")) is int:
        return entry
    return None


def _state_at(handle: BinaryIO, offset: int) -> dict[str, Any]:
    """The job fields of the journal line at ``offset``."""
    handle.seek(offset)
    return json.loads(handle.readline())[STATE]


def _replay(job: Job | None, state: Mapping[str, Any]) -> Job | None:
    """``job`` with one line's fields applied, or, when there is no
    ``job``, the job a whole line describes (None if it cannot be built)."""
    if job is not None:
        job.apply(state)
        return job
    try:
        return Job.from_dict(state)
    except (ConfigurationError, TypeError, ValueError, AttributeError):
        return None


def _fold_states(
    job_id: int, states: list[dict[str, Any]], base
) -> Job | None:
    """One job folded from its lines' fields, oldest first.

    A first line that is not a whole job applies to ``base(job_id)``,
    the job as it was before these lines.
    """
    job = None if states and "kind" in states[0] else base(job_id)
    for state in states:
        job = _replay(job, state)
    return job


def _fold_into(jobs: dict[int, Job], entry: Mapping[str, Any]) -> None:
    """Fold one journal line into a table of jobs, skipping a line
    without fields or naming a job it cannot build."""
    state, job_id = entry.get(STATE), entry.get("job_id")
    if isinstance(state, dict) and type(job_id) is int:
        job = _replay(jobs.get(job_id), state)
        if job is not None:
            jobs[job_id] = job


def _bisect(path: str, job_id: int) -> dict[str, Any] | None:
    """A job's fields from a compacted file's id-sorted body, by bisecting
    its bytes (None when the body does not hold it)."""
    with open(path, "rb") as handle:
        handle.readline()  # the header
        lo, hi = handle.tell(), os.fstat(handle.fileno()).st_size
        # Every line starting before ``lo`` holds a smaller id, and every
        # line starting at ``hi`` or after a larger one.
        while hi - lo > _SCAN_BYTES:
            middle = (lo + hi) // 2
            handle.seek(middle - 1)
            handle.readline()  # to the first line starting at ``middle`` on
            start = handle.tell()
            raw = handle.readline()
            if start >= hi or not raw:
                hi = middle
                continue
            found = json.loads(raw)
            if found["job_id"] == job_id:
                return found
            if found["job_id"] < job_id:
                lo = handle.tell()
            else:
                hi = start
        handle.seek(lo)
        block = handle.read(hi - lo) + handle.readline()
    for raw in block.splitlines():
        found = json.loads(raw)
        if found["job_id"] == job_id:
            return found
    return None


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
