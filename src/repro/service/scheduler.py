"""The scheduler: the master's claim threads.

ARTIQ's master runs one experiment pipeline per worker process; this
scheduler is the offline equivalent sized for the reproduction's
workload mix.  A configurable number of *claim threads* pull jobs off
the :class:`repro.service.store.JobStore` in priority order — any
pending job; fleet runners lease what the threads leave, and
``workers=0`` makes the master a pure broker.

Run and sweep jobs go through the one point loop,
:func:`repro.fleet.runner.execute_points`, with the daemon's
:class:`~repro.fleet.coordinator.FleetCoordinator` as its client: the
claim thread adopts the job as a ``local/<worker>`` lease, each point
is a ``lookup`` (a hit is a JSON read, served on the thread — the
≥50 jobs/s bar of ``benchmarks/bench_service_throughput.py``), and a
miss computes on the process-wide pool of :mod:`repro.runtime.pool`
(unless ``use_processes=False``) and comes back through ``ingest``.
All persistence — archiving, caching, queue-journal lines — stays in
this process, exactly as for a result a remote runner ships home.

Sweep jobs stream: every finished point is one ``progress`` line in the
queue journal, so ``repro watch`` and the long-poll subscription see
points as they complete, and a cancel request takes effect at the next
point boundary.
"""

from __future__ import annotations

import os
import socket
import threading
from collections.abc import Callable

from repro import obs
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.runner import compute, execute_points
from repro.obs import names as obs_names
from repro.runtime.engine import RunEngine, RunSpec, WorkerResult, _failure_from
from repro.service.jobs import CANCELLED, DONE, KIND_ANALYZE, Job
from repro.service.store import JobStore


class Scheduler:
    """Drains a :class:`JobStore` through claim threads + the shared pool.

    Parameters
    ----------
    store:
        The persistent job queue to drain.
    engine:
        The run engine used for cache lookups and all persistence.
    workers:
        Claim threads (= maximum concurrently running jobs).
    use_processes:
        Execute cache misses on the process-wide pool
        (:mod:`repro.runtime.pool`), asking for at most ``workers``
        processes.  ``False`` computes in-thread (tests, platforms
        without fork).
    poll_s:
        Fallback wake interval of idle claim threads; submissions also
        wake them immediately through the store's condition variable.
    on_event:
        Optional ``callable(message: str)`` receiving one line per
        job transition (the CLI's ``serve`` log).
    fleet:
        The daemon's :class:`repro.fleet.coordinator.FleetCoordinator`,
        which holds the claim threads' leases.  Without one the
        scheduler makes its own and never starts it (no reaper, no
        runners); ``workers=0`` needs the daemon's, since only its
        runners would execute anything.
    """

    def __init__(
        self,
        store: JobStore,
        engine: RunEngine,
        workers: int = 2,
        use_processes: bool = True,
        poll_s: float = 1.0,
        on_event: Callable[[str], None] | None = None,
        fleet: FleetCoordinator | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if workers == 0 and fleet is None:
            raise ValueError(
                "workers=0 needs a fleet (nothing would ever execute)"
            )
        self.store = store
        self.engine = engine
        self.workers = workers
        self.use_processes = use_processes
        self.poll_s = poll_s
        self.on_event = on_event
        self.fleet = fleet or FleetCoordinator(store, engine)
        self._host = socket.gethostname()
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the claim threads (idempotent while running)."""
        if self._threads:
            return
        self._stop.clear()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(f"worker-{index}",),
                name=f"repro-scheduler-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, wait: bool = True) -> None:
        """Stop claiming new jobs; with ``wait``, join the claim threads.

        Jobs already running finish normally — stopping never corrupts
        the queue, it just leaves remaining ``pending`` jobs for the
        next scheduler (crash recovery handles everything harsher).
        """
        self._stop.set()
        self.store.kick()
        if wait:
            for thread in self._threads:
                thread.join()
        self._threads = []

    @property
    def running(self) -> bool:
        """Whether any claim thread is alive."""
        return any(thread.is_alive() for thread in self._threads)

    def drain(self, timeout: float = 60.0) -> bool:
        """Block until no job is pending or running (False on timeout)."""
        return self.store.wait_idle(timeout)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _worker_loop(self, name: str) -> None:
        """One claim thread: claim → execute → repeat until stopped."""
        identity = (f"local/{name}", self._host, os.getpid())
        while not self._stop.is_set():
            job = self.store.claim(name, identity=identity)
            if job is None:
                self.store.wait_for_work(self.poll_s)
                continue
            self._run_job(job, identity[0])

    def _run_job(self, job: Job, holder: str = "local") -> None:
        """Execute one claimed job through to a terminal state.

        The job is held as ``holder``'s lease on the coordinator while
        it runs, and the lease is gone when this returns — done,
        cancelled or failed.
        """
        self._log(f"{job.label()} started (attempt {job.attempt})")
        if job.wait_s is not None:
            obs.observe(obs_names.METRIC_QUEUE_WAIT_SECONDS, job.wait_s)
        job_span = obs.span(
            obs_names.SPAN_SCHEDULER_JOB,
            job_id=job.job_id,
            kind=job.kind,
            experiment=job.experiment_id,
        )
        self.fleet.adopt(holder, job)
        try:
            with job_span:
                if job.kind == KIND_ANALYZE:
                    self._run_analyze(job)
                else:
                    execute_points(
                        self.fleet,
                        holder,
                        job,
                        self._compute,
                        lambda: job.cancel_requested,
                    )
                job_span.set(status=job.status)
        except Exception as error:  # noqa: BLE001 - job-level isolation
            try:
                self.fleet.fail(holder, job.job_id, _failure_from(error))
            except Exception as second:  # noqa: BLE001 - keep thread alive
                # fail() can itself fail (illegal transition after a
                # persist error left the job terminal in memory, disk
                # full, ...).  A claim thread must survive regardless —
                # a dead worker silently halves the pool.
                self._log(
                    f"{job.label()} failure could not be recorded: "
                    f"{type(second).__name__}: {second}"
                )
        finally:
            self.fleet.drop(holder, job.job_id)
        detail = f": {job.error['type']}" if job.error else ""
        self._log(f"{job.label()} {job.status}{detail}")
        obs.count(obs_names.METRIC_JOBS_FINISHED, status=job.status)

    def _run_analyze(self, job: Job) -> None:
        """Analyze-kind job: run a pipeline, streaming per-analyzer progress.

        Executes on the claim thread: the analysis cache makes repeat
        pipelines as cheap as cache-hit runs, and fresh analyses are
        dominated by JSON reads rather than Monte-Carlo compute.
        Cancellation is honoured between analyzers, mirroring the
        sweep-point boundary semantics.
        """
        from repro.analysis.pipelines import PipelineRunner, get_pipeline
        from repro.analysis.report import write_report

        if job.cancel_requested:
            self.store.finish(job, CANCELLED)
            return
        name = str(job.analysis_pipeline)
        total = len(get_pipeline(name))
        runner = PipelineRunner(self.engine.root)
        progress = {"done": 0}

        def on_outcome(outcome) -> None:
            progress["done"] += 1
            self.store.update_progress(
                job, progress["done"], total, cached=outcome.cached
            )

        result = runner.run(
            name,
            on_outcome=on_outcome,
            should_stop=lambda: job.cancel_requested,
        )
        if not result.completed:
            self.store.finish(job, CANCELLED)
            return
        write_report(self.engine.root, result)
        self.store.finish(
            job,
            DONE,
            metrics={
                "analyzers": float(len(result.outcomes)),
                "cached_analyzers": float(result.num_cached),
            },
        )

    def _compute(self, spec: RunSpec) -> WorkerResult:
        """Execute one cache miss (shared process pool or in-thread)."""
        return compute(spec, self.workers if self.use_processes else 0)

    def _log(self, message: str) -> None:
        """Emit one scheduler log line through the configured callback."""
        if self.on_event is not None:
            self.on_event(message)
