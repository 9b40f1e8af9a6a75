"""The scheduler: drains the job store through a worker pool.

ARTIQ's master runs one experiment pipeline per worker process; this
scheduler is the offline equivalent sized for the reproduction's
workload mix.  A configurable number of *claim threads* pull jobs off
the :class:`repro.service.store.JobStore` in priority order.  Each
claimed job is routed by cost:

- **cache hits** are served directly on the claim thread — a hit is a
  JSON read, so threads give maximal throughput (the ≥50 jobs/s bar of
  ``benchmarks/bench_service_throughput.py``);
- **compute** goes through the process-wide pool of
  :mod:`repro.runtime.pool` (unless ``use_processes=False``) — the same
  pool the engine's parallel sweeps and a fleet runner use — keeping
  the GIL out of Monte-Carlo work while all persistence — archiving,
  caching, job-file writes — stays in the scheduler process (the
  engine's parent-side-I/O invariant).

Sweep jobs stream: after every finished point the job file is rewritten
with the new progress counters, so ``repro watch`` and the long-poll
subscription see points as they complete, and a cancel request takes
effect at the next point boundary.
"""

from __future__ import annotations

import os
import socket
import threading
from collections.abc import Callable

from repro import obs
from repro.obs import names as obs_names
from repro.runtime import pool
from repro.runtime.engine import (
    RunEngine,
    RunOutcome,
    RunSpec,
    _failure_from,
)
from repro.service.datasets import SweepPublisher
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    KIND_ANALYZE,
    KIND_RUN,
    KIND_SWEEP,
    Job,
)
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
    dispatch:
        Where run/sweep jobs execute. ``"local"`` — always on this
        host's pool (pre-fleet behaviour). ``"remote"`` — claim threads
        only take analyze jobs; everything else waits for fleet
        runners (``workers=0`` masters are pure brokers). ``"auto"``
        (the service default) — local execution steps back once live
        runners exist, except for analyze jobs and inline-servable
        cache hits, which stay on the master where they are cheapest.
    fleet:
        The daemon's :class:`repro.fleet.coordinator.FleetCoordinator`
        (None for fleet-less embedded use; dispatch then degrades to
        ``"local"``).
    """

    def __init__(
        self,
        store: JobStore,
        engine: RunEngine,
        workers: int = 2,
        use_processes: bool = True,
        poll_s: float = 1.0,
        on_event: Callable[[str], None] | None = None,
        dispatch: str = "local",
        fleet=None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if dispatch not in ("auto", "local", "remote"):
            raise ValueError(
                f"dispatch must be 'auto', 'local' or 'remote', "
                f"got {dispatch!r}"
            )
        if workers == 0 and (dispatch == "local" or fleet is None):
            raise ValueError(
                "workers=0 needs a fleet and a non-local dispatch policy "
                "(nothing would ever execute)"
            )
        self.store = store
        self.engine = engine
        self.workers = workers
        self.use_processes = use_processes
        self.poll_s = poll_s
        self.on_event = on_event
        self.dispatch = dispatch
        self.fleet = fleet
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
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            counts = self.store.counts()
            live = counts.get("pending", 0) + counts.get("running", 0)
            if live == 0:
                return True
            self.store.wait_for_work(0.05)
        return False

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _worker_loop(self, name: str) -> None:
        """One claim thread: claim → execute → repeat until stopped."""
        accept = (
            None
            if self.dispatch == "local" or self.fleet is None
            else self._accept_job
        )
        identity = (f"local/{name}", self._host, os.getpid())
        while not self._stop.is_set():
            job = self.store.claim(name, accept=accept, identity=identity)
            if job is None:
                self.store.wait_for_work(self.poll_s)
                continue
            self._run_job(job)

    def _accept_job(self, job: Job) -> bool:
        """The dispatch policy: should a *local* thread take this job?

        Runs under the store lock, so every branch is cheap: analyze
        jobs are always local (they read the master's archive/index),
        ``remote`` refuses everything else, and ``auto`` keeps
        run/sweep work local only while no runner is alive — except
        cache-hit run jobs, which serve inline faster than any lease
        round-trip could.
        """
        if job.kind == KIND_ANALYZE:
            return True
        if self.dispatch == "remote":
            return False
        if self.fleet.live_runner_count() == 0:
            return True
        return job.kind == KIND_RUN and isinstance(
            self.fleet.probe(job), tuple
        )

    def _run_job(self, job: Job) -> None:
        """Execute one claimed job through to a terminal state."""
        self._log(f"{job.label()} started (attempt {job.attempt})")
        if job.wait_s is not None:
            obs.observe(obs_names.METRIC_QUEUE_WAIT_SECONDS, job.wait_s)
        job_span = obs.span(
            obs_names.SPAN_SCHEDULER_JOB,
            job_id=job.job_id,
            kind=job.kind,
            experiment=job.experiment_id,
        )
        try:
            with job_span:
                if job.kind == KIND_ANALYZE:
                    self._run_analyze(job)
                else:
                    self._run_points(job)
                job_span.set(status=job.status)
        except Exception as error:  # noqa: BLE001 - job-level isolation
            # First line only: a WorkerError's message embeds the whole
            # worker traceback, which the traceback field already holds.
            message = str(error).splitlines()[0] if str(error) else ""
            failure = (
                {
                    "type": type(error).__name__,
                    "message": message,
                    "traceback": getattr(error, "worker_traceback", "")
                    or _failure_from(error)["traceback"],
                }
            )
            try:
                self.store.finish(job, FAILED, error=failure)
            except Exception as second:  # noqa: BLE001 - keep thread alive
                # finish() can itself fail (illegal transition after a
                # persist error left the job terminal in memory, disk
                # full, ...).  A claim thread must survive regardless —
                # a dead worker silently halves the pool.
                self._log(
                    f"{job.label()} failure could not be recorded: "
                    f"{type(second).__name__}: {second}"
                )
            else:
                self._log(f"{job.label()} failed: {failure['type']}")
        else:
            self._log(f"{job.label()} {job.status}")
        obs.count(obs_names.METRIC_JOBS_FINISHED, status=job.status)

    def _run_points(self, job: Job) -> None:
        """Run or sweep job: stream every point through cache or compute.

        A run job is one point.  Cancellation takes effect at point
        boundaries; a cancel request that lands mid-compute cannot abort
        the point (its work is archived and cached regardless) but the
        job still finishes ``cancelled``, so the terminal state matches
        what the user asked for.
        """
        points = job.points()
        publisher = (
            SweepPublisher.for_job(job, len(points))
            if job.kind == KIND_SWEEP
            else None
        )
        last_metrics: dict[str, float] = {}
        try:
            for index, (point, spec) in enumerate(points):
                if job.cancel_requested:
                    break
                outcome = self.engine.lookup(spec)
                cached = outcome is not None
                if outcome is None:
                    outcome = self._compute(spec)
                last_metrics = dict(outcome.result.metrics)
                if publisher is not None:
                    publisher.point(
                        index,
                        point or {},
                        last_metrics,
                        run_id=outcome.run_id,
                        cached=cached,
                    )
                self.store.update_progress(
                    job,
                    index + 1,
                    len(points),
                    run_id=outcome.run_id,
                    cached=cached,
                )
        except Exception:
            # The job-level handler records the failure; the topic must
            # still reach a terminal status for dashboards.
            if publisher is not None:
                publisher.finish(FAILED)
            raise
        status = CANCELLED if job.cancel_requested else DONE
        metrics = last_metrics if status == DONE else None
        if publisher is not None:
            publisher.finish(status, metrics=metrics)
        self.store.finish(job, status, metrics=metrics)

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

    def _compute(self, spec: RunSpec) -> RunOutcome:
        """Execute one cache miss (shared process pool or in-thread)."""
        if not self.use_processes:
            return self.engine.compute(spec)
        result = pool.submit(spec, self.workers).result()
        return self.engine.finish_worker_result(spec, result)

    def _log(self, message: str) -> None:
        """Emit one scheduler log line through the configured callback."""
        if self.on_event is not None:
            self.on_event(message)
