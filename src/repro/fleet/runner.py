"""The fleet runner process and the one point loop every job runs.

:class:`FleetRunner` is the body of ``repro runner --master URL``.  It
holds **no engine root** — no queue, archive, cache or index — only an
open RPC connection to its master.  ``runner.claim`` leases it a batch
(cache-hit run jobs were already served master-side and never arrive
here), and each leased job runs through :func:`execute_points`:

1. For each spec ``lookup`` consults the master's cache — the proxied
   consult that keeps a runner numpy-light until a genuine miss.
2. Misses go through :func:`compute`: the engine's ``_execute_safe`` on
   the process-wide pool of :mod:`repro.runtime.pool`, or in-thread.
3. ``ingest`` ships the record home with the worker's spans (recorded
   under the runner's ``fleet.execute`` span while telemetry is on);
   ``progress``/``complete``/``fail`` drive the job's lifecycle.

:func:`execute_points` speaks only those five verbs, so the master's
own claim threads (:class:`repro.service.scheduler.Scheduler`) run the
same loop with the :class:`~repro.fleet.coordinator.FleetCoordinator`
itself as the client.  One loop over one ingest door is why a record
is byte-identical wherever it was computed.

A heartbeat thread fences the lease; any lease rejection
(``ConfigurationError`` from the client) means the master moved on —
the runner drops the job silently and claims fresh work.

``REPRO_RUNNER_STALL_S`` (float, seconds) injects a sleep between
claim and compute — the fault-injection hook the SIGKILL recovery test
uses to kill a runner deterministically *mid-job*.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro import obs
from repro.errors import ConfigurationError, ServiceError
from repro.fleet.protocol import (
    DEFAULT_CLAIM_BATCH,
    heartbeat_interval,
    spec_payload,
)
from repro.obs import names as obs_names
from repro.runtime import pool
from repro.service.jobs import Job

if TYPE_CHECKING:
    from repro.fleet.client import RunnerClient
    from repro.runtime.engine import RunSpec, WorkerResult

#: Fault-injection hook: seconds to stall between claim and compute.
STALL_ENV_VAR = "REPRO_RUNNER_STALL_S"

#: Idle wait between empty claims, seconds.
IDLE_POLL_S = 0.2


class FleetRunner:
    """One runner process: N claim threads against one master.

    Parameters
    ----------
    master_url:
        The master's base URL (``http://host:port``).
    workers:
        Claim threads (= concurrently executing jobs on this runner).
    use_processes:
        Compute misses on the process-wide pool
        (:mod:`repro.runtime.pool`), asking for at most ``workers``
        processes.  ``False`` computes in-thread (tests).
    on_event:
        Optional ``callable(message: str)`` for lifecycle log lines.
    client:
        Injectable :class:`RunnerClient` (tests).
    """

    def __init__(
        self,
        master_url: str,
        workers: int = 1,
        use_processes: bool = True,
        on_event=None,
        client: RunnerClient | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"runner workers must be >= 1, got {workers}"
            )
        if client is None:
            # Deferred: the client imports the service API, which imports
            # this module's point loop for the scheduler.
            from repro.fleet.client import RunnerClient

            client = RunnerClient(master_url)
        self.client = client
        self.workers = int(workers)
        self.use_processes = use_processes
        self.on_event = on_event
        self.host = socket.gethostname()
        self.pid = os.getpid()
        self.runner_id: str | None = None
        self.heartbeat_s = heartbeat_interval(10.0)
        self.claim_batch = DEFAULT_CLAIM_BATCH
        self.jobs_done = 0
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._cancelled: set[int] = set()
        self._beat_thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def register(self) -> str:
        """Join the master's fleet; returns the assigned runner id."""
        reply = self.client.register(self.host, self.pid, self.workers)
        self.runner_id = str(reply["runner_id"])
        self.heartbeat_s = float(reply.get("heartbeat_s", self.heartbeat_s))
        self.claim_batch = int(reply.get("claim_batch", self.claim_batch))
        self._log(
            f"registered as {self.runner_id} "
            f"(heartbeat {self.heartbeat_s:.1f}s)"
        )
        return self.runner_id

    def run(
        self,
        max_jobs: int | None = None,
        idle_exit_s: float | None = None,
    ) -> int:
        """Execute jobs until stopped; returns how many were executed.

        ``max_jobs`` bounds total executed jobs (tests); ``idle_exit_s``
        exits after that long with nothing claimable (benchmark runner
        processes drain and leave).  Both default to run-forever.
        """
        if self.runner_id is None:
            self.register()
        self._start_heartbeat()
        threads = [
            threading.Thread(
                target=self._claim_loop,
                args=(max_jobs, idle_exit_s),
                name=f"repro-runner-{index}",
                daemon=True,
            )
            for index in range(self.workers)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            self.stop()
        return self.jobs_done

    def stop(self) -> None:
        """Stop claiming and stop the heartbeat."""
        self._stop.set()
        if self._beat_thread is not None:
            self._beat_thread.join(timeout=2.0)
            self._beat_thread = None

    # ------------------------------------------------------------------
    # Loops
    # ------------------------------------------------------------------
    def _start_heartbeat(self) -> None:
        if self._beat_thread is not None and self._beat_thread.is_alive():
            return
        self._beat_thread = threading.Thread(
            target=self._heartbeat_loop,
            name="repro-runner-heartbeat",
            daemon=True,
        )
        self._beat_thread.start()

    def _heartbeat_loop(self) -> None:
        """Beat until stopped; collect cancel requests along the way."""
        while not self._stop.wait(self.heartbeat_s):
            try:
                reply = self.client.heartbeat(str(self.runner_id))
            except ConfigurationError:
                # The master declared us lost; claims will re-register.
                continue
            except ServiceError:
                continue  # master briefly unreachable; keep beating
            cancelled = reply.get("cancelled") or []
            if cancelled:
                with self._lock:
                    self._cancelled.update(int(j) for j in cancelled)

    def _claim_loop(
        self, max_jobs: int | None, idle_exit_s: float | None
    ) -> None:
        """One claim thread: claim a batch, execute it, repeat."""
        idle_since: float | None = None
        while not self._stop.is_set():
            if max_jobs is not None and self.jobs_done >= max_jobs:
                self._stop.set()
                return
            try:
                reply = self.client.claim(
                    str(self.runner_id), self.claim_batch
                )
            except ConfigurationError:
                # Lost our identity (master restarted, or we were
                # declared dead and resurrected): start a new life.
                try:
                    self.register()
                except (ConfigurationError, ServiceError):
                    time.sleep(self.heartbeat_s)
                continue
            except ServiceError:
                time.sleep(self.heartbeat_s)
                continue
            jobs = [Job.from_dict(doc) for doc in reply.get("jobs") or []]
            if not jobs:
                if idle_exit_s is not None:
                    if idle_since is None:
                        idle_since = time.monotonic()
                    elif time.monotonic() - idle_since >= idle_exit_s:
                        self._stop.set()
                        return
                self._stop.wait(IDLE_POLL_S)
                continue
            idle_since = None
            for job in jobs:
                if self._stop.is_set():
                    return
                self._execute_job(job)
                self.jobs_done += 1
                if max_jobs is not None and self.jobs_done >= max_jobs:
                    self._stop.set()
                    return

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute_job(self, job: Job) -> None:
        """Drive one leased job to a terminal state on the master.

        Lease rejections abort the job silently (the master re-issued
        it); anything else the runner can name is reported through
        ``runner.fail`` so the job fails visibly instead of waiting out
        the lease TTL.
        """
        stall = float(os.environ.get(STALL_ENV_VAR, "0") or 0.0)
        if stall > 0:
            time.sleep(stall)
        runner_id = str(self.runner_id)
        try:
            with obs.span(
                obs_names.SPAN_FLEET_EXECUTE,
                job_id=job.job_id,
                kind=job.kind,
                experiment=job.experiment_id,
            ):
                execute_points(
                    self.client,
                    runner_id,
                    job,
                    self._compute,
                    lambda: self._is_cancelled(job.job_id),
                )
        except ConfigurationError as error:
            self._log(f"{job.label()} lease lost: {error}")
        except ServiceError as error:
            self._log(f"{job.label()} master unreachable: {error}")
        except Exception as error:  # noqa: BLE001 - job-level isolation
            try:
                self.client.fail(
                    runner_id,
                    job.job_id,
                    {
                        "type": type(error).__name__,
                        "message": str(error),
                        "traceback": "",
                    },
                )
            except (ConfigurationError, ServiceError):
                pass  # lease already gone; the master moved on

    def _is_cancelled(self, job_id: int) -> bool:
        with self._lock:
            return job_id in self._cancelled

    def _compute(self, spec: RunSpec) -> WorkerResult:
        return compute(spec, self.workers if self.use_processes else 0)

    def _log(self, message: str) -> None:
        if self.on_event is not None:
            self.on_event(message)


def execute_points(
    client,
    holder: str,
    job: Job,
    compute: Callable[[RunSpec], WorkerResult],
    cancelled: Callable[[], bool],
) -> None:
    """Drive one held job to a terminal state, one point at a time.

    ``client`` speaks the runner verbs — ``lookup``, ``ingest``,
    ``progress``, ``complete`` and ``fail``, each fenced by the lease
    ``holder`` names: a :class:`RunnerClient` on a runner, the
    coordinator itself on the master.  Each point is a cache lookup,
    then on a miss ``compute(spec)`` (the ``_execute_safe`` tuple) and
    an ingest; a failed compute fails the job with the worker's
    traceback.  Cancellation takes effect at point boundaries, from
    ``cancelled()`` or the progress reply: a cancel that lands
    mid-compute cannot abort the point (its record is ingested
    regardless), but the job still finishes ``cancelled``.  A run job
    is a single point with no scan coordinates.
    """
    pairs = job.points()
    last_metrics: dict[str, float] = {}
    for index, (point, spec) in enumerate(pairs):
        if cancelled():
            break
        payload = spec_payload(spec)
        reply = client.lookup(holder, job.job_id, payload)
        cached = bool(reply.get("hit"))
        if not cached:
            record, failure, duration, spans = compute(spec)
            reply = client.ingest(
                holder, job.job_id, payload, record=record,
                failure=failure, duration_s=duration, spans=spans,
            )
            if failure is not None:
                client.fail(holder, job.job_id, failure)
                return
        last_metrics = dict(reply.get("metrics") or {})
        progress = client.progress(
            holder, job.job_id, index + 1, len(pairs),
            run_id=str(reply.get("run_id")), cached=cached,
            point=point, metrics=last_metrics,
        )
        if progress.get("cancel_requested"):
            break
    # The coordinator turns this into cancelled when a cancel is pending.
    client.complete(holder, job.job_id, metrics=last_metrics)


def compute(spec: RunSpec, processes: int) -> WorkerResult:
    """Execute one miss: on the shared pool, or in-thread at ``processes=0``.

    ``processes`` bounds the pool's size.  Either way the result tuple
    carries the worker's spans for ``ingest`` to journal.  Lazy import:
    a runner that only ever serves proxied cache hits never loads the
    driver stack (numpy) at all.
    """
    if processes:
        return pool.submit(spec, processes).result()
    from repro.runtime.engine import _execute_safe

    return _execute_safe(spec, obs.context())
