"""The master side of the fleet: runner registry, leases, ingest.

One :class:`FleetCoordinator` lives inside the service daemon next to
the :class:`~repro.service.store.JobStore` and the
:class:`~repro.runtime.engine.RunEngine`.  It owns everything a remote
runner cannot be trusted with:

- **Registration and liveness.**  Runners get their id here and prove
  liveness by heartbeating; a runner silent for one lease TTL is
  declared lost and its leases are released back to ``pending`` — the
  remote-pid extension of the store's local pid/zombie claim fencing
  (``os.kill(pid, 0)`` cannot reach another host, heartbeats can).
- **Leases.**  Every job leaves ``pending`` through :meth:`claim`,
  which runs :meth:`JobStore.claim`: already-cached run jobs are
  served inline on the master (one batched journal append — the >1k
  jobs/s path) and the rest are leased.  Every result-bearing RPC is
  fenced against the lease table, so a runner that lost its lease
  mid-job gets a clean rejection instead of double-completing work
  that was already re-dispatched.  The master's own workers are a
  :class:`~repro.fleet.runner.FleetRunner` in this process whose
  client is the coordinator itself: they register, heartbeat and hold
  leases like any runner, and only they are leased analysis jobs
  (:meth:`analyze`).
- **All result IO.**  Every point of every job is looked up through
  :meth:`lookup` and enters the archive and cache through
  :meth:`ingest`, via the engine's ordinary
  ``complete_record``/``record_failure`` path, preserving the
  atomic-write and journal invariants no matter where compute ran.

Numpy-free at import time: this module sits in the lazy-import closure
(IMP001) because :mod:`repro.service.api` imports it at the top level.
"""

from __future__ import annotations

import collections
import itertools
import os
import socket
import threading
import time

from repro import obs
from repro.errors import ConfigurationError
from repro.fleet.protocol import (
    DEFAULT_CLAIM_BATCH,
    DEFAULT_LEASE_TTL_S,
    IDLE_POLL_S,
    RUNNER_ALIVE,
    RUNNER_LOST,
    VERDICT_COMPUTE,
    VERDICT_LEASE,
    heartbeat_interval,
    spec_from_payload,
)
from repro.obs import names as obs_names
from repro.obs.dashboard import MAX_JOBS
from repro.runtime.engine import RunEngine, _failure_from
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

#: Fingerprint-probe LRU size.  Entries are ``(run_id, metrics)``
#: scalars — a few hundred bytes each — so the hot classify path of a
#: large cached campaign stays in memory without rereading entry JSON.
PROBE_LRU = 4096


class FleetCoordinator:
    """Runner registry + heartbeat-fenced leases for one service daemon.

    Parameters
    ----------
    store / engine:
        The daemon's queue and engine; all persistence flows through
        them on this side of the wire.
    lease_ttl_s:
        Seconds without a heartbeat before a runner is declared lost
        and its leased jobs return to ``pending``.
    on_event:
        Optional ``callable(message: str)`` receiving one line per
        fleet lifecycle change (the CLI's ``serve`` log).
    """

    def __init__(
        self,
        store: JobStore,
        engine: RunEngine,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        on_event=None,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ConfigurationError(
                f"lease TTL must be > 0 seconds, got {lease_ttl_s}"
            )
        self.store = store
        self.engine = engine
        self.lease_ttl_s = float(lease_ttl_s)
        self.on_event = on_event
        self._lock = threading.Lock()
        self._runners: dict[str, dict[str, object]] = {}
        self._leases: dict[int, dict[str, object]] = {}
        self._ids = itertools.count(1)
        self._probe_lock = threading.Lock()
        self._probe: collections.OrderedDict[
            str, tuple[str, dict[str, float]]
        ] = collections.OrderedDict()
        self._stop = threading.Event()
        self._reaper: threading.Thread | None = None
        self._expired_total = 0
        #: Topics of ended sweep jobs, oldest first, still on the bus.
        self._ended_sweeps: collections.deque[str] = collections.deque()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the lease-reaper thread (idempotent while running)."""
        if self._reaper is not None and self._reaper.is_alive():
            return
        self._stop.clear()
        self._reaper = threading.Thread(
            target=self._reap_loop, name="repro-fleet-reaper", daemon=True
        )
        self._reaper.start()

    def stop(self) -> None:
        """Stop and join the reaper thread (leases stay as they are);
        empty claims stop waiting, so stopping workers are not held."""
        self._stop.set()
        self.store.kick()
        if self._reaper is not None:
            self._reaper.join(timeout=5.0)
            self._reaper = None

    # ------------------------------------------------------------------
    # RPC surface (called by repro.service.api handlers)
    # ------------------------------------------------------------------
    def register(
        self, host: str, pid: int, workers: int = 1
    ) -> dict[str, object]:
        """Admit a runner; returns its id and the timing contract."""
        now = time.time()
        with self._lock:
            runner_id = f"runner-{next(self._ids)}"
            self._runners[runner_id] = {
                "runner_id": runner_id,
                "host": str(host or "?"),
                "pid": int(pid or 0),
                "workers": max(1, int(workers)),
                "status": RUNNER_ALIVE,
                "registered_unix": now,
                "last_beat_unix": now,
                "leases": set(),
                "leased_total": 0,
                "completed": 0,
                "failed": 0,
            }
            doc = self._runners[runner_id]
        self._log(f"runner {runner_id} registered ({host} pid {pid})")
        self._gauge_runners()
        return {
            "runner_id": runner_id,
            "lease_ttl_s": self.lease_ttl_s,
            "heartbeat_s": heartbeat_interval(self.lease_ttl_s),
        }

    def heartbeat(self, runner_id: str) -> dict[str, object]:
        """Refresh a runner's lease fence; replies with cancel requests."""
        obs.count(obs_names.METRIC_FLEET_HEARTBEATS)
        with self._lock:
            doc = self._alive_doc(runner_id)
            doc["last_beat_unix"] = time.time()
            cancelled = [
                job_id
                for job_id in doc["leases"]
                if self._leases[job_id]["job"].cancel_requested
            ]
        return {"cancelled": sorted(cancelled)}

    def claim(
        self, runner_id: str, max_jobs: int | None = None
    ) -> dict[str, object]:
        """Lease up to ``max_jobs`` pending jobs to a runner.

        The one door through which jobs leave ``pending``.  Cache-hit
        run jobs never leave the master: the store's batched claim
        serves them inline (see :meth:`_classify`), up to
        :data:`~repro.fleet.protocol.DEFAULT_CLAIM_BATCH` jobs per claim,
        cached ones included, and only the genuinely-pending
        remainder is leased.  A claim that gets nothing waits up to
        :data:`~repro.fleet.protocol.IDLE_POLL_S` for a job to become
        pending before it answers, so an idle runner neither spins nor
        sleeps through a submission.
        """
        with self._lock:
            doc = self._alive_doc(runner_id)
            doc["last_beat_unix"] = time.time()
            identity = (runner_id, str(doc["host"]), int(doc["pid"]))
            local = _in_process(doc)
        limit = min(DEFAULT_CLAIM_BATCH, int(max_jobs or DEFAULT_CLAIM_BATCH))
        seen = self.store.work_seq
        served, leased = self.store.claim(
            runner_id,
            DEFAULT_CLAIM_BATCH,
            lambda job: self._classify(job, local),
            identity=identity,
            max_leased=max(1, limit),
        )
        if not (served or leased or self._stop.is_set()):
            self.store.wait_for_work(seen, IDLE_POLL_S)
        if leased:
            obs.count(obs_names.METRIC_FLEET_LEASES, len(leased))
            with self._lock:
                for job in leased:
                    self._leases[job.job_id] = {
                        "runner_id": runner_id,
                        "job": job,
                        "publisher": None,
                    }
                    doc["leases"].add(job.job_id)
                doc["leased_total"] += len(leased)
            self._gauge_runners()
        if served:
            obs.count(obs_names.METRIC_CACHE_HIT, len(served))
        return {
            "jobs": [job.to_dict() for job in leased],
            "served": [job.job_id for job in served],
        }

    def lookup(
        self, runner_id: str, job_id: int, spec: dict[str, object]
    ) -> dict[str, object]:
        """The cache consult for one point of a held job.

        Runs the engine's real ``lookup`` (not just a probe) so a hit
        whose run directory was pruned is re-archived here — runners
        stay numpy-light until an actual miss forces them to compute.
        """
        self._require_lease(runner_id, int(job_id))
        outcome = self.engine.lookup(spec_from_payload(spec))
        if outcome is None:
            return {"hit": False}
        return {
            "hit": True,
            "run_id": outcome.run_id,
            "metrics": dict(outcome.result.metrics),
        }

    def ingest(
        self,
        runner_id: str,
        job_id: int,
        spec: dict[str, object],
        record: dict[str, object] | None = None,
        failure: dict[str, str] | None = None,
        duration_s: float = 0.0,
        spans: list[dict[str, object]] | None = None,
    ) -> dict[str, object]:
        """Persist one computed result (or failure) master-side.

        The only door results enter through: archive, cache and index
        writes all happen here via the engine, and the worker's
        captured spans are journaled into this daemon's telemetry
        (workers compute, the master persists).  Only records from
        runners outside this process count as ``fleet.ingested``.
        """
        self._require_lease(runner_id, int(job_id))
        run_spec = spec_from_payload(spec)
        obs.replay(list(spans or []))
        if failure is not None:
            self.engine.record_failure(
                run_spec, dict(failure), float(duration_s)
            )
            return {"run_id": run_spec.run_id(), "failed": True}
        if record is None:
            raise ConfigurationError(
                "runner.ingest needs either a record or a failure"
            )
        outcome = self.engine.complete_record(
            run_spec, record, float(duration_s)
        )
        doc = self._runners.get(str(runner_id))
        if doc is not None and not _in_process(doc):
            obs.count(obs_names.METRIC_FLEET_INGESTED)
        return {
            "run_id": outcome.run_id,
            "metrics": dict(outcome.result.metrics),
        }

    def progress(
        self,
        runner_id: str,
        job_id: int,
        done_points: int,
        total_points: int,
        run_id: str | None = None,
        cached: bool = False,
        point: dict[str, object] | None = None,
        metrics: dict[str, float] | None = None,
    ) -> dict[str, object]:
        """Stream one finished point of a leased job into the store.

        Replies with the job's cancel flag so runners observe
        cancellation at point boundaries, like local sweep execution.
        """
        lease = self._require_lease(runner_id, int(job_id))
        job: Job = lease["job"]
        if (
            job.kind == KIND_SWEEP
            and lease["publisher"] is None
            and obs.enabled()
        ):
            lease["publisher"] = SweepPublisher.for_job(
                job, int(total_points)
            )
        publisher = lease["publisher"]
        if publisher is not None and point is not None:
            publisher.point(
                int(done_points) - 1,
                point,
                metrics or {},
                run_id=run_id,
                cached=bool(cached),
            )
        self.store.update_progress(
            job,
            int(done_points),
            int(total_points),
            run_id=run_id,
            cached=bool(cached),
        )
        return {"cancel_requested": bool(job.cancel_requested)}

    def complete(
        self,
        runner_id: str,
        job_id: int,
        metrics: dict[str, float] | None = None,
    ) -> dict[str, object]:
        """Finish a leased job ``done`` (or ``cancelled`` if requested)."""
        lease = self._require_lease(runner_id, int(job_id))
        job: Job = lease["job"]
        status = CANCELLED if job.cancel_requested else DONE
        if status != DONE:
            metrics = None
        publisher = lease["publisher"]
        if publisher is not None:
            publisher.finish(status, metrics=metrics)
        self.store.finish(job, status, metrics=metrics)
        self._settle(runner_id, int(job_id), "completed")
        return {"status": job.status}

    def fail(
        self, runner_id: str, job_id: int, error: dict[str, str]
    ) -> dict[str, object]:
        """Finish a leased job ``failed`` with the runner's traceback."""
        lease = self._require_lease(runner_id, int(job_id))
        job: Job = lease["job"]
        publisher = lease["publisher"]
        if publisher is not None:
            publisher.finish(FAILED)
        try:
            self.store.finish(job, FAILED, error=dict(error))
        finally:
            # Even a failure the store could not record ends the lease.
            self._settle(runner_id, int(job_id), "failed")
        return {"status": job.status}

    def analyze(self, runner_id: str, job_id: int) -> dict[str, object]:
        """Run a leased analysis job's pipeline to a terminal state.

        Analyses are leased only to runners in this process (see
        :meth:`_classify`): the pipeline reads this master's archive
        and index directly.  Each analyzer is one progress line, and a
        cancel request takes effect before the next analyzer, as before
        the next sweep point.
        """
        from repro.analysis.pipelines import PipelineRunner, get_pipeline
        from repro.analysis.report import write_report

        job: Job = self._require_lease(runner_id, int(job_id))["job"]
        name = str(job.analysis_pipeline)
        done = itertools.count(1)
        try:
            total = len(get_pipeline(name))
            result = PipelineRunner(self.engine.root).run(
                name,
                on_outcome=lambda outcome: self.store.update_progress(
                    job, next(done), total, cached=outcome.cached
                ),
                should_stop=lambda: job.cancel_requested,
            )
            if result.completed:
                write_report(self.engine.root, result)
        except Exception as error:  # noqa: BLE001 - fail the job only
            return self.fail(runner_id, int(job_id), _failure_from(error))
        return self.complete(
            runner_id,
            int(job_id),
            {
                "analyzers": float(len(result.outcomes)),
                "cached_analyzers": float(result.num_cached),
            },
        )

    def status(self) -> dict[str, object]:
        """The fleet snapshot behind ``repro fleet`` and CI assertions."""
        with self._lock:
            runners = [self._runner_summary(d) for d in self._runners.values()]
            leases = [
                {
                    "job_id": job_id,
                    "runner_id": lease["runner_id"],
                    "experiment_id": lease["job"].experiment_id,
                    "kind": lease["job"].kind,
                }
                for job_id, lease in sorted(self._leases.items())
            ]
            counts = self._counts()
        return {
            "lease_ttl_s": self.lease_ttl_s,
            "claim_batch": DEFAULT_CLAIM_BATCH,
            "counts": counts,
            "expired_total": self._expired_total,
            "runners": runners,
            "leases": leases,
        }

    # ------------------------------------------------------------------
    # Classification (runs under the store lock — stat-cheap only)
    # ------------------------------------------------------------------
    def _classify(self, job: Job, local: bool):
        """Drain verdict for one pending job: skip, serve inline or lease.

        Analyze jobs lease only to a ``local`` runner, one in this
        process (they read the master's archive and index directly);
        sweeps always lease (their cache hits are proxied per point).
        A cached run job is served inline from the numpy-free slice of
        its cache entry — unless its run directory was pruned, in which
        case it leases so the proxied lookup can re-archive it through
        the full engine path — and a miss is to compute (held back by
        the store while a running twin computes it).
        """
        if job.kind == KIND_ANALYZE:
            return VERDICT_LEASE if local else None
        if job.kind != KIND_RUN:
            return VERDICT_LEASE
        cache = self.engine.cache
        if cache is None:
            return VERDICT_LEASE
        key = job.fingerprint()
        probe = self._probe_get(key)
        if probe is None:
            if not cache.contains(key):
                return (VERDICT_COMPUTE, key)
            entry = cache.read_entry(key)
            record = entry.get("record") if entry else None
            metrics = (
                record.get("metrics") if isinstance(record, dict) else None
            )
            if not isinstance(metrics, dict):
                return VERDICT_LEASE  # torn entry: recompute remotely
            probe = (f"{job.experiment_id}-{key[:12]}", dict(metrics))
            self._probe_put(key, probe)
        run_id, metrics = probe
        if not (self.engine.runs_dir / run_id).exists():
            return VERDICT_LEASE
        return ("serve", run_id, dict(metrics))

    def _probe_get(self, key: str):
        with self._probe_lock:
            probe = self._probe.get(key)
            if probe is not None:
                self._probe.move_to_end(key)
            return probe

    def _probe_put(self, key: str, probe) -> None:
        with self._probe_lock:
            self._probe[key] = probe
            while len(self._probe) > PROBE_LRU:
                self._probe.popitem(last=False)

    # ------------------------------------------------------------------
    # Fencing and expiry
    # ------------------------------------------------------------------
    def _alive_doc(self, runner_id: str) -> dict[str, object]:
        """The registry doc of a live runner (caller holds the lock)."""
        doc = self._runners.get(str(runner_id))
        if doc is None or doc["status"] != RUNNER_ALIVE:
            state = "unknown" if doc is None else str(doc["status"])
            raise ConfigurationError(
                f"runner {runner_id!r} is {state} on this master; "
                "re-register to obtain a fresh identity"
            )
        return doc

    def _require_lease(
        self, runner_id: str, job_id: int
    ) -> dict[str, object]:
        """The lease entry fencing one result-bearing RPC.

        Raises ``ConfigurationError`` (→ invalid-params over the wire)
        when the lease is gone or held by someone else — the ghost of a
        presumed-dead runner must not complete a job the master already
        re-dispatched.
        """
        with self._lock:
            lease = self._leases.get(job_id)
            if lease is None or lease["runner_id"] != str(runner_id):
                holder = None if lease is None else lease["runner_id"]
                raise ConfigurationError(
                    f"runner {runner_id!r} holds no lease on job {job_id} "
                    f"(current holder: {holder}); the lease expired or the "
                    "job was reassigned"
                )
            self._runners[str(runner_id)]["last_beat_unix"] = time.time()
            return lease

    def _settle(self, runner_id: str, job_id: int, counter: str) -> None:
        """Drop a finished lease and publish the runner's new state."""
        with self._lock:
            lease = self._leases.pop(job_id, None)
            doc = self._runners[str(runner_id)]
            doc["leases"].discard(job_id)
            doc[counter] = int(doc[counter]) + 1
        self._gauge_runners()
        if lease is not None and lease["publisher"] is not None:
            self._retire_sweeps(lease["publisher"].topic)

    def _retire_sweeps(self, ended: str) -> None:
        """Drop ended sweep topics from the bus but the newest
        :data:`MAX_JOBS`, as many jobs as the dashboard shows (a topic
        a live lease publishes again stays)."""
        with self._lock:
            if ended in self._ended_sweeps:
                self._ended_sweeps.remove(ended)
            self._ended_sweeps.append(ended)
            if len(self._ended_sweeps) <= MAX_JOBS:
                return
            oldest = self._ended_sweeps.popleft()
            if any(
                lease["publisher"] is not None
                and lease["publisher"].topic == oldest
                for lease in self._leases.values()
            ):
                return
        obs.state().bus.retire(oldest)

    def expire_overdue(self) -> list[int]:
        """Expire runners past the lease TTL; returns released job ids.

        The reaper calls this on a timer; tests call it directly to
        make expiry deterministic.  Store releases happen outside the
        coordinator lock (the store has its own), and each released job
        goes back to ``pending`` with its attempt bumped.
        """
        now = time.time()
        expired: list[tuple[dict[str, object], list[dict[str, object]]]] = []
        with self._lock:
            for doc in self._runners.values():
                if doc["status"] != RUNNER_ALIVE:
                    continue
                if now - float(doc["last_beat_unix"]) <= self.lease_ttl_s:
                    continue
                doc["status"] = RUNNER_LOST
                leases = [
                    self._leases.pop(job_id)
                    for job_id in sorted(doc["leases"])
                    if job_id in self._leases
                ]
                doc["leases"] = set()
                expired.append((doc, leases))
        released: list[int] = []
        for doc, leases in expired:
            self._log(
                f"runner {doc['runner_id']} lost (no heartbeat for "
                f"{self.lease_ttl_s:.1f}s); releasing "
                f"{len(leases)} lease(s)"
            )
            for lease in leases:
                job: Job = lease["job"]
                publisher = lease["publisher"]
                if publisher is not None:
                    publisher.finish("released")
                    self._retire_sweeps(publisher.topic)
                self.store.release(job)
                released.append(job.job_id)
            with self._lock:
                self._expired_total += len(leases)
            self._gauge_runners()
        if released:
            obs.count(
                obs_names.METRIC_FLEET_LEASES_EXPIRED, len(released)
            )
        return released

    def _reap_loop(self) -> None:
        """Expire overdue runners until stopped, one TTL-fraction at a time."""
        interval = heartbeat_interval(self.lease_ttl_s)
        while not self._stop.wait(interval):
            try:
                self.expire_overdue()
            except Exception as error:  # noqa: BLE001 - reaper must survive
                self._log(
                    f"lease reaper error: {type(error).__name__}: {error}"
                )

    # ------------------------------------------------------------------
    # Publishing and logging
    # ------------------------------------------------------------------
    def _counts(self) -> dict[str, int]:
        """Alive/lost/lease tallies (caller holds the lock)."""
        alive = sum(
            1 for d in self._runners.values() if d["status"] == RUNNER_ALIVE
        )
        return {
            "alive": alive,
            "lost": len(self._runners) - alive,
            "leases": len(self._leases),
        }

    def _runner_summary(self, doc: dict[str, object]) -> dict[str, object]:
        """The JSON-native view of one registry doc (lock held)."""
        summary = dict(doc)
        summary["leases"] = sorted(doc["leases"])
        summary["age_s"] = round(
            time.time() - float(doc["last_beat_unix"]), 3
        )
        return summary

    def _gauge_runners(self) -> None:
        """Set the ``fleet.runners`` gauge after a runner state change."""
        with self._lock:
            alive = self._counts()["alive"]
        obs.gauge(obs_names.METRIC_FLEET_RUNNERS, alive)

    def _log(self, message: str) -> None:
        if self.on_event is not None:
            self.on_event(message)


def _in_process(doc: dict[str, object]) -> bool:
    """Whether a registered runner lives in this process."""
    return doc["pid"] == os.getpid() and doc["host"] == socket.gethostname()
