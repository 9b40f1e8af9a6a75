"""Localhost JSON-RPC-over-HTTP API of the experiment service.

:class:`ExperimentService` bundles the persistent
:class:`~repro.service.store.JobStore`, the
:class:`~repro.fleet.coordinator.FleetCoordinator`, the daemon's own
workers (an in-process :class:`~repro.fleet.runner.FleetRunner`) and a
stdlib ``ThreadingHTTPServer`` into the always-on daemon behind
``repro serve``.  The wire protocol is JSON-RPC 2.0 over ``POST /rpc``
(plus ``GET /healthz`` for probes) on HTTP/1.1 keep-alive connections::

    → {"jsonrpc": "2.0", "id": 1, "method": "submit",
       "params": {"experiment": "E5", "quick": true,
                  "params": {"pump_mw": 2.0}, "priority": 5}}
    ← {"jsonrpc": "2.0", "id": 1,
       "result": {"job": {...}, "deduped": false}}

Methods: ``submit``, ``status``, ``result`` (long-poll until terminal),
``cancel``, ``requeue``, ``queue`` (snapshot), ``events`` (long-poll
subscription feed), ``health`` and ``shutdown``.  The server gives each
connection its own handler thread, which serves that connection's
requests one after another; a client thread keeps one connection open
across its calls (:mod:`repro.service.client`).  A connection idle for
:data:`IDLE_TIMEOUT_S` between requests is closed, and the client
reconnects.  Long-polls block only their own connection's thread.

On boot the server publishes its address to
``<root>/queue/service.json`` so clients (and the CLI subcommands)
discover a running daemon from the engine root alone; the file is
removed on clean shutdown.  Binding ``port=0`` picks an ephemeral port
— the CI smoke job boots exactly that way.
"""

from __future__ import annotations

import json
import os
import pathlib
import selectors
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import obs
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    ReproError,
    ServiceError,
)
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.protocol import DEFAULT_LEASE_TTL_S
from repro.fleet.runner import FleetRunner
from repro.obs import names as obs_names
from repro.runtime.engine import RunEngine, _failure_from, default_root
from repro.service.jobs import FAILED, KIND_ANALYZE
from repro.service.store import JobStore
from repro.utils.io import atomic_write_text

#: The service-discovery file inside the queue directory.
SERVICE_FILE = "service.json"

#: JSON-RPC error codes (the subset this server emits).
RPC_INVALID_REQUEST = -32600
RPC_METHOD_NOT_FOUND = -32601
RPC_INVALID_PARAMS = -32602
RPC_SERVER_ERROR = -32000

#: Longest allowed long-poll, seconds; clients re-poll past this.
MAX_POLL_S = 60.0

#: Seconds a kept-alive connection may wait for its next request line
#: before the server closes it.  Busy clients send again well within
#: it; an idle one reconnects on its next call, so an idle connection
#: does not hold a handler thread for long.
IDLE_TIMEOUT_S = 1.0

#: Methods that park a handler thread for up to :data:`MAX_POLL_S`.
#: ``ThreadingHTTPServer`` spawns one thread per connection with no
#: upper bound, so these — and only these — are admission-controlled
#: through a bounded semaphore (the work-plane ``runner.*`` RPCs return
#: promptly and must never be starved by a dashboard crowd).
LONG_POLL_METHODS = frozenset({"events", "poll_datasets", "result"})

#: Default cap on concurrently parked long-poll handler threads.
DEFAULT_MAX_POLLS = 32

#: ``Retry-After`` hint sent with a 503 overload rejection, seconds.
RETRY_AFTER_S = 1

#: Reply header that ends the connection (``send_header`` also sets
#: the handler's ``close_connection``).
_CLOSE = {"Connection": "close"}

#: Why a master without workers cannot run an analysis job.
NO_WORKERS = (
    "analysis jobs run on the master's own workers; this master has "
    "none (repro serve --workers 0)"
)


class ExperimentService:
    """The always-on experiment daemon: store + fleet + HTTP API.

    Parameters mirror the CLI: ``root`` is the engine root (queue,
    cache and archive all live under it), ``workers`` sizes the
    daemon's own runner (:attr:`runner`, None at ``workers=0``),
    ``use_processes`` routes its compute through a process pool, and
    ``port=0`` binds an ephemeral port.
    """

    def __init__(
        self,
        root: str | pathlib.Path | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        use_processes: bool = True,
        on_event=None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        max_polls: int = DEFAULT_MAX_POLLS,
    ) -> None:
        self.root = pathlib.Path(root) if root is not None else default_root()
        self.host = host
        self._requested_port = port
        self.on_event = on_event
        # The daemon is observable by default: telemetry comes up with
        # the service unless REPRO_OBS=0 explicitly opts out, and the
        # engine construction below attaches the journal to this root.
        if obs.env_preference() is not False:
            obs.configure(enabled=True)
        self.engine = RunEngine(root=self.root)
        self.store = JobStore(self.root, recover=True)
        self.fleet = FleetCoordinator(
            self.store,
            self.engine,
            lease_ttl_s=lease_ttl_s,
            on_event=on_event,
        )
        self.workers = workers
        self.runner = (
            FleetRunner(
                "in-process",
                workers=workers,
                use_processes=use_processes,
                on_event=on_event,
                client=self.fleet,
            )
            if workers > 0
            else None
        )
        self._httpd: _Server | None = None
        self._http_thread: threading.Thread | None = None
        #: Serialises :meth:`start` and :meth:`stop` (the shutdown RPC
        #: and ``repro serve`` may both stop); :attr:`_stopped` is set
        #: while the service is not serving.
        self._lifecycle_lock = threading.Lock()
        self._stopped = threading.Event()
        self._stopped.set()
        self._started_unix: float | None = None
        self.max_polls = max(1, int(max_polls))
        self._poll_slots = threading.BoundedSemaphore(self.max_polls)
        self._poll_lock = threading.Lock()
        self._polls_inflight = 0
        self._methods = {
            "submit": self._rpc_submit,
            "status": self._rpc_status,
            "result": self._rpc_result,
            "cancel": self._rpc_cancel,
            "requeue": self._rpc_requeue,
            "queue": self._rpc_queue,
            "events": self._rpc_events,
            "subscribe": self._rpc_subscribe,
            "poll_datasets": self._rpc_poll_datasets,
            "health": self._rpc_health,
            "metrics": self._rpc_metrics,
            "shutdown": self._rpc_shutdown,
            "runner.register": self.fleet.register,
            "runner.heartbeat": self.fleet.heartbeat,
            "runner.claim": self.fleet.claim,
            "runner.lookup": self.fleet.lookup,
            "runner.ingest": self.fleet.ingest,
            "runner.progress": self.fleet.progress,
            "runner.complete": self.fleet.complete,
            "runner.fail": self.fleet.fail,
            "fleet.status": self.fleet.status,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Boot workers + HTTP server; returns the bound (host, port)."""
        if self._httpd is not None:
            raise ServiceError("service already started")
        if self.runner is None:
            # Other runners never lease analyses: fail the recovered ones.
            _, stranded = self.store.claim(
                "master",
                sys.maxsize,
                lambda job: "lease" if job.kind == KIND_ANALYZE else None,
            )
            error = _failure_from(ConfigurationError(NO_WORKERS))
            for job in stranded:
                self.store.finish(job, FAILED, error=error)
        self.fleet.start()
        if self.runner is not None:
            self.runner.start()
        service = self

        class _Handler(_RPCHandler):
            """Request handler bound to this service instance."""

            context = service

        with self._lifecycle_lock:
            self._httpd = _Server((self.host, self._requested_port), _Handler)
            self._started_unix = time.time()
            self._stopped.clear()
            self._http_thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-service-http",
                daemon=True,
            )
            self._http_thread.start()
        self._publish_address()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); ServiceError before :meth:`start`."""
        if self._httpd is None:
            raise ServiceError("service is not running")
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        """The service base URL (http://host:port)."""
        host, port = self.address
        return f"http://{host}:{port}"

    def stop(self) -> None:
        """Shut down HTTP + workers and retract the discovery file.

        The server stops accepting at once and ends its kept-alive
        connections, so once this returns no further request reaches
        the service (a request already being dispatched still gets its
        reply).
        """
        with self._lifecycle_lock:
            if self._httpd is not None:
                self._httpd.shutdown()
                self._httpd.server_close()
                self._httpd = None
            if self._http_thread is not None:
                self._http_thread.join(timeout=5.0)
                self._http_thread = None
            self.fleet.stop()
            if self.runner is not None:
                self.runner.stop()
            self.service_file_path().unlink(missing_ok=True)
            self._stopped.set()

    def serve_forever(self) -> None:
        """Block until interrupted or stopped (the body of ``repro serve``)."""
        try:
            self._stopped.wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def service_file_path(self) -> pathlib.Path:
        """Where this root's discovery file lives."""
        return self.store.queue_dir / SERVICE_FILE

    def _publish_address(self) -> None:
        """Write the discovery file clients use to find the daemon."""
        host, port = self.address
        atomic_write_text(
            self.service_file_path(),
            json.dumps(
                {
                    "host": host,
                    "port": port,
                    "pid": os.getpid(),
                    "started_unix": self._started_unix,
                },
                indent=2,
                sort_keys=True,
            ),
        )

    # ------------------------------------------------------------------
    # Long-poll admission control
    # ------------------------------------------------------------------
    def acquire_poll_slot(self) -> bool:
        """Try to admit one long-poll handler thread (never blocks).

        ``ThreadingHTTPServer`` has no thread cap, so without this a
        runner fleet plus a crowd of dashboards could park unbounded
        threads in :data:`MAX_POLL_S` waits.  Rejected requests get a
        503 with ``Retry-After`` — clients back off briefly and retry.
        """
        if not self._poll_slots.acquire(blocking=False):
            return False
        with self._poll_lock:
            self._polls_inflight += 1
            inflight = self._polls_inflight
        obs.gauge(obs_names.METRIC_API_INFLIGHT, inflight)
        return True

    def release_poll_slot(self) -> None:
        """Return one admitted long-poll slot."""
        with self._poll_lock:
            self._polls_inflight -= 1
            inflight = self._polls_inflight
        self._poll_slots.release()
        obs.gauge(obs_names.METRIC_API_INFLIGHT, inflight)

    # ------------------------------------------------------------------
    # RPC dispatch
    # ------------------------------------------------------------------
    def dispatch(self, method: str, params: dict[str, object]) -> object:
        """Invoke one RPC method; raises ServiceError for unknown names."""
        handler = self._methods.get(method)
        if handler is None:
            raise ServiceError(
                f"unknown method {method!r}; available: "
                f"{sorted(self._methods)}"
            )
        return handler(**params)

    def _rpc_submit(
        self,
        experiment: str = "",
        seed: int = 0,
        quick: bool = False,
        params: dict[str, object] | None = None,
        scan: dict[str, object] | None = None,
        analysis: str | None = None,
        priority: int = 0,
        pipeline: str = "main",
        dedupe: bool = True,
    ) -> dict[str, object]:
        """Enqueue a run/sweep/analysis after validating the submission."""
        if analysis:
            # Pipeline names are validated in the daemon so a typo fails
            # the RPC, mirroring experiment/override validation below.
            from repro.analysis.pipelines import get_pipeline

            get_pipeline(analysis)
            if self.runner is None:
                # Analyses read this master's archive, so only its own
                # workers take them; without them one would wait
                # forever.
                raise ConfigurationError(NO_WORKERS)
        else:
            if not experiment:
                raise ConfigurationError(
                    "submit needs an experiment id (or an analysis pipeline)"
                )
            self._validate(experiment, params, scan)
        job, deduped = self.store.submit(
            experiment,
            seed=seed,
            quick=quick,
            params=params,
            scan=scan,
            analysis=analysis,
            priority=priority,
            pipeline=pipeline,
            dedupe=dedupe,
            engine=self.engine,
        )
        return {"job": job.to_dict(), "deduped": deduped}

    @staticmethod
    def _validate(
        experiment: str,
        params: dict[str, object] | None,
        scan: dict[str, object] | None = None,
    ) -> None:
        """Reject unknown experiments / override / scan names at submit.

        Registry introspection runs here — in the daemon — so a typo'd
        submission (fixed override *or* sweep axis) fails the RPC
        immediately instead of surfacing as a failed job minutes later.
        """
        from repro.experiments.registry import check_parameters

        names = set(params or {})
        if scan:
            from repro.runtime.scan import scan_from_describe

            names |= set(scan_from_describe(scan).names)
        check_parameters(experiment, names)

    def _rpc_status(self, job_id: int | None = None) -> dict[str, object]:
        """One job's document, or every job's summary."""
        if job_id is not None:
            return {"job": self.store.get(job_id).to_dict()}
        return {"jobs": [job.to_dict() for job in self.store.jobs()]}

    def _rpc_result(
        self, job_id: int, timeout: float = 0.0
    ) -> dict[str, object]:
        """Long-poll one job until terminal (or timeout); returns it.

        Completed analyze jobs attach their pipeline's persisted report
        payload as ``report`` — byte-identical to the JSON artifact
        ``repro analyze`` writes, so service and CLI consumers see the
        same document.
        """
        job = self.store.wait_job(job_id, min(timeout, MAX_POLL_S))
        document: dict[str, object] = {"job": job.to_dict()}
        if job.kind == "analyze" and job.status == "done":
            try:
                from repro.analysis.report import load_report

                document["report"] = load_report(
                    self.root, str(job.analysis_pipeline)
                )
            except ReproError:
                pass  # report pruned between completion and fetch
        if job.run_ids:
            try:
                from repro.runtime import records

                _, result = self.engine.load_run(job.run_ids[-1])
                document["record"] = records.to_record(result)
            except ReproError:
                pass  # archive pruned between completion and fetch
        return document

    def _rpc_cancel(self, job_id: int) -> dict[str, object]:
        """Cancel a job (immediate when pending, cooperative running)."""
        return {"job": self.store.cancel(job_id).to_dict()}

    def _rpc_requeue(self, job_id: int) -> dict[str, object]:
        """Return a terminal job to the pending queue."""
        job = self.store.requeue(job_id)
        return {"job": job.to_dict()}

    def _rpc_queue(self) -> dict[str, object]:
        """The full queue snapshot (counts + job summaries)."""
        return self.store.snapshot()

    def _rpc_events(
        self, since: int = 0, timeout: float = 0.0
    ) -> dict[str, object]:
        """Long-poll the journal feed for events with seq > ``since``.

        The payload carries ``"gap": true`` when events between
        ``since`` and the feed's start were rotated out of the journal,
        so clients (``repro watch``) can warn instead of silently
        skipping history.  On an all-lost gap the returned ``seq``
        jumps to the store's head so pollers do not spin on the gap.
        """
        events, gap = self.store.wait_events(since, min(timeout, MAX_POLL_S))
        if events:
            latest = events[-1]["seq"]
        else:
            latest = self.store.seq if gap else since
        payload: dict[str, object] = {"events": events, "seq": latest}
        if gap:
            payload["gap"] = True
        return payload

    def _rpc_subscribe(
        self, topics: list[str] | None = None
    ) -> dict[str, object]:
        """Init snapshots + cursors of the named sweep topics.

        ``topics`` is a non-empty list of ``datasets.sweep.<key>``
        names; one the bus does not hold yet subscribes at seq 0 so a
        client can watch a sweep that has not started.  Any other
        name is a 400.  The returned per-topic ``seq`` values are the
        cursors to feed :meth:`_rpc_poll_datasets`.
        """
        if not isinstance(topics, list) or not topics:
            raise ConfigurationError(
                "subscribe needs a non-empty 'topics' list of "
                "datasets.sweep.<key> names"
            )
        bus = obs.state().bus
        return {"topics": bus.subscribe([str(t) for t in topics])}

    def _rpc_poll_datasets(
        self,
        cursors: dict[str, int] | None = None,
        timeout: float = 0.0,
    ) -> dict[str, object]:
        """Long-poll the dataset bus across one cursor per topic.

        Per-topic payloads follow the bus wire contract: ordered
        ``mods`` with consecutive sequence numbers, an ``init``
        snapshot on resynchronisation, and ``"gap": true`` when the
        replay buffer no longer covers the cursor (see
        :mod:`repro.obs.bus`).  A name outside the
        ``datasets.sweep.<key>`` family is a 400.  Many concurrent
        pollers each block on their own request thread.
        """
        if not isinstance(cursors, dict) or not cursors:
            raise ConfigurationError(
                "poll_datasets needs a non-empty 'cursors' object "
                "(topic → last seen seq; start from a 'subscribe' call)"
            )
        bus = obs.state().bus
        try:
            wanted = {str(k): int(v) for k, v in cursors.items()}
        except (TypeError, ValueError) as error:
            raise ConfigurationError(
                f"poll_datasets cursors must map topic → integer seq: {error}"
            ) from error
        return {"topics": bus.poll(wanted, min(timeout, MAX_POLL_S))}

    def _rpc_health(self) -> dict[str, object]:
        """Liveness snapshot: pid, uptime, workers, queue counts and seq.

        Costs the same however many jobs and cache entries there are:
        ``repro cache stats`` is the place that counts cache entries.
        """
        counts = self.store.counts()
        return {
            "ok": True,
            "pid": os.getpid(),
            "root": str(self.root),
            "uptime_s": (
                time.time() - self._started_unix if self._started_unix else 0.0
            ),
            "workers": self.workers,
            "counts": counts,
            "seq": self.store.seq,
            "fleet": self.fleet.status()["counts"],
        }

    def _rpc_metrics(self) -> dict[str, object]:
        """The daemon's telemetry snapshot (counters/gauges/histograms).

        Deterministic for a given workload (fixed histogram buckets,
        sorted series keys) plus the journal path and sequence number so
        clients can follow up with a journal read.
        """
        document = obs.snapshot()
        state = obs.state()
        document["journal_seq"] = (
            state.journal.seq if state.journal is not None else 0
        )
        return document

    def _rpc_shutdown(self) -> dict[str, object]:
        """Stop the daemon (deferred so the reply still goes out)."""
        threading.Thread(target=self.stop, daemon=True).start()
        return {"ok": True}


class _Server(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that knows its connections.

    The stock ``shutdown`` waits for ``serve_forever``'s next 0.5 s
    poll; here it wakes the loop at once through a socket pair, and
    also ends every open connection.
    """

    #: Long-poll handler threads must not block process exit.
    daemon_threads = True

    def __init__(self, address: tuple[str, int], handler: type) -> None:
        super().__init__(address, handler)
        self.closed = False
        self._connections: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._wake_read, self._wake_write = socket.socketpair()
        self._stopped = threading.Event()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Accept connections until :meth:`shutdown` (no polling)."""
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_read, selectors.EVENT_READ)
                while True:
                    selector.select()
                    if self.closed:
                        return
                    self._handle_request_noblock()
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop accepting, end every open connection, and wait for the loop.

        Shutting a connection's read side wakes a handler waiting for
        its next request; a handler mid-dispatch still writes its reply.
        The lock keeps a handler from closing a socket mid-shutdown.
        """
        with self._lock:
            self.closed = True
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the peer already went away
        self._wake_write.send(b"\0")
        self._stopped.wait()

    def process_request(self, request, client_address) -> None:
        """Track the connection, then hand it to its own thread."""
        with self._lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        """Forget a connection its handler thread is done with."""
        with self._lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listening socket and the wake pair."""
        super().server_close()
        self._wake_read.close()
        self._wake_write.close()


class _RPCHandler(BaseHTTPRequestHandler):
    """Minimal JSON-RPC 2.0 handler over ``POST /rpc`` + ``GET /healthz``.

    HTTP/1.1: one handler serves a connection's requests in turn.
    """

    #: Bound by :meth:`ExperimentService.start` to the owning service.
    context: ExperimentService
    server: _Server

    protocol_version = "HTTP/1.1"

    #: Headers and body go out in two writes; without ``TCP_NODELAY``
    #: the body waits for the client's delayed ACK of the headers.
    disable_nagle_algorithm = True

    #: Quiet the default stderr access log (the CLI has its own).
    def log_message(self, format: str, *args: object) -> None:
        """Suppress per-request stderr logging."""

    def handle_one_request(self) -> None:
        """Serve one request; close the connection after an idle wait.

        The idle limit covers only the wait for the request line;
        :meth:`parse_request` lifts it for the rest of the exchange.
        """
        self.connection.settimeout(IDLE_TIMEOUT_S)
        super().handle_one_request()

    def parse_request(self) -> bool:
        """Parse the request line and headers; refuse once the server closed."""
        self.connection.settimeout(None)
        if self.server.closed:
            self.close_connection = True
            return False
        return super().parse_request()

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Health probe + read-only Prometheus scrape endpoint."""
        path = self.path.rstrip("/")
        if path in ("", "/healthz"):
            self._reply(200, self.context.dispatch("health", {}))
        elif path == "/metrics":
            from repro.obs.render import render_prometheus

            self._reply_text(200, render_prometheus(obs.snapshot()))
        else:
            self._reply(
                404,
                _rpc_error(
                    None, RPC_INVALID_REQUEST, f"unknown path {self.path!r}"
                ),
            )

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Dispatch one JSON-RPC request."""
        # A reply sent before the body is read closes the connection:
        # the unread body would otherwise be parsed as the next request.
        if self.path.rstrip("/") != "/rpc":
            self._reply(
                404,
                _rpc_error(
                    None, RPC_INVALID_REQUEST, f"unknown path {self.path!r}"
                ),
                extra_headers=_CLOSE,
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self._reply(
                400,
                _rpc_error(None, RPC_INVALID_REQUEST, "bad Content-Length"),
                extra_headers=_CLOSE,
            )
            return
        try:
            request = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, TypeError):
            self._reply(
                400,
                _rpc_error(None, RPC_INVALID_REQUEST, "unparseable request"),
            )
            return
        request_id = request.get("id") if isinstance(request, dict) else None
        if not isinstance(request, dict) or "method" not in request:
            self._reply(
                400,
                _rpc_error(request_id, RPC_INVALID_REQUEST, "missing method"),
            )
            return
        params = request.get("params") or {}
        if not isinstance(params, dict):
            self._reply(
                400,
                _rpc_error(
                    request_id, RPC_INVALID_PARAMS, "params must be an object"
                ),
            )
            return
        method = str(request["method"])
        limited = method in LONG_POLL_METHODS
        if limited and not self.context.acquire_poll_slot():
            obs.count(obs_names.METRIC_API_OVERLOADED, method=method)
            self._reply(
                503,
                _rpc_error(
                    request_id,
                    RPC_SERVER_ERROR,
                    f"too many concurrent long-polls "
                    f"(cap {self.context.max_polls}); retry shortly",
                ),
                extra_headers={"Retry-After": str(RETRY_AFTER_S)},
            )
            return
        start = time.perf_counter()
        ok = True
        try:
            with obs.span(obs_names.SPAN_RPC_REQUEST, method=method):
                result = self.context.dispatch(method, params)
        except ServiceError as error:
            ok = False
            self._reply(
                404, _rpc_error(request_id, RPC_METHOD_NOT_FOUND, str(error))
            )
        except (AnalysisError, ConfigurationError, TypeError) as error:
            # TypeError: params that do not match the method signature.
            ok = False
            self._reply(
                400, _rpc_error(request_id, RPC_INVALID_PARAMS, str(error))
            )
        except Exception as error:  # noqa: BLE001 - robust daemon boundary
            ok = False
            self._reply(
                500,
                _rpc_error(
                    request_id,
                    RPC_SERVER_ERROR,
                    f"{type(error).__name__}: {error}",
                ),
            )
        else:
            self._reply(
                200, {"jsonrpc": "2.0", "id": request_id, "result": result}
            )
        finally:
            if limited:
                self.context.release_poll_slot()
            obs.observe(
                obs_names.METRIC_RPC_REQUEST_SECONDS,
                time.perf_counter() - start,
                method=method,
            )
            obs.count(obs_names.METRIC_RPC_REQUESTS, method=method, ok=ok)

    def _reply(
        self,
        code: int,
        payload: dict[str, object],
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        """Serialise one JSON response."""
        self._send(
            code,
            json.dumps(payload).encode("utf-8"),
            "application/json",
            extra_headers,
        )

    def _reply_text(self, code: int, text: str) -> None:
        """Serialise one plain-text response (the Prometheus scrape)."""
        self._send(code, text.encode("utf-8"), "text/plain; charset=utf-8")

    def _send(
        self,
        code: int,
        body: bytes,
        content_type: str,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        """Write one complete HTTP response, tolerating client hangups."""
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        try:
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client gave up on a long-poll; nothing to salvage.
            self.close_connection = True


def _rpc_error(
    request_id: object, code: int, message: str
) -> dict[str, object]:
    """A JSON-RPC 2.0 error envelope."""
    return {
        "jsonrpc": "2.0",
        "id": request_id,
        "error": {"code": code, "message": message},
    }


def read_service_file(
    root: str | pathlib.Path | None = None,
) -> dict[str, object]:
    """The discovery document of a running daemon under ``root``.

    Raises ServiceError when no daemon has published an address —
    the CLI turns that into "is `repro serve` running?".
    """
    root = pathlib.Path(root) if root is not None else default_root()
    path = root / "queue" / SERVICE_FILE
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise ServiceError(
            f"no service address at {path} — is 'repro serve' running "
            f"for this root?"
        ) from error
    except ValueError as error:
        raise ServiceError(f"unreadable service file {path}: {error}") from error
    return document
