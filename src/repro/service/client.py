"""Thin JSON-RPC client for the experiment service.

:class:`ServiceClient` speaks to the daemon's ``POST /rpc`` endpoint
over ``http.client`` (stdlib, no new dependencies).  Each calling
thread keeps one HTTP/1.1 connection open across its calls, so a busy
client costs the daemon one connection and one handler thread.
Construct it with an explicit URL, or let
:meth:`ServiceClient.discover` read the address a running
``repro serve`` published under the engine root::

    from repro.service.client import ServiceClient

    client = ServiceClient.discover()          # $REPRO_RUNTIME_ROOT
    job = client.submit("E5", quick=True, params={"pump_mw": 2.0})
    done = client.wait(job["job_id"], timeout=120.0)
    print(done["status"], done["metrics"])

Every method returns plain JSON-native dicts (the job documents of
:mod:`repro.service.jobs`); server-side failures raise
:class:`repro.errors.ServiceError` and invalid submissions raise
:class:`repro.errors.ConfigurationError`, mirroring local engine use.
"""

from __future__ import annotations

import http.client
import json
import pathlib
import threading
import time

from repro.errors import ConfigurationError, ServiceError
from repro.service.api import RPC_INVALID_PARAMS, read_service_file

#: Extra HTTP slack on top of a long-poll timeout, seconds.
_POLL_SLACK_S = 10.0

#: How many times a 503 (long-poll admission control) is retried
#: before surfacing; each retry honours the server's ``Retry-After``.
_OVERLOAD_RETRIES = 3

#: Retry-After ceiling, seconds — a misbehaving server must not park
#: the client arbitrarily long.
_MAX_RETRY_AFTER_S = 5.0


class ServiceClient:
    """A localhost JSON-RPC client bound to one service URL."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self._request_id = 0
        netloc, slash, prefix = self.url.partition("://")[2].partition("/")
        self._netloc = netloc
        self._prefix = slash + prefix
        #: ``connection``: the calling thread's kept-alive connection.
        self._local = threading.local()

    @classmethod
    def discover(
        cls,
        root: str | pathlib.Path | None = None,
        timeout: float = 30.0,
    ) -> "ServiceClient":
        """A client for the daemon serving ``root`` (see module docs)."""
        document = read_service_file(root)
        return cls(
            f"http://{document['host']}:{document['port']}", timeout=timeout
        )

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def call(
        self,
        method: str,
        params: dict[str, object] | None = None,
        timeout: float | None = None,
    ) -> dict[str, object]:
        """One JSON-RPC round trip; returns the ``result`` member."""
        self._request_id += 1
        payload = json.dumps(
            {
                "jsonrpc": "2.0",
                "id": self._request_id,
                "method": method,
                "params": params or {},
            }
        ).encode("utf-8")
        for attempt in range(_OVERLOAD_RETRIES + 1):
            status, retry_after, body = self._exchange(
                "POST", "/rpc", payload, timeout or self.timeout
            )
            # 503 = the server's long-poll admission control shed this
            # request; honour Retry-After briefly and retry.
            if status != 503 or attempt == _OVERLOAD_RETRIES:
                break
            time.sleep(_retry_delay(retry_after))
        try:
            reply = json.loads(body.decode("utf-8"))
        except ValueError:
            reply = {"error": {"code": None, "message": f"HTTP {status}"}}
        if not isinstance(reply, dict):
            raise ServiceError(
                f"rpc {method!r}: malformed reply {reply!r}"
            )
        if "error" in reply:
            error = reply["error"]
            if not isinstance(error, dict):  # defensive: foreign server
                error = {"code": None, "message": str(error)}
            code = error.get("code")
            message = str(error.get("message", "unknown error"))
            if code == RPC_INVALID_PARAMS:
                raise ConfigurationError(message)
            raise ServiceError(f"rpc {method!r} failed: {message}")
        return reply.get("result", {})

    def _exchange(
        self, verb: str, path: str, body: bytes | None, timeout: float
    ) -> tuple[int, str | None, bytes]:
        """One HTTP round trip on the calling thread's connection.

        Returns ``(status, Retry-After header, body)``.  The server
        closes a connection only between requests, so a reused
        connection that fails before any reply arrived never delivered
        its request: that one case is retried on a fresh connection.
        Any other failure drops the connection and raises ServiceError.
        """
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(self._netloc)
            self._local.connection = connection
        connection.timeout = timeout  # applies to the next connect
        reused = connection.sock is not None
        if reused:
            connection.sock.settimeout(timeout)
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            try:
                connection.request(verb, self._prefix + path, body, headers)
                response = connection.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                connection.close()
                connection.request(verb, self._prefix + path, body, headers)
                response = connection.getresponse()
            return (
                response.status,
                response.getheader("Retry-After"),
                response.read(),
            )
        except (OSError, http.client.HTTPException) as error:
            connection.close()
            reach = (
                "unreachable"
                if isinstance(error, ConnectionRefusedError)
                else "connection failed"
            )
            raise ServiceError(
                f"experiment service {reach} at {self.url}: {error}"
            ) from error
        except BaseException:
            connection.close()  # interrupted mid-exchange: state unknown
            raise

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def submit(
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
        """Enqueue a run (or sweep with ``scan``, or an analyze job with
        ``analysis``); returns the job doc.

        The returned document gains a ``deduped`` key marking whether
        the submission coalesced onto the cache or a live twin job.
        """
        result = self.call(
            "submit",
            {
                "experiment": experiment,
                "seed": seed,
                "quick": quick,
                "params": params or {},
                "scan": scan,
                "analysis": analysis,
                "priority": priority,
                "pipeline": pipeline,
                "dedupe": dedupe,
            },
        )
        job = dict(result["job"])
        job["deduped"] = result.get("deduped", False)
        return job

    def status(self, job_id: int | None = None):
        """One job document, or the list of all job documents."""
        if job_id is None:
            return self.call("status")["jobs"]
        return self.call("status", {"job_id": int(job_id)})["job"]

    def result(
        self, job_id: int, timeout: float = 0.0
    ) -> dict[str, object]:
        """Long-poll one job; returns ``{"job": ..., "record": ...}``."""
        return self.call(
            "result",
            {"job_id": int(job_id), "timeout": timeout},
            timeout=timeout + _POLL_SLACK_S,
        )

    def wait(self, job_id: int, timeout: float = 60.0) -> dict[str, object]:
        """Block until a job is terminal; raises ServiceError on timeout.

        Re-polls in server-bounded slices so any ``timeout`` works even
        past the server's per-request long-poll cap.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"job {job_id} not finished within {timeout:.1f}s"
                )
            document = self.result(job_id, timeout=min(remaining, 30.0))
            job = dict(document["job"])
            if job.get("status") in ("done", "failed", "cancelled"):
                if "record" in document:
                    job["record"] = document["record"]
                return job

    def cancel(self, job_id: int) -> dict[str, object]:
        """Cancel a job; returns its updated document."""
        return self.call("cancel", {"job_id": int(job_id)})["job"]

    def requeue(self, job_id: int) -> dict[str, object]:
        """Return a terminal job to pending; returns its document."""
        return self.call("requeue", {"job_id": int(job_id)})["job"]

    def queue(self) -> dict[str, object]:
        """The queue snapshot (counts + every job summary)."""
        return self.call("queue")

    def events(
        self, since: int = 0, timeout: float = 0.0
    ) -> tuple[list[dict[str, object]], int, bool]:
        """Long-poll the event feed.

        Returns ``(events, latest_seq, gap)``; ``gap`` is True when
        events between ``since`` and the feed's start were rotated out
        of the server's journal.
        """
        result = self.call(
            "events",
            {"since": int(since), "timeout": timeout},
            timeout=timeout + _POLL_SLACK_S,
        )
        return (
            list(result.get("events", [])),
            int(result.get("seq", since)),
            bool(result.get("gap", False)),
        )

    def subscribe(self, topics: list[str]) -> dict[str, dict[str, object]]:
        """Subscribe to sweep topics; returns topic → init payload.

        ``topics`` names ``datasets.sweep.<key>`` topics (build them
        with :func:`repro.obs.names.sweep_topic`); any other name is a
        :class:`ServiceError`.  Each payload is ``{"init": snapshot,
        "seq": n}``; feed the seqs back to :meth:`poll_datasets` as the
        starting cursors.
        """
        result = self.call("subscribe", {"topics": list(topics)})
        return dict(result.get("topics", {}))

    def poll_datasets(
        self,
        cursors: dict[str, int],
        timeout: float = 0.0,
    ) -> dict[str, dict[str, object]]:
        """Long-poll sweep topics; returns topic → diff payload.

        Per-topic payloads carry ordered ``mods`` (apply with
        :func:`repro.obs.bus.apply_mod`), plus ``init`` and ``gap`` on
        resynchronisation — see :mod:`repro.obs.bus` for the contract.
        A name outside the ``datasets.sweep.<key>`` family is a
        :class:`ServiceError`.
        """
        result = self.call(
            "poll_datasets",
            {
                "cursors": {str(k): int(v) for k, v in cursors.items()},
                "timeout": timeout,
            },
            timeout=timeout + _POLL_SLACK_S,
        )
        return dict(result.get("topics", {}))

    def metrics_text(self) -> str:
        """The daemon's ``GET /metrics`` Prometheus exposition text."""
        status, _, body = self._exchange(
            "GET", "/metrics", None, self.timeout
        )
        if status != 200:
            raise ServiceError(
                f"GET {self.url}/metrics failed: HTTP {status}"
            )
        return body.decode("utf-8")

    def health(self) -> dict[str, object]:
        """The daemon's liveness snapshot."""
        return self.call("health")

    def fleet_status(self) -> dict[str, object]:
        """The daemon's fleet snapshot (runners, leases, counts)."""
        return self.call("fleet.status")

    def metrics(self) -> dict[str, object]:
        """The daemon's telemetry snapshot (counters/gauges/histograms)."""
        return self.call("metrics")

    def shutdown(self) -> None:
        """Ask the daemon to stop (fire-and-forget)."""
        try:
            self.call("shutdown")
        except ServiceError:
            pass  # the daemon may drop the connection while stopping


def _retry_delay(retry_after: str | None) -> float:
    """The (clamped) Retry-After delay of a 503, defaulting to 0.5s."""
    try:
        delay = float(retry_after or 0.5)
    except ValueError:
        delay = 0.5
    return min(max(delay, 0.1), _MAX_RETRY_AFTER_S)
