"""Long-poll admission control: bounded parking, 503 shedding, retry.

The daemon's ``ThreadingHTTPServer`` spawns a thread per connection,
and a client thread keeps one connection open, so parked long-polls
(``events``/``poll_datasets``/``result``) used to be an unbounded
thread amplifier.  These tests pin the fix: a semaphore
of ``max_polls`` slots guards exactly the long-poll methods, overflow
is shed with ``503 + Retry-After`` (never queued), the control plane
(health, status, ``runner.*``) stays uncapped, and the client retries
shed requests transparently.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service.api import ExperimentService
from repro.service.client import ServiceClient


@pytest.fixture
def service(tmp_path):
    """A one-slot service: the second parked poll must be shed."""
    service = ExperimentService(
        root=tmp_path / "engine-root",
        workers=1,
        use_processes=False,
        max_polls=1,
    )
    service.start()
    try:
        yield service
    finally:
        service.stop()


def _url(service):
    return service.url


def _raw_rpc(url, method, params, timeout=10.0):
    """One non-retrying RPC round trip (the client would mask the 503)."""
    payload = json.dumps(
        {"jsonrpc": "2.0", "id": 1, "method": method, "params": params}
    ).encode("utf-8")
    request = urllib.request.Request(
        f"{url}/rpc",
        data=payload,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _park_events_poll(service, seconds, release=None):
    """Occupy the single poll slot with a parked events long-poll.

    With a ``release`` event, the parked poll returns as soon as the test
    sets it instead of waiting out its ``seconds``.
    """
    if release is not None:
        wait_events = service.store.wait_events

        def releasable_wait(since, timeout=0.0):
            release.wait(timeout)
            return wait_events(since, 0.0)

        service.store.wait_events = releasable_wait
    client = ServiceClient(_url(service))
    thread = threading.Thread(
        target=lambda: client.events(since=10_000, timeout=seconds),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if service._polls_inflight >= 1:
            return thread
        time.sleep(0.02)
    raise AssertionError("the parked poll never took the slot")


class TestAdmissionControl:
    def test_overflow_poll_is_shed_with_retry_after(self, service):
        release = threading.Event()
        thread = _park_events_poll(service, seconds=5.0, release=release)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _raw_rpc(_url(service), "events", {"since": 0, "timeout": 5.0})
        assert excinfo.value.code == 503
        assert excinfo.value.headers.get("Retry-After")
        excinfo.value.read()
        release.set()
        thread.join(timeout=30.0)
        assert not thread.is_alive()

    def test_control_plane_is_never_capped(self, service):
        release = threading.Event()
        thread = _park_events_poll(service, seconds=5.0, release=release)
        client = ServiceClient(_url(service))
        # Health, status and the fleet work plane bypass the cap.
        assert client.health()["ok"] is True
        assert client.status() == []
        reply = _raw_rpc(
            _url(service),
            "runner.register",
            {"host": "h", "pid": 1, "workers": 1},
        )
        assert reply["result"]["runner_id"]
        release.set()
        thread.join(timeout=30.0)
        assert not thread.is_alive()

    def test_client_retries_after_shed_poll(self, service):
        # Park the slot briefly: the client's 503 retry (honouring
        # Retry-After ~1s) lands after the slot frees up.
        thread = _park_events_poll(service, seconds=1.0)
        client = ServiceClient(_url(service))
        events, seq, gap = client.events(since=0, timeout=0.0)
        assert isinstance(events, list) and not gap
        thread.join(timeout=30.0)

    def test_inflight_gauge_and_overload_counter(self, service):
        thread = _park_events_poll(service, seconds=2.0)
        client = ServiceClient(_url(service))
        snapshot = client.metrics()
        assert snapshot["gauges"]["api.inflight"] == 1.0
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _raw_rpc(_url(service), "events", {"since": 0, "timeout": 5.0})
        excinfo.value.read()
        thread.join(timeout=30.0)
        snapshot = client.metrics()
        assert snapshot["counters"]["api.overloaded{method=events}"] >= 1
        assert snapshot["gauges"]["api.inflight"] == 0.0
