"""The keep-alive RPC transport: one connection per client thread.

:class:`ServiceClient` keeps one HTTP/1.1 connection per calling
thread, and the daemon serves each connection on one handler thread.
These tests pin what that must not break: connection reuse, the
reconnect after the server closes an idle connection (without
submitting twice), early replies that must close the connection so an
unread body is never parsed as a request, and a ``stop()`` that ends
open connections at once.
"""

import http.client
import socket
import sys
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.service import api
from repro.service.api import ExperimentService
from repro.service.client import ServiceClient


@pytest.fixture
def service(tmp_path):
    """A running service that counts the connections it accepts."""
    svc = ExperimentService(
        root=tmp_path / "engine-root", workers=1, use_processes=False
    )
    svc.start()
    svc.accepted = 0
    process_request = svc._httpd.process_request

    def counting(request, client_address):
        svc.accepted += 1
        process_request(request, client_address)

    svc._httpd.process_request = counting
    try:
        yield svc
    finally:
        svc.stop()


def _wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestConnectionReuse:
    def test_one_thread_opens_one_connection(self, service):
        client = ServiceClient(service.url)
        for _ in range(20):
            assert client.health()["ok"] is True
        assert service.accepted == 1
        (connection,) = service._httpd._connections
        # Headers and body go out in two writes: Nagle must be off.
        assert connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_two_threads_open_two_connections(self, service):
        client = ServiceClient(service.url)
        barrier = threading.Barrier(2)
        errors = []

        def calls():
            try:
                barrier.wait(timeout=10.0)
                for _ in range(10):
                    client.health()
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=calls) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert errors == []
        assert service.accepted == 2

    def test_threads_never_read_each_others_replies(self, service):
        client = ServiceClient(service.url)
        threads_n, jobs_n = 6, 8
        replies: dict[int, list[float]] = {}
        errors = []

        def submits(index):
            try:
                replies[index] = [
                    client.submit(
                        "E6", quick=True, params={"pump_mw": index + n / 10}
                    )["params"]["pump_mw"]
                    for n in range(jobs_n)
                ]
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=submits, args=(index,))
                for index in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        for index, sent in replies.items():
            assert sent == [index + n / 10 for n in range(jobs_n)]
        assert len(service.store.jobs()) == threads_n * jobs_n
        assert service.accepted == threads_n


class TestIdleClose:
    def test_submit_after_idle_close_lands_once(self, service, monkeypatch):
        monkeypatch.setattr(api, "IDLE_TIMEOUT_S", 0.1)
        client = ServiceClient(service.url)
        client.health()
        # The server ends the idle connection; the client still holds it.
        _wait_until(lambda: not service._httpd._connections)
        before = len(service.store.jobs())
        job = client.submit("E6", quick=True)
        assert len(service.store.jobs()) == before + 1
        assert service.store.get(job["job_id"]).experiment_id == "E6"
        assert service.accepted == 2


class TestEarlyReplyCloses:
    def test_unknown_path_with_body_then_valid_rpc(self, service):
        host, port = service.address
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            # Were this body left unread, the server would answer it as
            # the next request instead of the RPC below.
            body = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            connection.request("POST", "/nope", body)
            response = connection.getresponse()
            response.read()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            rpc = b'{"jsonrpc": "2.0", "id": 7, "method": "status"}'
            connection.request(
                "POST", "/rpc", rpc, {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            assert response.status == 200
            reply = response.read()
        finally:
            connection.close()
        assert b'"id": 7' in reply and b'"jobs": []' in reply

    def test_bad_content_length_closes(self, service):
        with socket.create_connection(service.address, timeout=10.0) as raw:
            raw.sendall(
                b"POST /rpc HTTP/1.1\r\nHost: x\r\nContent-Length: many\r\n"
                b"\r\nGET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            received = b""
            while chunk := raw.recv(65536):
                received += chunk
        assert received.startswith(b"HTTP/1.1 400")
        assert received.count(b"HTTP/1.1") == 1  # nothing more was served


class TestStop:
    def test_stop_is_prompt_and_ends_kept_alive_connections(self, tmp_path):
        svc = ExperimentService(
            root=tmp_path / "engine-root", workers=1, use_processes=False
        )
        svc.start()
        dispatched = []
        dispatch = svc.dispatch
        svc.dispatch = lambda method, params: (
            dispatched.append(method) or dispatch(method, params)
        )
        client = ServiceClient(svc.url)
        assert client.health()["ok"] is True
        time.sleep(0.3)  # idle, with the connection open
        start = time.perf_counter()
        svc.stop()
        assert time.perf_counter() - start < 0.25
        with pytest.raises(ServiceError):
            client.health()
        assert dispatched == ["health"]
