"""Tests for the pooled keep-alive HTTP client (`repro.serve.httpclient`).

The fixtures are self-contained stdlib servers (no QUEST stack), so this
suite also carries the client's share of the `make coverage` gate over
``src/repro/serve/``.
"""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.serve.httpclient import HTTPClientError, PooledHTTPClient


class _EchoHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def _send(self, status, payload, content_type="application/json"):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):
        if self.path == "/slow":
            time.sleep(0.5)
        self._send(200, json.dumps({"path": self.path}).encode("utf-8"))

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        self._send(200, json.dumps({
            "path": self.path,
            "body": raw.decode("utf-8"),
            "content_type": self.headers.get("Content-Type", ""),
        }).encode("utf-8"))

    def log_message(self, format, *args):
        pass


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass  # the timeout test abandons a response mid-write on purpose


@pytest.fixture()
def echo_server():
    server = _QuietServer(("127.0.0.1", 0), _EchoHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


class _OneShotServer:
    """Serves exactly one keep-alive-looking response per connection,
    then closes the socket without warning — the dead-idle-socket race."""

    def __init__(self):
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self._running = True
        self.connections_served = 0
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    @property
    def url(self):
        host, port = self._sock.getsockname()
        return f"http://{host}:{port}"

    def _loop(self):
        while self._running:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                conn.settimeout(5.0)
                try:
                    buffer = b""
                    while b"\r\n\r\n" not in buffer:
                        chunk = conn.recv(4096)
                        if not chunk:
                            break
                        buffer += chunk
                    else:
                        # HTTP/1.1 with no Connection: close — the client
                        # is entitled to pool this connection.
                        conn.sendall(b"HTTP/1.1 200 OK\r\n"
                                     b"Content-Length: 2\r\n\r\nok")
                        self.connections_served += 1
                except OSError:
                    pass
            # the with-block closed the socket right after one response

    def stop(self):
        self._running = False
        self._sock.close()


class _CloseHeaderServer:
    """Answers every request with ``Connection: close`` but deliberately
    holds the socket open — the shape of a server that marked the
    connection for close (request cap reached, drain begun) and is
    waiting for the client to hang up.  Pooling such a connection burns
    the one dead-socket retry on the next request."""

    def __init__(self):
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self._running = True
        self._conns = []
        self._lock = threading.Lock()
        self.connections_served = 0
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    @property
    def url(self):
        host, port = self._sock.getsockname()
        return f"http://{host}:{port}"

    def _loop(self):
        while self._running:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with self._lock:
                self._conns.append(conn)
                self.connections_served += 1
            try:
                conn.settimeout(5.0)
                buffer = b""
                while b"\r\n\r\n" not in buffer:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    buffer += chunk
                else:
                    conn.sendall(b"HTTP/1.1 200 OK\r\n"
                                 b"Content-Length: 2\r\n"
                                 b"Connection: close\r\n\r\nok")
                # ... and the socket stays open: closing is left to the
                # client, which must not pool it either way.
            except OSError:
                pass

    def stop(self):
        self._running = False
        self._sock.close()
        with self._lock:
            for conn in self._conns:
                conn.close()


class TestConnectionCloseDiscard:
    def test_close_marked_response_is_never_pooled(self):
        """Regression: a response carrying ``Connection: close`` used to
        be returned to the pool whenever the socket was still open; the
        next request then rode a doomed connection and burned its one
        transparent retry."""
        server = _CloseHeaderServer()
        try:
            with PooledHTTPClient() as client:
                first = client.get(server.url + "/one")
                assert first.status == 200
                assert first.header("Connection") == "close"
                # discarded, not pooled
                assert client.pooled_connections() == 0
                second = client.get(server.url + "/two")
                assert second.status == 200
                assert second.reused is False, \
                    "a close-marked connection was reused"
                assert second.retried is False
                assert client.stats_snapshot()["retries"] == 0
                assert server.connections_served == 2
        finally:
            server.stop()


class TestConnectionReuse:
    def test_sequential_requests_reuse_one_connection(self, echo_server):
        with PooledHTTPClient() as client:
            for number in range(5):
                response = client.get(f"{echo_server}/page/{number}")
                assert response.status == 200
                assert response.json()["path"] == f"/page/{number}"
            stats = client.stats_snapshot()
        assert stats["created"] == 1
        assert stats["reused"] == 4
        assert stats["retries"] == 0

    def test_response_reports_reuse(self, echo_server):
        with PooledHTTPClient() as client:
            first = client.get(f"{echo_server}/")
            second = client.get(f"{echo_server}/")
        assert not first.reused
        assert second.reused

    def test_shared_across_threads(self, echo_server):
        client = PooledHTTPClient(max_per_host=4)
        errors = []

        def worker():
            try:
                for _ in range(10):
                    assert client.get(f"{echo_server}/").status == 200
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert client.pooled_connections() <= 4
        stats = client.stats_snapshot()
        assert stats["requests"] == 40
        assert stats["created"] + stats["reused"] >= 40
        client.close()

    def test_pool_bound_discards_extra_connections(self, echo_server):
        client = PooledHTTPClient(max_per_host=0)
        for _ in range(3):
            assert client.get(f"{echo_server}/").status == 200
        stats = client.stats_snapshot()
        assert stats["created"] == 3
        assert stats["discarded"] == 3
        assert client.pooled_connections() == 0
        client.close()


class TestKeepAliveDisabled:
    def test_connection_per_request_mode(self, echo_server):
        client = PooledHTTPClient(keep_alive=False)
        for _ in range(3):
            response = client.get(f"{echo_server}/")
            assert response.status == 200
            assert not response.reused
        stats = client.stats_snapshot()
        assert stats["created"] == 3
        assert stats["reused"] == 0
        assert client.pooled_connections() == 0
        client.close()


class TestPoolDictCleanup:
    """Regression: emptied per-host deques must leave ``_pools`` — a
    client that talks to many hosts would otherwise grow the dict by one
    dead entry per host it ever contacted."""

    def test_acquire_drops_emptied_host_entry(self, echo_server):
        client = PooledHTTPClient()
        client.get(f"{echo_server}/")
        assert len(client._pools) == 1
        client.get(f"{echo_server}/")  # reuses (and re-pools) the socket
        assert len(client._pools) == 1
        # exhaust the pool without releasing back: acquire directly
        host, port, _ = client._split(f"{echo_server}/")
        entry = client._acquire(host, port)
        assert entry is not None
        assert client._pools == {}  # emptied deque was dropped
        entry.conn.close()
        client.close()

    def test_acquire_drops_entry_emptied_by_reaping(self, echo_server):
        client = PooledHTTPClient(idle_timeout=0.05)
        client.get(f"{echo_server}/")
        time.sleep(0.15)
        host, port, _ = client._split(f"{echo_server}/")
        # the only pooled socket is stale: acquire reaps it, finds the
        # deque empty, and must drop the host entry too
        assert client._acquire(host, port) is None
        assert client._pools == {}
        client.close()

    def test_reap_idle_drops_emptied_host_entries(self, echo_server):
        client = PooledHTTPClient(idle_timeout=0.05)
        client.get(f"{echo_server}/")
        assert len(client._pools) == 1
        time.sleep(0.15)
        assert client.reap_idle() == 1
        assert client._pools == {}
        client.close()

    def test_closed_check_holds_the_lock(self):
        # _split must observe a concurrent close() atomically; this
        # pins the code path (reading _closed under _lock) by racing
        # close() against requests and requiring a clean typed error.
        client = PooledHTTPClient()
        errors = []

        def caller():
            for _ in range(50):
                try:
                    client._split("http://127.0.0.1:1/")
                except HTTPClientError:
                    return  # closed — the only acceptable failure
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        thread = threading.Thread(target=caller)
        thread.start()
        client.close()
        thread.join()
        assert not errors
        with pytest.raises(HTTPClientError):
            client._split("http://127.0.0.1:1/")


class TestIdleReaping:
    def test_stale_idle_socket_not_reused(self, echo_server):
        client = PooledHTTPClient(idle_timeout=0.05)
        client.get(f"{echo_server}/")
        time.sleep(0.15)
        client.get(f"{echo_server}/")
        stats = client.stats_snapshot()
        assert stats["created"] == 2
        assert stats["reaped"] == 1
        client.close()

    def test_reap_idle_method(self, echo_server):
        client = PooledHTTPClient(idle_timeout=0.05)
        client.get(f"{echo_server}/")
        assert client.pooled_connections() == 1
        time.sleep(0.15)
        assert client.reap_idle() == 1
        assert client.pooled_connections() == 0
        assert client.reap_idle() == 0
        client.close()


class TestDeadSocketRetry:
    def test_retries_once_on_dead_pooled_socket(self):
        server = _OneShotServer()
        try:
            client = PooledHTTPClient()
            first = client.get(f"{server.url}/")
            assert first.status == 200 and not first.retried
            assert client.pooled_connections() == 1
            time.sleep(0.1)  # let the server-side FIN land
            second = client.get(f"{server.url}/")
            assert second.status == 200
            assert second.retried
            stats = client.stats_snapshot()
            assert stats["retries"] == 1
            assert stats["created"] == 2
            client.close()
        finally:
            server.stop()

    def test_no_retry_when_disabled(self):
        server = _OneShotServer()
        try:
            client = PooledHTTPClient(retries=0)
            assert client.get(f"{server.url}/").status == 200
            time.sleep(0.1)
            with pytest.raises(HTTPClientError):
                client.get(f"{server.url}/")
            assert client.stats_snapshot()["retries"] == 0
            client.close()
        finally:
            server.stop()


class TestPostAndErrors:
    def test_post_form_round_trip(self, echo_server):
        with PooledHTTPClient() as client:
            response = client.post_form(f"{echo_server}/submit",
                                        {"ref_no": "R1", "code": "E1"})
        payload = response.json()
        assert payload["path"] == "/submit"
        assert "ref_no=R1" in payload["body"]
        assert payload["content_type"] == "application/x-www-form-urlencoded"

    def test_per_request_timeout_is_not_retried(self, echo_server):
        with PooledHTTPClient(timeout=5.0) as client:
            with pytest.raises(OSError):
                client.get(f"{echo_server}/slow", timeout=0.1)
            assert client.stats_snapshot()["retries"] == 0

    def test_rejects_non_http_scheme(self):
        client = PooledHTTPClient()
        with pytest.raises(HTTPClientError):
            client.get("https://127.0.0.1:1/secure")
        client.close()

    def test_closed_client_refuses_requests(self, echo_server):
        client = PooledHTTPClient()
        client.get(f"{echo_server}/")
        client.close()
        with pytest.raises(HTTPClientError):
            client.get(f"{echo_server}/")

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PooledHTTPClient(max_per_host=-1)
        with pytest.raises(ValueError):
            PooledHTTPClient(retries=-1)

    def test_header_lookup_and_repr(self, echo_server):
        with PooledHTTPClient() as client:
            response = client.get(f"{echo_server}/")
            assert response.header("content-type") == "application/json"
            assert response.header("x-missing", "fallback") == "fallback"
            assert response.text.startswith("{")
            assert "PooledHTTPClient" in repr(client)
