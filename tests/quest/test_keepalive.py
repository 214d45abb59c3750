"""HTTP/1.1 keep-alive transport tests for the QUEST web app.

Raw-socket tests observe the wire contract directly (N requests on one
socket, ``Connection: close`` on drain/cap, malformed-body handling that
cannot desynchronize the connection); pooled-client tests pin the
client/server pair end to end; and a concurrency regression drives
read-only screens against parallel assigns under the gateway's read
guard.

Every wire test is parameterized over both transports — the threaded
``QuestServer`` and the event-loop ``AsyncQuestServer`` — which drive
one sans-IO HTTP/1.1 core (``repro.serve.http11``); the suite proves
both transports hand every decision to it.
"""

import http.client
import json
import socket
import threading
import time
import urllib.parse

import pytest

from repro.quest import QuestApp, QuestServer, Role, User, UserStore, views
from repro.serve import GatewayConfig, PooledHTTPClient
from repro.serve.aio import AsyncQuestServer
from repro.serve.errors import (DeadlineExceededError, GatewayStoppedError,
                                QueueFullError)

TRANSPORTS = {"thread": QuestServer, "async": AsyncQuestServer}


def make_app(service_pair, gateway_config=None):
    quest, _ = service_pair
    users = UserStore()
    users.add(User("expert", Role.POWER_EXPERT, "Test Expert"))
    return QuestApp(quest, users, users.get("expert"),
                    gateway_config=gateway_config)


def make_server(transport, app, **kwargs):
    return TRANSPORTS[transport](app, **kwargs)


@pytest.fixture(params=sorted(TRANSPORTS))
def transport(request):
    return request.param


@pytest.fixture()
def running_server(service, transport):
    app = make_app(service)
    server = make_server(transport, app)
    server.start()
    yield server, app, service[1]
    server.stop(grace=5.0)


# --------------------------------------------------------------------- #
# raw-socket helpers


def _connect(server):
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=10)
    return sock, host, port


def _send_get(sock, host, path):
    sock.sendall(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n"
                 .encode("ascii"))
    return _read_response(sock)


def _send_post(sock, host, path, body=b"", content_length=None,
               send_length=True):
    lines = [f"POST {path} HTTP/1.1", f"Host: {host}",
             "Content-Type: application/x-www-form-urlencoded"]
    if send_length:
        length = len(body) if content_length is None else content_length
        lines.append(f"Content-Length: {length}")
    request = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body
    sock.sendall(request)
    return _read_response(sock)


def _read_response(sock):
    """Parse one HTTP response; returns (status, headers, body-bytes)."""
    buffer = b""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError("connection closed before headers arrived")
        buffer += chunk
    head, _, body = buffer.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    length = int(headers["content-length"])  # every path must declare it
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        body += chunk
    assert len(body) == length, "body shorter than its Content-Length"
    return status, headers, body[:length]


def _connection_is_closed(sock):
    """True when the server has closed its side (EOF on a short read)."""
    sock.settimeout(5.0)
    try:
        return sock.recv(1) == b""
    except OSError:
        return True


# --------------------------------------------------------------------- #
# keep-alive wire behavior


class TestKeepAliveWire:
    def test_sequential_requests_share_one_socket(self, running_server):
        server, _, held_out = running_server
        sock, host, _ = _connect(server)
        try:
            for number in range(4):
                status, headers, body = _send_get(sock, host, "/stats")
                assert status == 200
                assert headers["connection"] == "keep-alive"
                payload = json.loads(body)
                assert "submitted" in payload
            status, headers, body = _send_get(
                sock, host, f"/bundle/{held_out[0].ref_no}")
            assert status == 200
            assert held_out[0].ref_no.encode() in body
        finally:
            sock.close()

    def test_content_length_exact_on_error_pages(self, running_server):
        server, _, _ = running_server
        sock, host, _ = _connect(server)
        try:
            # _read_response asserts body length == Content-Length
            status, headers, body = _send_get(sock, host, "/bundle/R404")
            assert status == 404
            assert headers["connection"] == "keep-alive"
            # the connection survives the error page
            status, _, _ = _send_get(sock, host, "/stats")
            assert status == 200
        finally:
            sock.close()

    def test_max_requests_per_connection_cap(self, service, transport):
        app = make_app(service)
        server = make_server(transport, app, max_requests_per_connection=2)
        server.start()
        try:
            sock, host, _ = _connect(server)
            status, headers, _ = _send_get(sock, host, "/stats")
            assert status == 200 and headers["connection"] == "keep-alive"
            status, headers, _ = _send_get(sock, host, "/stats")
            assert status == 200 and headers["connection"] == "close"
            assert _connection_is_closed(sock)
            sock.close()
        finally:
            server.stop(grace=2.0)

    def test_idle_timeout_closes_connection(self, service, transport):
        app = make_app(service)
        server = make_server(transport, app, idle_timeout=0.2)
        server.start()
        try:
            sock, host, _ = _connect(server)
            status, headers, _ = _send_get(sock, host, "/stats")
            assert status == 200 and headers["connection"] == "keep-alive"
            # no second request: the server must hang up on its own
            assert _connection_is_closed(sock)
            sock.close()
        finally:
            server.stop(grace=2.0)

    def test_drain_sends_connection_close(self, running_server):
        server, _, _ = running_server
        sock, host, _ = _connect(server)
        try:
            status, headers, _ = _send_get(sock, host, "/stats")
            assert status == 200 and headers["connection"] == "keep-alive"
            server._draining.set()  # what stop() does first
            status, headers, _ = _send_get(sock, host, "/stats")
            assert status == 200
            assert headers["connection"] == "close"
            assert _connection_is_closed(sock)
        finally:
            sock.close()
            server._draining.clear()

    def test_http10_client_still_served(self, running_server):
        server, _, _ = running_server
        sock, host, _ = _connect(server)
        try:
            sock.sendall(f"GET /stats HTTP/1.0\r\nHost: {host}\r\n\r\n"
                         .encode("ascii"))
            status, headers, _ = _read_response(sock)
            assert status == 200
            assert headers["connection"] == "close"
            assert _connection_is_closed(sock)
        finally:
            sock.close()


def _send_head(sock, host, path):
    """Send a HEAD request; returns (status, headers, trailing-bytes).

    *trailing-bytes* is whatever arrived after the blank line — a
    correct HEAD response leaves it empty, a leaked body shows up here
    (or desynchronizes the next request, which the tests also check).
    """
    sock.sendall(f"HEAD {path} HTTP/1.1\r\nHost: {host}\r\n\r\n"
                 .encode("ascii"))
    buffer = b""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError("connection closed before headers arrived")
        buffer += chunk
    head, _, rest = buffer.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, rest


class TestHeadRequests:
    def test_head_matches_get_with_no_body(self, running_server):
        """HEAD answers the GET status/headers — exact Content-Length
        included — with zero body bytes, so a load balancer can
        health-check without paying for the payload."""
        server, app, _ = running_server
        sock, host, _ = _connect(server)
        try:
            status, headers, rest = _send_head(sock, host, "/users")
            assert status == 200
            assert rest == b""
            expected = app.get("/users")[1].encode("utf-8")
            assert int(headers["content-length"]) == len(expected)
            assert headers["connection"] == "keep-alive"
            # The connection stays in sync: a GET right behind the HEAD
            # parses cleanly (a leaked HEAD body would corrupt it).
            status, _, body = _send_get(sock, host, "/stats")
            assert status == 200
            json.loads(body)
        finally:
            sock.close()

    def test_head_on_json_api_and_error_routes(self, running_server):
        server, _, _ = running_server
        sock, host, _ = _connect(server)
        try:
            status, headers, rest = _send_head(sock, host, "/api/stats")
            assert status == 200
            assert rest == b""
            assert headers["content-type"] == "application/json"
            assert int(headers["content-length"]) > 0
            status, headers, rest = _send_head(sock, host, "/bundle/R404")
            assert status == 404
            assert rest == b""
            assert int(headers["content-length"]) > 0
        finally:
            sock.close()


# --------------------------------------------------------------------- #
# slowloris: a dribbled request head must not pin a handler


class TestSlowloris:
    def test_dribbling_head_is_shed_and_counted(self, service, transport):
        app = make_app(service)
        server = make_server(transport, app, header_timeout=0.3)
        server.start()
        try:
            sock, host, _ = _connect(server)
            sock.sendall(b"GET /sta")  # head begun, never finished
            start = time.monotonic()
            assert _connection_is_closed(sock)
            # Shed on the header deadline, far before the 30s idle
            # timeout (the generous bound absorbs scheduler noise).
            assert time.monotonic() - start < 5.0
            deadline = time.monotonic() + 5.0
            while (app.gateway.stats.snapshot()["slow_client_sheds"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert app.gateway.stats.snapshot()["slow_client_sheds"] >= 1
            sock.close()
        finally:
            server.stop(grace=2.0)

    def test_idle_connection_is_not_a_shed(self, service, transport):
        """A connection that sends *nothing* is an ordinary idle-timeout
        close — the shed counter only counts clients that began a
        request head and stalled."""
        app = make_app(service)
        server = make_server(transport, app, idle_timeout=0.2,
                             header_timeout=30.0)
        server.start()
        try:
            sock, _, _ = _connect(server)
            assert _connection_is_closed(sock)
            assert app.gateway.stats.snapshot()["slow_client_sheds"] == 0
            sock.close()
        finally:
            server.stop(grace=2.0)

    def test_slow_head_within_deadline_is_served(self, service, transport):
        app = make_app(service)
        server = make_server(transport, app, header_timeout=10.0)
        server.start()
        try:
            sock, host, _ = _connect(server)
            request = (f"GET /stats HTTP/1.1\r\nHost: {host}\r\n\r\n"
                       .encode("ascii"))
            sock.sendall(request[:9])
            time.sleep(0.1)
            sock.sendall(request[9:])
            status, _, body = _read_response(sock)
            assert status == 200
            json.loads(body)
            sock.close()
        finally:
            server.stop(grace=2.0)


# --------------------------------------------------------------------- #
# malformed POST bodies must never desynchronize the connection


class TestMalformedBodies:
    def test_missing_content_length_is_400_and_close(self, running_server):
        server, _, _ = running_server
        sock, host, _ = _connect(server)
        try:
            status, headers, _ = _send_post(sock, host, "/assign",
                                            send_length=False)
            assert status == 400
            assert headers["connection"] == "close"
            assert _connection_is_closed(sock)
        finally:
            sock.close()

    def test_malformed_content_length_is_400_and_close(self, running_server):
        server, _, _ = running_server
        sock, host, _ = _connect(server)
        try:
            status, headers, _ = _send_post(sock, host, "/assign",
                                            content_length="not-a-number")
            assert status == 400
            assert headers["connection"] == "close"
            assert _connection_is_closed(sock)
        finally:
            sock.close()

    def test_bad_utf8_body_keeps_connection_in_sync(self, running_server):
        server, _, _ = running_server
        sock, host, _ = _connect(server)
        try:
            status, headers, _ = _send_post(sock, host, "/assign",
                                            body=b"\xff\xfe\xfd")
            assert status == 400
            assert headers["connection"] == "keep-alive"
            # the declared body was consumed: the next request on the
            # same socket is parsed cleanly, not as leftover garbage
            status, _, body = _send_get(sock, host, "/stats")
            assert status == 200
            json.loads(body)
        finally:
            sock.close()

    def test_oversized_declared_body_is_413_and_close(self, running_server):
        server, _, _ = running_server
        sock, host, _ = _connect(server)
        try:
            status, headers, _ = _send_post(sock, host, "/assign",
                                            content_length=(1 << 20) + 1)
            assert status == 413
            assert headers["connection"] == "close"
            assert _connection_is_closed(sock)
        finally:
            sock.close()

    def test_short_body_then_eof_is_400_and_close(self, running_server):
        server, _, _ = running_server
        sock, host, _ = _connect(server)
        try:
            lines = ["POST /assign HTTP/1.1", f"Host: {host}",
                     "Content-Type: application/x-www-form-urlencoded",
                     "Content-Length: 100"]
            sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
                         + b"ref_no=x")
            sock.shutdown(socket.SHUT_WR)  # EOF before the declared length
            status, headers, _ = _read_response(sock)
            assert status == 400
            assert headers["connection"] == "close"
            assert _connection_is_closed(sock)
        finally:
            sock.close()

    def test_unit_level_post_error_mapping(self, service):
        """The app maps gateway/service failures the same way on POST as
        the suggestion screen does on GET (the old code let these escape
        as raw 500s)."""
        app = make_app(service)
        _, held_out = service
        # unknown bundle -> 404 (was 400 via the blanket ValueError catch)
        assert app.post("/assign", {"ref_no": "R404",
                                    "error_code": "E1"})[0] == 404
        for exc, expected in ((QueueFullError("full"), 503),
                              (GatewayStoppedError("stopped"), 503),
                              (DeadlineExceededError("late"), 504)):
            def raiser(*args, _exc=exc, **kwargs):
                raise _exc
            app.gateway.assign = raiser
            status, _ = app.post("/assign", {"ref_no": held_out[0].ref_no,
                                             "error_code": "E1"})
            assert status == expected, exc
        app.gateway.define_error_code = raiser
        assert app.post("/codes/new", {"error_code": "EX",
                                       "part_id": "P1",
                                       "description": "d"})[0] == 504
        app.close(grace=1.0)

    def test_duplicate_custom_code_is_conflict(self, service):
        app = make_app(service)
        form = {"error_code": "EDUP", "part_id": "P1", "description": "dup"}
        assert app.post("/codes/new", form)[0] == 200
        assert app.post("/codes/new", form)[0] == 409
        app.close(grace=1.0)

    def test_retry_after_on_503_and_504(self, running_server):
        server, app, held_out = running_server

        def slow(*args, **kwargs):
            raise DeadlineExceededError("too slow")

        original = app.gateway.suggest
        app.gateway.suggest = slow
        try:
            sock, host, _ = _connect(server)
            status, headers, _ = _send_get(
                sock, host, f"/bundle/{held_out[0].ref_no}")
            assert status == 504
            assert headers["retry-after"] == "1"
            sock.close()
        finally:
            app.gateway.suggest = original


# --------------------------------------------------------------------- #
# protocol errors and request framing: one answer on both transports


def _read_head_only(sock):
    """Bytes up to and including the first blank line."""
    buffer = b""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(1)
        if not chunk:
            raise AssertionError("connection closed before the head ended")
        buffer += chunk
    return buffer


def _read_responses(sock, count):
    """Parse *count* responses off one stream (pipelining: one segment
    may hold several, which _read_response would take as a long body)."""
    stream = sock.makefile("rb")
    responses = []
    for _ in range(count):
        status = int(stream.readline().split()[1])
        headers = {}
        while (line := stream.readline()) not in (b"\r\n", b""):
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        body = stream.read(int(headers["content-length"]))
        responses.append((status, headers, body))
    stream.close()
    return responses


class TestProtocolErrors:
    def test_pipelined_requests_answered_in_order(self, running_server):
        server, app, _ = running_server
        sock, host, _ = _connect(server)
        try:
            sock.sendall((f"GET /users HTTP/1.1\r\nHost: {host}\r\n\r\n"
                          f"GET /api/stats HTTP/1.1\r\nHost: {host}\r\n\r\n"
                          ).encode("ascii"))
            first, second = _read_responses(sock, 2)
            status, headers, body = first
            assert status == 200
            assert headers["connection"] == "keep-alive"
            assert body == app.get("/users")[1].encode("utf-8")
            status, _, body = second
            assert status == 200
            json.loads(body)
        finally:
            sock.close()

    def test_unknown_method_is_501_and_close(self, running_server):
        """The app-rendered page (or JSON error on the API), not a
        transport's own error page; the method's framing is unknown, so
        the connection closes."""
        server, _, _ = running_server
        for request, content_type, expected in (
                ("PUT /stats", "application/json",
                 {"error": "Unsupported method", "exception": "ValueError",
                  "message": "method 'PUT' is not supported"}),
                ("BREW /users", "text/html; charset=utf-8",
                 views.render_message("Unsupported method",
                                      "method 'BREW' is not supported"))):
            sock, host, _ = _connect(server)
            try:
                sock.sendall(f"{request} HTTP/1.1\r\nHost: {host}\r\n\r\n"
                             .encode("ascii"))
                status, headers, body = _read_response(sock)
                assert status == 501
                assert headers["connection"] == "close"
                assert headers["content-type"] == content_type
                if isinstance(expected, dict):
                    assert json.loads(body) == expected
                else:
                    assert body == expected.encode("utf-8")
                assert _connection_is_closed(sock)
            finally:
                sock.close()

    def test_malformed_request_line_is_400_and_close(self, running_server):
        server, _, _ = running_server
        sock, _, _ = _connect(server)
        try:
            sock.sendall(b"NONSENSE\r\n\r\n")
            status, headers, _ = _read_response(sock)
            assert status == 400
            assert headers["connection"] == "close"
            assert _connection_is_closed(sock)
        finally:
            sock.close()

    @pytest.mark.parametrize("request_line,expected", [
        ("GET /stats HTTP/2.0", 505),
        ("GET /stats HTTP/0.9", 505),
        ("GET /stats", 400),              # an HTTP/0.9 simple request
        ("GET /stats HTTX/1.1", 400),
    ])
    def test_unsupported_version_gets_a_status_line(
            self, running_server, request_line, expected):
        server, _, _ = running_server
        sock, _, _ = _connect(server)
        try:
            sock.sendall(request_line.encode("ascii") + b"\r\n\r\n")
            # _read_response needs a status line and a Content-Length
            status, headers, _ = _read_response(sock)
            assert status == expected
            assert headers["connection"] == "close"
            assert _connection_is_closed(sock)
        finally:
            sock.close()

    @pytest.mark.parametrize("head,expected", [
        (b"GET /" + b"a" * 65536, 414),
        (b"GET /stats HTTP/1.1\r\nX-Long: " + b"a" * 65536, 431),
        (b"GET /stats HTTP/1.1\r\n"
         + b"".join(b"X-H%d: v\r\n" % number for number in range(101)), 431),
    ], ids=["request-line", "header-line", "header-count"])
    def test_head_limits(self, running_server, head, expected):
        server, _, _ = running_server
        sock, _, _ = _connect(server)
        try:
            sock.sendall(head)
            status, headers, _ = _read_response(sock)
            assert status == expected
            assert headers["connection"] == "close"
            assert _connection_is_closed(sock)
        finally:
            sock.close()

    def test_expect_100_continue(self, running_server):
        server, _, _ = running_server
        sock, host, _ = _connect(server)
        body = b"ref_no=R404&error_code=E1"
        try:
            sock.sendall((f"POST /api/assign HTTP/1.1\r\nHost: {host}\r\n"
                          "Content-Type: application/x-www-form-urlencoded\r\n"
                          f"Content-Length: {len(body)}\r\n"
                          "Expect: 100-continue\r\n\r\n").encode("ascii"))
            assert _read_head_only(sock) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            status, headers, payload = _read_response(sock)
            assert status == 404
            assert json.loads(payload)["exception"] == "UnknownBundleError"
            assert headers["connection"] == "keep-alive"
        finally:
            sock.close()

    def test_conflicting_content_lengths_are_400_and_close(
            self, running_server):
        server, _, _ = running_server
        sock, host, _ = _connect(server)
        try:
            sock.sendall((f"POST /assign HTTP/1.1\r\nHost: {host}\r\n"
                          "Content-Length: 6\r\nContent-Length: 13\r\n\r\n"
                          "ref_no=R1&x=y").encode("ascii"))
            status, headers, _ = _read_response(sock)
            assert status == 400
            assert headers["connection"] == "close"
            assert _connection_is_closed(sock)
        finally:
            sock.close()

    @pytest.mark.parametrize("framing", [
        "Transfer-Encoding: chunked",
        "Transfer-Encoding: chunked\r\nContent-Length: 13",
    ], ids=["chunked", "chunked-with-length"])
    def test_transfer_encoding_is_501_and_close(self, running_server,
                                                framing):
        server, _, _ = running_server
        sock, host, _ = _connect(server)
        try:
            sock.sendall((f"POST /assign HTTP/1.1\r\nHost: {host}\r\n"
                          f"{framing}\r\n\r\n8\r\nref_no=x\r\n0\r\n\r\n")
                         .encode("ascii"))
            status, headers, _ = _read_response(sock)
            assert status == 501
            assert headers["connection"] == "close"
            assert _connection_is_closed(sock)
        finally:
            sock.close()


# --------------------------------------------------------------------- #
# admission control is the gateway's, on both transports


class TestAdmission:
    def test_overload_is_shed_not_queued_in_the_transport(self, service,
                                                          transport):
        """72 concurrent suggests against a stalled batcher: whatever
        the gateway cannot hold (a 40-deep queue plus one 16-request
        batch) is shed with 503 at once, not parked in front of it."""
        app = make_app(service, GatewayConfig(workers=1, max_queue=40))
        held_out = service[1]
        unblock = threading.Event()
        classify = app.gateway._classify_one

        def stalled(*args, **kwargs):
            unblock.wait(timeout=30)
            return classify(*args, **kwargs)

        app.gateway._classify_one = stalled
        server = make_server(transport, app)
        server.start()
        host, port = server.address
        statuses = []

        def client(slot):
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.request("GET", "/api/suggest/"
                             + held_out[slot % len(held_out)].ref_no)
                statuses.append(conn.getresponse().status)
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(72)]
        shed_floor = 72 - 40 - 16
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10.0
            while (app.gateway.stats_snapshot()["rejected"] < shed_floor
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        finally:
            unblock.set()
            for thread in threads:
                thread.join(timeout=30)
            server.stop(grace=5.0)
        assert not any(thread.is_alive() for thread in threads)
        assert statuses.count(503) >= shed_floor
        assert statuses.count(503) == app.gateway.stats_snapshot()["rejected"]
        assert statuses.count(200) + statuses.count(503) == 72


# --------------------------------------------------------------------- #
# pooled client against the QUEST server + JSON API


class TestPooledClientIntegration:
    def test_client_reuses_and_api_answers(self, running_server):
        server, _, held_out = running_server
        host, port = server.address
        base = f"http://{host}:{port}"
        with PooledHTTPClient() as client:
            for _ in range(3):
                response = client.get(
                    f"{base}/api/suggest/{held_out[0].ref_no}")
                assert response.status == 200
                assert response.header("Content-Type") == "application/json"
                payload = response.json()
                assert payload["ref_no"] == held_out[0].ref_no
                assert 1 <= len(payload["top10"]) <= 10
                assert payload["degraded"] is None
                assert [s["error_code"] for s in payload["suggestions"]] \
                    == payload["top10"]
            stats = client.stats_snapshot()
            assert stats["created"] == 1
            assert stats["reused"] == 2

    def test_api_assign_and_errors(self, running_server):
        server, app, held_out = running_server
        host, port = server.address
        base = f"http://{host}:{port}"
        with PooledHTTPClient() as client:
            view = client.get(
                f"{base}/api/suggest/{held_out[3].ref_no}").json()
            response = client.post_form(f"{base}/api/assign", {
                "ref_no": held_out[3].ref_no,
                "error_code": view["top10"][0]})
            assert response.status == 200
            assert response.json()["status"] == "assigned"
            # JSON error bodies with mapped statuses
            missing = client.get(f"{base}/api/suggest/R404")
            assert missing.status == 404
            assert missing.json()["exception"] == "UnknownBundleError"
            bad = client.post_form(f"{base}/api/assign", {
                "ref_no": held_out[3].ref_no, "error_code": "BOGUS"})
            assert bad.status == 400
            assert bad.json()["error"] == "Bad request"
            unknown = client.get(f"{base}/api/nope")
            assert unknown.status == 404
        assert app.service.bundle(held_out[3].ref_no).error_code \
            == view["top10"][0]

    def test_api_stats_route(self, running_server):
        server, _, _ = running_server
        host, port = server.address
        with PooledHTTPClient() as client:
            payload = client.get(f"http://{host}:{port}/api/stats").json()
        assert "submitted" in payload and "model_version" in payload

    def test_responses_byte_identical_to_app_layer(self, running_server):
        """The HTTP/1.1 transport serves exactly what the transport-less
        app layer produces for every existing route."""
        server, app, held_out = running_server
        host, port = server.address
        base = f"http://{host}:{port}"
        ref = held_out[0].ref_no
        routes = ["/", "/users", f"/bundle/{ref}", f"/history/{ref}",
                  "/compare", "/search?q=" + urllib.parse.quote("the"),
                  "/nonsense"]
        with PooledHTTPClient() as client:
            for route in routes:
                over_http = client.get(base + route)
                status, body = app.get(route)
                assert over_http.status == status, route
                assert over_http.body == body.encode("utf-8"), route


# --------------------------------------------------------------------- #
# read-only screens under concurrent writes (gateway read guard)


class TestReadGuardRegression:
    def test_concurrent_assigns_and_reads_stay_consistent(self, service):
        quest, held_out = service
        app = make_app(service)
        errors = []
        done = threading.Event()

        def writer():
            try:
                for bundle in held_out[:8]:
                    view = app.gateway.suggest(bundle.ref_no, timeout=30.0)
                    status, _ = app.post("/assign", {
                        "ref_no": bundle.ref_no,
                        "error_code": view.top10[0]})
                    assert status == 200
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                while not done.is_set():
                    assert app.get("/")[0] == 200
                    assert app.get("/search?q=the")[0] == 200
                    assert app.get(
                        f"/history/{held_out[0].ref_no}")[0] == 200
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + \
            [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert quest.database.check_consistency() == []
        for bundle in held_out[:8]:
            assert quest.bundle(bundle.ref_no).error_code is not None
        app.close(grace=2.0)
