"""Event-loop transport tests (`repro.serve.aio`).

The shared wire contract — error table, body discipline, keep-alive
semantics, pipelining, protocol errors — is pinned against *both*
transports by the parameterized suite in ``tests/quest/test_keepalive.py``.
This module covers what is specific to the asyncio transport: connection
scale (many idle keep-alive sockets on one loop) and the lifecycle
(double-stop, never-started stop, context manager).
"""

import json
import socket
import time

import pytest

from repro.quest import QuestApp, Role, User, UserStore
from repro.serve import AsyncQuestServer


def make_app(service_pair):
    quest, _ = service_pair
    users = UserStore()
    users.add(User("expert", Role.POWER_EXPERT, "Test Expert"))
    return QuestApp(quest, users, users.get("expert"))


@pytest.fixture()
def running_server(service):
    app = make_app(service)
    server = AsyncQuestServer(app)
    server.start()
    yield server, app, service[1]
    server.stop(grace=5.0)


def _connect(server):
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=10)
    return sock, host


def _read_response(sock):
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
    length = int(headers["content-length"])
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        body += chunk
    assert len(body) >= length
    return status, headers, body[:length], body[length:]


class TestConnectionScale:
    def test_hundreds_of_idle_connections_served_by_one_loop(
            self, running_server):
        """The threaded transport spends a thread per connection; the
        event loop must hold hundreds of primed idle sockets and still
        answer a new request promptly."""
        server, _, _ = running_server
        host, port = server.address
        idle = []
        try:
            for _ in range(256):
                sock = socket.create_connection((host, port), timeout=10)
                idle.append(sock)
            # Prime a few so the sockets are mid-keep-alive, not merely
            # accepted (every connection stays open afterwards).
            for sock in idle[:32]:
                sock.sendall(f"GET /api/stats HTTP/1.1\r\nHost: {host}"
                             "\r\n\r\n".encode("ascii"))
                status, headers, _, _ = _read_response(sock)
                assert status == 200
                assert headers["connection"] == "keep-alive"
            # A fresh request is still served while 256 sockets idle.
            probe = socket.create_connection((host, port), timeout=10)
            probe.sendall(f"GET /api/stats HTTP/1.1\r\nHost: {host}"
                          "\r\n\r\n".encode("ascii"))
            status, _, body, _ = _read_response(probe)
            assert status == 200
            json.loads(body)
            probe.close()
        finally:
            for sock in idle:
                sock.close()


class TestLifecycle:
    def test_stop_is_idempotent(self, service):
        app = make_app(service)
        server = AsyncQuestServer(app)
        server.start()
        report = server.stop(grace=2.0)
        assert report is not None
        # a second stop must not hang or raise
        server.stop(grace=1.0)

    def test_stop_without_start_closes_listener(self, service):
        app = make_app(service)
        server = AsyncQuestServer(app)
        host, port = server.address
        server.stop(grace=1.0)
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1)

    def test_context_manager_round_trip(self, service):
        app = make_app(service)
        with AsyncQuestServer(app) as server:
            sock, host = _connect(server)
            sock.sendall(f"GET /stats HTTP/1.1\r\nHost: {host}\r\n\r\n"
                         .encode("ascii"))
            status, _, body, _ = _read_response(sock)
            assert status == 200
            json.loads(body)
            sock.close()

    def test_surviving_idle_connections_do_not_block_stop(self, service):
        app = make_app(service)
        server = AsyncQuestServer(app)
        server.start()
        host, port = server.address
        idle = [socket.create_connection((host, port), timeout=10)
                for _ in range(32)]
        try:
            # Wait until the loop has accepted every socket: connections
            # still in the kernel backlog when the listener closes never
            # had a task to cancel.
            deadline = time.monotonic() + 5.0
            while (len(server._conn_tasks) < 32
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert len(server._conn_tasks) == 32
            report = server.stop(grace=2.0)
            assert report is not None
            # cancelled connection tasks closed their sockets
            for sock in idle:
                sock.settimeout(5.0)
                assert sock.recv(1) == b""
        finally:
            for sock in idle:
                sock.close()
