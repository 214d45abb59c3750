"""A pooled keep-alive HTTP/1.1 client for the serving stack.

The stdlib gives us two unsatisfying options for driving the QUEST web
app: ``urllib.request`` (which forces ``Connection: close`` on every
call, paying a TCP connect plus a server-side handler thread per
request) and a bare ``http.client.HTTPConnection`` (persistent, but
single-connection and with no recovery when the server quietly closes an
idle socket).  This module is the third option, for load generators and
clients that talk to one server or to many hosts at once:

* a **per-host connection pool** with a bounded size — connections are
  acquired exclusively, reused LIFO (warmest socket first) and released
  back after a fully-read response;
* **idle reaping** — a pooled socket that sat unused longer than
  ``idle_timeout`` is closed instead of reused, both opportunistically
  on acquire/release and via :meth:`PooledHTTPClient.reap_idle`;
* **one transparent retry** when a *reused* socket turns out to be dead
  mid-request (the server closed it while it idled in the pool — the
  classic keep-alive race).  Fresh connections and timeouts are never
  retried: a dead-on-reuse socket means the server never read the
  request, so the retry cannot double-apply it;
* **per-request timeouts** — every request carries a socket timeout
  (the client default or a per-call override).

The client is thread-safe: the pool hands each connection to exactly one
thread at a time, so closed-loop load generators can share one client
across all their workers (``benchmarks/bench_serving.py`` bench A8 does
exactly that).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.parse
from collections import deque
from dataclasses import dataclass


class HTTPClientError(Exception):
    """A request could not be completed (after any transparent retry)."""


#: Errors that mean "this socket is dead", as opposed to an HTTP error
#: response (which is returned, not raised) or a timeout (which is
#: raised, never retried).  ``RemoteDisconnected`` is covered twice over
#: (it subclasses both ``BadStatusLine`` and ``ConnectionResetError``).
_DEAD_SOCKET_ERRORS = (
    http.client.BadStatusLine,
    http.client.ImproperConnectionState,
    ConnectionResetError,
    BrokenPipeError,
    ConnectionAbortedError,
)


@dataclass(frozen=True)
class ClientResponse:
    """A fully-read HTTP response (the socket is already back in the
    pool or closed by the time the caller sees this)."""

    status: int
    reason: str
    headers: tuple[tuple[str, str], ...]
    body: bytes
    #: Whether the response arrived over a pooled (reused) connection.
    reused: bool
    #: Whether a dead pooled socket was transparently replaced first.
    retried: bool

    def header(self, name: str, default: str | None = None) -> str | None:
        """The first header named *name* (case-insensitive)."""
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return default

    @property
    def text(self) -> str:
        """The body decoded as UTF-8."""
        return self.body.decode("utf-8")

    def json(self):
        """The body parsed as JSON."""
        return json.loads(self.body)


class _NoDelayConnection(http.client.HTTPConnection):
    """``HTTPConnection`` with Nagle disabled.

    Request lines and form bodies are small; letting Nagle coalesce
    them against the delayed ACK of the previous response adds tens of
    milliseconds per request on a persistent connection.
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class _PooledConnection:
    """A keep-alive connection parked in the pool with its release time."""

    __slots__ = ("conn", "idle_since")

    def __init__(self, conn: http.client.HTTPConnection) -> None:
        self.conn = conn
        self.idle_since = time.monotonic()


class PooledHTTPClient:
    """Keep-alive HTTP/1.1 client with a bounded per-host pool.

    Args:
        max_per_host: idle connections kept per (host, port); extra
            releases close the socket instead of growing the pool.
        idle_timeout: seconds a pooled socket may idle before it is
            reaped rather than reused.
        timeout: default per-request socket timeout (seconds).
        keep_alive: ``False`` sends ``Connection: close`` on every
            request and never pools — the connection-per-request mode
            the A8 benchmark uses as its "before" arm.
        retries: transparent retries granted when a reused socket is
            found dead (the default 1 is the keep-alive race repair;
            0 disables it).
    """

    def __init__(self, max_per_host: int = 8, idle_timeout: float = 30.0,
                 timeout: float = 10.0, keep_alive: bool = True,
                 retries: int = 1) -> None:
        if max_per_host < 0:
            raise ValueError("max_per_host must be >= 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.max_per_host = max_per_host
        self.idle_timeout = idle_timeout
        self.timeout = timeout
        self.keep_alive = keep_alive
        self.retries = retries
        self._lock = threading.Lock()
        self._pools: dict[tuple[str, int], deque[_PooledConnection]] = {}
        self._closed = False
        self._stats = {"requests": 0, "created": 0, "reused": 0,
                       "retries": 0, "reaped": 0, "discarded": 0}

    # ------------------------------------------------------------------ #
    # requests

    def request(self, method: str, url: str, body: bytes | str | None = None,
                headers: dict[str, str] | None = None,
                timeout: float | None = None) -> ClientResponse:
        """Send one request and read the response fully.

        Raises:
            HTTPClientError: the client is closed, the URL is not plain
                HTTP, or the socket died and no retry was available.
            OSError: connect failures and per-request timeouts.
        """
        host, port, target = self._split(url)
        timeout = self.timeout if timeout is None else timeout
        if isinstance(body, str):
            body = body.encode("utf-8")
        send_headers = dict(headers or {})
        if not self.keep_alive:
            send_headers.setdefault("Connection", "close")
        self._count("requests")
        retried = False
        attempts_left = self.retries
        while True:
            pooled = self._acquire(host, port)
            reused = pooled is not None
            if reused:
                conn = pooled.conn
                self._count("reused")
            else:
                conn = _NoDelayConnection(host, port, timeout=timeout)
                self._count("created")
            try:
                if conn.sock is not None:
                    conn.sock.settimeout(timeout)
                conn.request(method, target, body=body, headers=send_headers)
                response = conn.getresponse()
                payload = response.read()
            except _DEAD_SOCKET_ERRORS as exc:
                conn.close()
                if reused and attempts_left > 0:
                    # The server closed this socket while it idled in the
                    # pool; it never read the request, so one retry on a
                    # fresh connection is safe and invisible to the caller.
                    attempts_left -= 1
                    retried = True
                    self._count("retries")
                    continue
                raise HTTPClientError(
                    f"{method} {url} failed on a "
                    f"{'reused' if reused else 'fresh'} connection: "
                    f"{exc!r}") from exc
            except (OSError, http.client.HTTPException):
                conn.close()
                raise
            # A connection the server marked for close (request cap hit,
            # drain begun) must be discarded, not pooled: reusing it
            # burns the one dead-socket retry on a request the server
            # was always going to refuse.  ``will_close`` covers the
            # common cases, but the explicit header is the contract —
            # check it directly so a response ``http.client`` mispredicts
            # (or a future parser swap) can never leak a doomed socket
            # back into the pool.
            connection_header = (response.getheader("Connection")
                                 or "").lower()
            server_closing = (response.will_close
                              or "close" in connection_header)
            if self.keep_alive and not server_closing:
                self._release(host, port, conn)
            else:
                conn.close()
            return ClientResponse(status=response.status,
                                  reason=response.reason,
                                  headers=tuple(response.getheaders()),
                                  body=payload, reused=reused,
                                  retried=retried)

    def get(self, url: str, timeout: float | None = None) -> ClientResponse:
        """``GET`` *url*."""
        return self.request("GET", url, timeout=timeout)

    def post_form(self, url: str, fields: dict[str, str],
                  timeout: float | None = None) -> ClientResponse:
        """``POST`` *fields* as ``application/x-www-form-urlencoded``."""
        return self.request(
            "POST", url, body=urllib.parse.urlencode(fields),
            headers={"Content-Type": "application/x-www-form-urlencoded"},
            timeout=timeout)

    # ------------------------------------------------------------------ #
    # pool management

    def _split(self, url: str) -> tuple[str, int, str]:
        # _closed is only ever written under _lock (close()); reading it
        # unlocked here could miss a concurrent close and hand a request
        # a connection that close() will never see to shut down.
        with self._lock:
            if self._closed:
                raise HTTPClientError("client is closed")
        parts = urllib.parse.urlsplit(url)
        if parts.scheme != "http":
            raise HTTPClientError(
                f"unsupported scheme {parts.scheme!r} in {url!r} "
                f"(plain http only)")
        target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query
        return parts.hostname or "127.0.0.1", parts.port or 80, target

    def _acquire(self, host: str, port: int) -> _PooledConnection | None:
        if not self.keep_alive:
            return None
        now = time.monotonic()
        key = (host, port)
        with self._lock:
            pool = self._pools.get(key)
            if pool is None:
                return None
            entry = None
            while pool:
                candidate = pool.pop()  # LIFO: the warmest socket first
                if now - candidate.idle_since > self.idle_timeout:
                    candidate.conn.close()
                    self._stats["reaped"] += 1
                    continue
                entry = candidate
                break
            if not pool:
                # Drop the emptied deque: a client that talks to many
                # hosts would otherwise grow _pools by one dead entry per
                # host it ever contacted.
                del self._pools[key]
            return entry

    def _release(self, host: str, port: int,
                 conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if self._closed:
                conn.close()
                return
            pool = self._pools.setdefault((host, port), deque())
            if len(pool) >= self.max_per_host:
                conn.close()
                self._stats["discarded"] += 1
                return
            pool.append(_PooledConnection(conn))

    def reap_idle(self) -> int:
        """Close every pooled connection idle beyond ``idle_timeout``;
        returns how many were reaped."""
        now = time.monotonic()
        reaped = 0
        with self._lock:
            for key in list(self._pools):
                pool = self._pools[key]
                keep: deque[_PooledConnection] = deque()
                while pool:
                    entry = pool.popleft()
                    if now - entry.idle_since > self.idle_timeout:
                        entry.conn.close()
                        reaped += 1
                    else:
                        keep.append(entry)
                pool.extend(keep)
                if not pool:
                    del self._pools[key]  # see _acquire: no empty deques
            self._stats["reaped"] += reaped
        return reaped

    def pooled_connections(self) -> int:
        """How many idle connections the pool currently holds."""
        with self._lock:
            return sum(len(pool) for pool in self._pools.values())

    def stats_snapshot(self) -> dict[str, int]:
        """A consistent copy of the client's counters."""
        with self._lock:
            return dict(self._stats)

    def _count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self._stats[key] += amount

    # ------------------------------------------------------------------ #
    # lifecycle

    def close(self) -> None:
        """Close every pooled connection; further requests raise."""
        with self._lock:
            self._closed = True
            pools, self._pools = self._pools, {}
        for pool in pools.values():
            for entry in pool:
                entry.conn.close()

    def __enter__(self) -> "PooledHTTPClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"<PooledHTTPClient pooled={self.pooled_connections()} "
                f"max_per_host={self.max_per_host} "
                f"keep_alive={self.keep_alive}>")
