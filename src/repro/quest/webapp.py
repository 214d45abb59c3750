"""A minimal QUEST web application on the standard library HTTP server.

Substitute for the paper's PrimeFaces/WSO2 stack (§4.5.4): the same
user-visible functions — bundle list, top-10 suggestion screen with
full-list fallback, error-code assignment, custom code creation, user
list, and the cross-source comparison — served as plain HTML, plus a
machine-readable JSON API (``/api/suggest/<ref>``, ``/api/assign``,
``/api/stats``) for programmatic clients.

The transport speaks **HTTP/1.1 with keep-alive**: connections persist
across requests (bounded by a per-connection request cap and an idle
timeout), every response carries an exact ``Content-Length`` — error
pages included — and a draining server answers with ``Connection:
close`` so ``stop()`` converges instead of waiting out idle sockets.
Because a desynchronized connection under keep-alive corrupts the *next*
request, the handler always consumes a POST's declared body (or closes
the connection when the declared length is unusable) before answering.

The handler delegates all logic to the serving gateway
(:class:`~repro.serve.ServeGateway`) and the pure view functions, so it
stays a thin transport layer.  The gateway owns queueing, micro-batching,
deadlines and the store's reader-writer lock; read-only screens take the
gateway's read guard so a concurrent write can never produce a torn
read.  Overload surfaces as HTTP 503 (queue full / shutdown) and 504
(deadline exceeded), both with ``Retry-After``, and the live counters
are served as JSON on ``/stats`` and ``/api/stats``.
"""

from __future__ import annotations

import json
import pickle
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING

from ..data.schema import load_bundles
from ..relstore.errors import IntegrityError
# Only the leaf errors module at import time: repro.serve.gateway imports
# the quest service layer, so pulling the gateway in here would close an
# import cycle through quest/__init__.  The gateway class itself is
# imported lazily in QuestApp.__init__.
from ..serve.errors import (DeadlineExceededError, GatewayStoppedError,
                            QueueFullError, ReplicaWriteError, ServeError)
from ..triage import part_profiles
from .compare import ComparisonView
from .errors import DegradedServiceError, UnknownBundleError
from .service import SUGGESTION_COUNT, QuestService
from .users import PermissionError_, User, UserStore
from . import views

if TYPE_CHECKING:
    from ..serve.gateway import DrainReport, ServeGateway

#: Upper bound on an accepted POST body.  Longer declared bodies are
#: refused with 413 before reading, so one oversized upload cannot pin a
#: keep-alive handler thread.
MAX_BODY_BYTES = 1 << 20

#: Default cap on requests served over one keep-alive connection; the
#: response that hits the cap carries ``Connection: close``.
MAX_REQUESTS_PER_CONNECTION = 1000

#: Default seconds a keep-alive connection may idle between requests.
KEEPALIVE_IDLE_TIMEOUT = 30.0

#: Once the first byte of a request has arrived, the rest of the request
#: line and headers must arrive within this many seconds.  A socket-level
#: idle timeout alone cannot bound this: every dribbled byte resets the
#: per-``recv`` clock, so a slowloris client sending one byte per second
#: could pin a handler (a whole thread, on the threaded transport)
#: forever — and past the drain grace during ``stop()``.
HEADER_TIMEOUT = 10.0


def _failure_response(exc: Exception) -> tuple[int, str]:
    """Map a service/gateway failure to ``(HTTP status, title)``.

    One mapping for every route — GET and POST, HTML and JSON — so an
    error that the suggestion screen answers with 503 can no longer
    escape an assignment POST as a raw 500 (or a dropped connection).
    """
    if isinstance(exc, PermissionError_):
        return 403, "Forbidden"
    if isinstance(exc, UnknownBundleError):
        return 404, "Not found"
    if isinstance(exc, ReplicaWriteError):
        return 405, "Method not allowed"
    if isinstance(exc, (QueueFullError, GatewayStoppedError)):
        return 503, "Server overloaded"
    if isinstance(exc, DeadlineExceededError):
        return 504, "Deadline exceeded"
    if isinstance(exc, DegradedServiceError):
        return 503, "Service degraded"
    if isinstance(exc, IntegrityError):
        return 409, "Conflict"
    if isinstance(exc, ValueError):  # QuestError subclasses ValueError
        return 400, "Bad request"
    return 500, "Internal error"


def _json_error(title: str, exc: Exception) -> str:
    """The JSON API's error body."""
    return json.dumps({"error": title, "exception": type(exc).__name__,
                       "message": str(exc)}, sort_keys=True)


def _is_json_path(path: str) -> bool:
    """Whether *path* is served as ``application/json``."""
    path = urllib.parse.urlsplit(path).path
    return path == "/stats" or path.startswith("/api/")


class QuestApp:
    """Bundles the gateway, users and (optional) comparison for serving."""

    def __init__(self, service: QuestService, users: UserStore,
                 current_user: User,
                 comparison: ComparisonView | None = None,
                 gateway: "ServeGateway | None" = None,
                 gateway_config=None,
                 replica_of: str | None = None,
                 replicator=None) -> None:
        self.service = service
        self.users = users
        self.current_user = current_user
        self.comparison = comparison
        if gateway is None:
            from ..serve.gateway import ServeGateway
            gateway = ServeGateway(service, gateway_config)
        #: The serving gateway all suggest/assign traffic goes through.
        #: A default one (lazy worker pool) is built when none is given;
        #: *gateway_config* tunes it (e.g. ``workers`` or ``max_queue``)
        #: without the caller having to construct the gateway itself.
        self.gateway = gateway
        #: When set, this app is a **read replica** of the primary at
        #: that URL: every POST is refused with 405 pointing there.
        self.replica_of = replica_of
        #: The replica's :class:`~repro.serve.SnapshotReplicator`, when
        #: one is attached; its counters merge into ``/api/stats``.
        self.replicator = replicator

    def close(self, grace: float | None = None) -> "DrainReport":
        """Drain and stop the gateway; returns its drain report."""
        return self.gateway.stop(grace)

    # ------------------------------------------------------------------ #
    # request-level operations (transport-independent, unit-testable)

    def get(self, path: str) -> tuple[int, str | bytes]:
        """Handle a GET; returns (status, body).  *path* may carry a query
        string (used by /search?q=... and /api/replicate?base=...).
        ``/stats`` and ``/api/...`` return JSON (``/api/replicate`` a
        pickled payload), every other route HTML."""
        parts = urllib.parse.urlsplit(path)
        path, query_string = parts.path, parts.query
        if path == "/" or path == "/bundles":
            # Read-only screens share the store's read lock (the same
            # lock suggest batches and writers take) so a concurrent
            # POST /assign cannot produce a torn bundle list.
            with self.gateway.read_locked():
                bundles = load_bundles(self.service.database)
            return 200, views.render_bundle_list(bundles)
        if path.startswith("/api/"):
            return self._api_get(path, query_string)
        if path.startswith("/bundle/"):
            ref_no = urllib.parse.unquote(path[len("/bundle/"):])
            try:
                view = self.gateway.suggest(ref_no)
            except (ValueError, ServeError) as exc:
                status, title = _failure_response(exc)
                return status, views.render_message(title, str(exc))
            return 200, views.render_suggestions(view)
        if path == "/stats":
            return 200, json.dumps(self._stats_payload(), sort_keys=True)
        if path == "/compare":
            if self.comparison is None:
                return 200, views.render_message(
                    "Error distribution comparison",
                    "No public data source configured.")
            return 200, views.render_comparison(self.comparison)
        if path == "/users":
            return 200, views.render_users(self.users.all_users())
        if path == "/search":
            query = urllib.parse.parse_qs(query_string).get("q", [""])[0]
            with self.gateway.read_locked():
                matches = self.service.search_bundles(query)
            return 200, views.render_bundle_list(matches)
        if path == "/review":
            with self.gateway.read_locked():
                entries = self.service.pending_reviews()
                counts = self.service.review_queue.counts()
            return 200, views.render_review(entries, counts)
        if path == "/profiles":
            with self.gateway.read_locked():
                profiles = part_profiles(self.service.database)
            return 200, views.render_profiles(profiles)
        if path.startswith("/history/"):
            ref_no = urllib.parse.unquote(path[len("/history/"):])
            with self.gateway.read_locked():
                rows = self.service.assignment_history(ref_no)
            return 200, views.render_history(ref_no, rows)
        return 404, views.render_message("Not found", f"no page {path!r}")

    def _stats_payload(self) -> dict:
        """Gateway counters, plus replication state when a replicator is
        attached (``replica_version``/``primary_version``/staleness)."""
        payload = self.gateway.stats_snapshot()
        if self.replicator is not None:
            payload.update(self.replicator.stats_snapshot())
            payload["replica_of"] = self.replica_of
        return payload

    def _api_get(self, path: str,
                 query_string: str = "") -> tuple[int, str | bytes]:
        """The JSON API's GET routes (bodies are JSON on every path,
        except ``/api/replicate`` which answers with a pickled snapshot
        payload for replica polls)."""
        if path == "/api/stats":
            return 200, json.dumps(self._stats_payload(), sort_keys=True)
        if path == "/api/replicate":
            query = urllib.parse.parse_qs(query_string)
            base: int | None = None
            if "base" in query:
                try:
                    base = int(query["base"][0])
                except ValueError as exc:
                    return 400, _json_error("Bad request", exc)
            return 200, pickle.dumps(
                self.gateway.replication_payload(base))
        if path.startswith("/api/suggest/"):
            ref_no = urllib.parse.unquote(path[len("/api/suggest/"):])
            try:
                view = self.gateway.suggest(ref_no)
            except (ValueError, ServeError) as exc:
                status, title = _failure_response(exc)
                return status, _json_error(title, exc)
            payload = {
                "ref_no": view.bundle.ref_no,
                "part_id": view.bundle.part_id,
                "degraded": view.degraded,
                "top10": view.top10,
                "suggestions": [
                    {"error_code": scored.error_code,
                     "score": round(scored.score, 6)}
                    for scored in view.suggestions.top(SUGGESTION_COUNT)],
                "all_codes": view.all_codes,
                "confidence": (view.confidence.to_payload()
                               if view.confidence is not None else None),
                "source": view.source,
            }
            return 200, json.dumps(payload, sort_keys=True)
        if path == "/api/review":
            with self.gateway.read_locked():
                entries = self.service.pending_reviews()
                counts = self.service.review_queue.counts()
            payload = {
                "counts": counts,
                "pending": [
                    {"ref_no": entry["ref_no"],
                     "part_id": entry["part_id"],
                     "confidence": round(entry["confidence"], 6),
                     "status": entry["status"],
                     "claimed_by": entry["claimed_by"]}
                    for entry in entries],
            }
            return 200, json.dumps(payload, sort_keys=True)
        if path == "/api/profiles":
            with self.gateway.read_locked():
                profiles = part_profiles(self.service.database)
            return 200, json.dumps(
                {"profiles": [profile.to_payload()
                              for profile in profiles]}, sort_keys=True)
        return 404, _json_error("Not found",
                                ValueError(f"no API route {path!r}"))

    def post(self, path: str, form: dict[str, str]) -> tuple[int, str]:
        """Handle a POST; returns (status, body) — JSON for ``/api/...``
        routes, HTML otherwise.  Every failure the gateway or service can
        raise maps through :func:`_failure_response`, the same table the
        GET routes use."""
        if self.replica_of is not None:
            # Read replicas own no authoritative state: every write is
            # refused up front, before touching the gateway, and the
            # caller is pointed at the primary.
            exc = ReplicaWriteError(
                f"read replica: writes must go to the primary at "
                f"{self.replica_of}")
            status, title = _failure_response(exc)
            if _is_json_path(path):
                return status, _json_error(title, exc)
            return status, views.render_message(title, str(exc))
        if path == "/assign" or path == "/api/assign":
            as_json = path.startswith("/api/")
            ref_no = form.get("ref_no", "")
            error_code = form.get("error_code", "")
            try:
                self.gateway.assign(self.current_user, ref_no, error_code)
            except (PermissionError_, ValueError, ServeError,
                    IntegrityError) as exc:
                status, title = _failure_response(exc)
                if as_json:
                    return status, _json_error(title, exc)
                return status, views.render_message(title, str(exc))
            if as_json:
                return 200, json.dumps(
                    {"status": "assigned", "ref_no": ref_no,
                     "error_code": error_code}, sort_keys=True)
            return 200, views.render_message(
                "Assigned", f"{error_code} assigned to {ref_no}.")
        if path == "/override" or path == "/api/override":
            as_json = path.startswith("/api/")
            ref_no = form.get("ref_no", "")
            error_code = form.get("error_code", "")
            try:
                record = self.gateway.override(self.current_user, ref_no,
                                               error_code,
                                               form.get("reason", ""))
            except (PermissionError_, ValueError, ServeError,
                    IntegrityError) as exc:
                status, title = _failure_response(exc)
                if as_json:
                    return status, _json_error(title, exc)
                return status, views.render_message(title, str(exc))
            if as_json:
                return 200, json.dumps(
                    {"status": "overridden", "ref_no": ref_no,
                     "error_code": error_code,
                     "override_id": record["override_id"]}, sort_keys=True)
            return 200, views.render_message(
                "Overridden", f"{ref_no} pinned to {error_code}.")
        if path == "/review" or path == "/api/review":
            as_json = path.startswith("/api/")
            action = form.get("action", "")
            ref_no = form.get("ref_no", "")
            try:
                if action == "claim":
                    entry = self.gateway.claim_review(self.current_user,
                                                      ref_no or None)
                    result = {"status": "claimed",
                              "ref_no": entry["ref_no"] if entry else None}
                elif action == "resolve":
                    self.gateway.resolve_review(self.current_user, ref_no,
                                                form.get("resolution", ""),
                                                form.get("error_code")
                                                or None,
                                                form.get("reason", ""))
                    result = {"status": "resolved", "ref_no": ref_no}
                else:
                    raise ValueError(f"unknown review action {action!r}")
            except (PermissionError_, ValueError, ServeError,
                    IntegrityError) as exc:
                status, title = _failure_response(exc)
                if as_json:
                    return status, _json_error(title, exc)
                return status, views.render_message(title, str(exc))
            if as_json:
                return 200, json.dumps(result, sort_keys=True)
            if result["ref_no"] is None:
                return 200, views.render_message(
                    "Review queue", "No pending reviews to claim.")
            return 200, views.render_message(
                "Review queue",
                f"{result['ref_no']} {result['status']}.")
        if path == "/codes/new":
            try:
                self.gateway.define_error_code(self.current_user,
                                               form.get("error_code", ""),
                                               form.get("part_id", ""),
                                               form.get("description", ""))
            except (PermissionError_, ValueError, ServeError,
                    IntegrityError) as exc:
                status, title = _failure_response(exc)
                return status, views.render_message(title, str(exc))
            return 200, views.render_message(
                "Created", f"error code {form.get('error_code')} created.")
        return 404, views.render_message("Not found", f"no action {path!r}")


class _HeaderDeadlineError(TimeoutError):
    """The request head dribbled past :data:`HEADER_TIMEOUT` (slowloris).

    Subclasses :class:`TimeoutError` so the stdlib handler's existing
    timeout path closes the connection without a response — exactly what
    an idle-timeout expiry does today.
    """


class _DeadlineReader:
    """Buffered read side of a handler socket with per-phase deadlines.

    Replaces the ``makefile``-based ``rfile``: the stdlib's buffered
    reader applies the socket timeout per ``recv``, so a client dribbling
    the request head byte-by-byte resets the clock on every byte.  This
    reader drives ``recv`` itself and distinguishes three phases:

    * **idle** — waiting for the first byte of the next request; a
      timeout here is the ordinary keep-alive idle close (no shed).
    * **head** — the first byte has arrived; the rest of the request
      line and headers must land within ``header_timeout`` *total*.
      Expiry sheds the connection (counted via *on_slow_shed*) by
      raising :class:`_HeaderDeadlineError`.
    * **body** — headers are parsed; reads revert to the plain
      per-``recv`` idle timeout the transport always used.

    Implements the ``readline(limit)``/``read(n)`` subset
    ``BaseHTTPRequestHandler`` and ``http.client.parse_headers`` use.
    """

    def __init__(self, sock, idle_timeout: float, header_timeout: float,
                 on_slow_shed) -> None:
        self._sock = sock
        self._idle_timeout = idle_timeout
        self._header_timeout = header_timeout
        self._on_slow_shed = on_slow_shed
        self._buffer = bytearray()
        self._phase = "body"
        self._deadline = 0.0

    def begin_request(self) -> None:
        """Arm the idle phase for the next request on this connection."""
        self._phase = "idle"

    def end_head(self) -> None:
        """Headers are parsed: drop back to plain idle-timeout reads.

        Also restores the socket timeout, so the response write that
        follows is not bounded by whatever sliver of the header deadline
        the last ``recv`` left behind (``settimeout`` is bidirectional).
        """
        self._phase = "body"
        self._sock.settimeout(self._idle_timeout)

    def _recv(self) -> bytes:
        if self._phase == "head":
            remaining = self._deadline - time.monotonic()
            if remaining <= 0:
                self._on_slow_shed()
                raise _HeaderDeadlineError("request head incomplete after "
                                           f"{self._header_timeout:g}s")
            self._sock.settimeout(remaining)
            try:
                return self._sock.recv(65536)
            except TimeoutError:
                self._on_slow_shed()
                raise _HeaderDeadlineError(
                    "request head incomplete after "
                    f"{self._header_timeout:g}s") from None
        self._sock.settimeout(self._idle_timeout)
        chunk = self._sock.recv(65536)
        if chunk and self._phase == "idle":
            self._phase = "head"
            self._deadline = time.monotonic() + self._header_timeout
        return chunk

    def readline(self, limit: int = -1) -> bytes:
        while True:
            index = self._buffer.find(b"\n")
            if index >= 0:
                end = index + 1
                if 0 <= limit < end:
                    end = limit
                line = bytes(self._buffer[:end])
                del self._buffer[:end]
                return line
            if 0 <= limit <= len(self._buffer):
                line = bytes(self._buffer[:limit])
                del self._buffer[:limit]
                return line
            chunk = self._recv()
            if not chunk:
                line = bytes(self._buffer)
                self._buffer.clear()
                return line
            self._buffer += chunk

    def read(self, size: int = -1) -> bytes:
        if size < 0:
            while True:
                chunk = self._recv()
                if not chunk:
                    break
                self._buffer += chunk
            data = bytes(self._buffer)
            self._buffer.clear()
            return data
        while len(self._buffer) < size:
            chunk = self._recv()
            if not chunk:
                break
            self._buffer += chunk
        data = bytes(self._buffer[:size])
        del self._buffer[:size]
        return data

    def close(self) -> None:
        """The handler's ``finish()`` closes rfile; the socket itself is
        owned (and closed) by the server."""


def _make_handler(app: QuestApp, draining: threading.Event,
                  max_requests: int, idle_timeout: float,
                  header_timeout: float) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        #: Without TCP_NODELAY a persistent connection stalls ~40ms per
        #: response: headers and body go out as two small segments and
        #: Nagle holds the second until the delayed ACK arrives.  The
        #: connection-per-request mode never showed this because closing
        #: the socket flushed on FIN.
        disable_nagle_algorithm = True
        #: Socket timeout while waiting for the next request on a
        #: keep-alive connection; hitting it closes the connection.
        timeout = idle_timeout

        def setup(self) -> None:
            super().setup()
            self._requests_served = 0
            # Swap the buffered makefile reader for the deadline-aware
            # one (nothing has been read yet, so no buffered bytes are
            # lost); the makefile object is closed to drop its socket
            # reference — the connection itself stays open.
            self.rfile.close()
            self.rfile = _DeadlineReader(
                self.connection, idle_timeout, header_timeout,
                lambda: app.gateway.stats.count("slow_client_sheds"))

        def handle_one_request(self) -> None:
            self.rfile.begin_request()
            super().handle_one_request()

        def parse_request(self) -> bool:
            # The request line and headers have been consumed by the
            # time the stdlib's parse returns (whether it succeeded or
            # answered 400/414 itself): lift the header deadline before
            # the route handler runs.
            try:
                return super().parse_request()
            finally:
                self.rfile.end_head()

        def _draining(self) -> bool:
            return draining.is_set() or app.gateway.stopping

        def _send(self, status: int, body: str | bytes,
                  content_type: str = "text/html; charset=utf-8",
                  head_only: bool = False) -> None:
            payload = body if isinstance(body, bytes) else \
                body.encode("utf-8")
            self._requests_served += 1
            if self._requests_served >= max_requests or self._draining():
                self.close_connection = True
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            if status in (503, 504):
                self.send_header("Retry-After", "1")
            if status == 405:
                self.send_header("Allow", "GET")
            # Advertise the connection's fate explicitly; keep-alive is
            # only promised when the request's protocol allows it
            # (close_connection is already True for plain HTTP/1.0).
            if self.close_connection:
                self.send_header("Connection", "close")
            else:
                self.send_header("Connection", "keep-alive")
            self.end_headers()
            if not head_only:
                self.wfile.write(payload)

        def _content_type(self, body: str | bytes = "") -> str:
            if isinstance(body, bytes):
                # Only /api/replicate answers bytes: a pickled payload.
                return "application/octet-stream"
            if _is_json_path(self.path):
                return "application/json"
            return "text/html; charset=utf-8"

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            try:
                status, body = app.get(self.path)
            except Exception as exc:
                # An unexpected error must still produce a well-formed,
                # Content-Length'd response; the connection is closed
                # because the failure point is unknown.
                self.close_connection = True
                self._send(500, views.render_message("Internal error",
                                                     str(exc)))
                return
            self._send(status, body, self._content_type(body))

        def do_HEAD(self) -> None:  # noqa: N802 (http.server API)
            # Same status and headers the GET would produce — exact
            # Content-Length included — with no body bytes, so a load
            # balancer can health-check /api/stats without paying for
            # (or desynchronizing on) the payload.
            try:
                status, body = app.get(self.path)
            except Exception as exc:
                self.close_connection = True
                self._send(500, views.render_message("Internal error",
                                                     str(exc)),
                           head_only=True)
                return
            self._send(status, body, self._content_type(body),
                       head_only=True)

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            form, problem = self._read_form()
            as_json = _is_json_path(self.path)
            if problem is not None:
                status, title, message = problem
                body = (_json_error(title, ValueError(message)) if as_json
                        else views.render_message(title, message))
                self._send(status, body, self._content_type())
                return
            try:
                status, body = app.post(
                    urllib.parse.urlsplit(self.path).path, form)
            except Exception as exc:
                self.close_connection = True
                self._send(500, views.render_message("Internal error",
                                                     str(exc)))
                return
            self._send(status, body, self._content_type())

        def _read_form(self):
            """Read and parse the urlencoded request body.

            Returns ``(form, None)`` on success, else ``(None, (status,
            title, message))``.  Under keep-alive the declared body is
            always consumed before answering, so a bad request cannot
            desynchronize the connection; when the declared length is
            missing, malformed or unusable the connection is marked for
            close instead — the framing is unknowable, and serving
            another request off this socket would read garbage.
            """
            raw_length = self.headers.get("Content-Length")
            try:
                length = int(raw_length) if raw_length is not None else None
            except ValueError:
                length = None
            if length is None or length < 0:
                self.close_connection = True
                return None, (400, "Bad request",
                              "missing or malformed Content-Length")
            if length > MAX_BODY_BYTES:
                self.close_connection = True
                return None, (413, "Payload too large",
                              f"declared body of {length} bytes exceeds "
                              f"the {MAX_BODY_BYTES}-byte limit")
            raw = self.rfile.read(length)
            if len(raw) < length:
                self.close_connection = True
                return None, (400, "Bad request",
                              "request body shorter than its "
                              "Content-Length")
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                # The body was fully consumed, so the connection stays
                # in sync and can serve the next request.
                return None, (400, "Bad request",
                              "request body is not valid UTF-8")
            form = {key: values[0] for key, values
                    in urllib.parse.parse_qs(text).items()}
            return form, None

        def log_message(self, format: str, *args) -> None:
            pass  # keep test output clean

    return Handler


class _QuestHTTPServer(ThreadingHTTPServer):
    #: The stdlib default listen backlog of 5 drops SYNs when a pooled
    #: client opens its connections in one burst; the dropped SYN is
    #: retransmitted a full second later, which reads as a mysterious
    #: ~1000ms tail latency on an otherwise idle server.
    request_queue_size = 128


class QuestServer:
    """Threaded HTTP/1.1 server wrapper with keep-alive connections and
    clean startup/drained shutdown."""

    def __init__(self, app: QuestApp, host: str = "127.0.0.1",
                 port: int = 0, *,
                 max_requests_per_connection: int =
                 MAX_REQUESTS_PER_CONNECTION,
                 idle_timeout: float = KEEPALIVE_IDLE_TIMEOUT,
                 header_timeout: float = HEADER_TIMEOUT) -> None:
        self.app = app
        #: Set at the start of ``stop()``: every response sent from then
        #: on carries ``Connection: close``, so persistent connections
        #: fall away instead of pinning the drain on their idle timeout.
        self._draining = threading.Event()
        handler = _make_handler(app, self._draining,
                                max_requests_per_connection, idle_timeout,
                                header_timeout)
        self._server = _QuestHTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port)."""
        return self._server.server_address[:2]

    def start(self) -> None:
        """Serve in a background thread (and warm the gateway's pool)."""
        self.app.gateway.start()
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        daemon=True)
        self._thread.start()

    def stop(self, grace: float | None = None) -> "DrainReport":
        """Shut down cleanly under in-flight requests.

        Signals the drain (responses switch to ``Connection: close``),
        stops accepting connections, drains the gateway's queue with a
        bounded grace period (queued work is completed or rejected with a
        typed error — never dropped silently), closes the socket and joins
        the serve thread.  Keep-alive connections that stay idle through
        the drain are handled by daemon handler threads and die with
        their idle timeout; they cannot delay this method.  Returns the
        gateway's drain report.
        """
        self._draining.set()             # new responses say Connection: close
        self._server.shutdown()          # stop accepting new connections
        report = self.app.close(grace)   # drain queued + in-flight work
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        return report

    def __enter__(self) -> "QuestServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
