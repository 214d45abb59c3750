"""A minimal QUEST web application and its threaded HTTP/1.1 server.

Substitute for the paper's PrimeFaces/WSO2 stack (§4.5.4): the same
user-visible functions — bundle list, top-10 suggestion screen with
full-list fallback, error-code assignment, custom code creation, user
list, and the cross-source comparison — served as plain HTML, plus a
machine-readable JSON API (``/api/suggest/<ref>``, ``/api/assign``,
``/api/stats``) for programmatic clients.

:class:`QuestApp` holds the routes and delegates all logic to the
serving gateway (:class:`~repro.serve.ServeGateway`) and the pure view
functions.  The gateway owns queueing, micro-batching, deadlines and
the write lock; read-only screens pin an MVCC read view of the store so
a concurrent write can never produce a torn read.
Overload surfaces as HTTP 503 (queue full / shutdown) and 504 (deadline
exceeded), and the live counters are served as JSON on ``/stats`` and
``/api/stats``.  :meth:`QuestApp.respond` answers one event of the
HTTP/1.1 core (:mod:`repro.serve.http11`), protocol errors included.

:class:`QuestServer` is one of the two transports over that core: a
thread per connection feeds it what ``recv`` reads and writes what it
answers with ``sendall``.  Keep-alive, body framing, limits, deadlines
and response headers are the core's; the event-loop transport is
:class:`~repro.serve.aio.AsyncQuestServer`.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import urllib.parse
from typing import TYPE_CHECKING

from ..data.schema import load_bundles
from ..relstore.errors import IntegrityError
# Only leaf serve modules at import time (errors, http11):
# repro.serve.gateway imports the quest service layer, so pulling the
# gateway in here would close an import cycle through quest/__init__.
# The gateway class itself is imported lazily in QuestApp.__init__.
from ..serve import http11
from ..serve.errors import (DeadlineExceededError, GatewayStoppedError,
                            QueueFullError, ServeError)
from ..triage import part_profiles
from .compare import ComparisonView
from .errors import DegradedServiceError, UnknownBundleError
from .service import SUGGESTION_COUNT, QuestService
from .users import PermissionError_, User, UserStore
from . import views

if TYPE_CHECKING:
    from ..serve.gateway import DrainReport, ServeGateway

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


def _content_type(path: str) -> str:
    if _is_json_path(path):
        return "application/json"
    return "text/html; charset=utf-8"


class QuestApp:
    """Bundles the gateway, users and (optional) comparison for serving."""

    def __init__(self, service: QuestService, users: UserStore,
                 current_user: User,
                 comparison: ComparisonView | None = None,
                 gateway: "ServeGateway | None" = None,
                 gateway_config=None) -> None:
        self.service = service
        self.users = users
        self.current_user = current_user
        self.comparison = comparison
        if gateway is None:
            from ..serve.gateway import ServeGateway
            gateway = ServeGateway(service, gateway_config)
        #: The serving gateway all suggest/assign traffic goes through.
        #: A default one (its batcher threads start on first use) is built
        #: when none is given; *gateway_config* tunes it (e.g. ``workers``
        #: or ``max_queue``) without the caller having to construct the
        #: gateway itself.
        self.gateway = gateway

    def close(self, grace: float | None = None) -> "DrainReport":
        """Drain and stop the gateway; returns its drain report."""
        return self.gateway.stop(grace)

    # ------------------------------------------------------------------ #
    # request-level operations (transport-independent, unit-testable)

    def get(self, path: str) -> tuple[int, str]:
        """Handle a GET; returns (status, body).  *path* may carry a query
        string (used by /search?q=...).  ``/stats`` and ``/api/...``
        return JSON, every other route HTML."""
        parts = urllib.parse.urlsplit(path)
        path, query_string = parts.path, parts.query
        if path == "/" or path == "/bundles":
            # Read-only screens pin one committed MVCC snapshot, so a
            # concurrent POST /assign cannot produce a torn bundle list
            # (and neither side waits for the other).
            with self.service.database.read_view():
                bundles = load_bundles(self.service.database)
            return 200, views.render_bundle_list(bundles)
        if path.startswith("/api/"):
            return self._api_get(path)
        if path.startswith("/bundle/"):
            ref_no = urllib.parse.unquote(path[len("/bundle/"):])
            try:
                view = self.gateway.suggest(ref_no)
            except (ValueError, ServeError) as exc:
                status, title = _failure_response(exc)
                return status, views.render_message(title, str(exc))
            return 200, views.render_suggestions(view)
        if path == "/stats":
            return 200, json.dumps(self.gateway.stats_snapshot(),
                                   sort_keys=True)
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
            with self.service.database.read_view():
                matches = self.service.search_bundles(query)
            return 200, views.render_bundle_list(matches)
        if path == "/review":
            with self.service.database.read_view():
                entries = self.service.pending_reviews()
                counts = self.service.review_queue.counts()
            return 200, views.render_review(entries, counts)
        if path == "/profiles":
            with self.service.database.read_view():
                profiles = part_profiles(self.service.database)
            return 200, views.render_profiles(profiles)
        if path.startswith("/history/"):
            ref_no = urllib.parse.unquote(path[len("/history/"):])
            with self.service.database.read_view():
                rows = self.service.assignment_history(ref_no)
            return 200, views.render_history(ref_no, rows)
        return 404, views.render_message("Not found", f"no page {path!r}")

    def _api_get(self, path: str) -> tuple[int, str]:
        """The JSON API's GET routes (bodies are JSON on every path)."""
        if path == "/api/stats":
            return 200, json.dumps(self.gateway.stats_snapshot(),
                                   sort_keys=True)
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
            with self.service.database.read_view():
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
            with self.service.database.read_view():
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

    def respond(self, event: http11.Request | http11.ProtocolError
                ) -> http11.Response:
        """Answer one request event of the HTTP/1.1 core.

        The dispatch both transports share.  GET and HEAD go to
        :meth:`get`, POST bodies are parsed as urlencoded forms for
        :meth:`post`, and a protocol error renders like an app error:
        JSON on API paths, a page elsewhere.  An unexpected exception
        still gets a well-formed 500, which closes the connection
        because the failure point is unknown.
        """
        if isinstance(event, http11.ProtocolError):
            if _is_json_path(event.target):
                body = _json_error(event.title, ValueError(event.message))
            else:
                body = views.render_message(event.title, event.message)
            return http11.Response(event.status, body,
                                   _content_type(event.target))
        try:
            if event.method == "POST":
                form = {key: values[0] for key, values
                        in urllib.parse.parse_qs(event.body).items()}
                status, body = self.post(
                    urllib.parse.urlsplit(event.target).path, form)
            else:
                status, body = self.get(event.target)
        except Exception as exc:
            return http11.Response(
                500, views.render_message("Internal error", str(exc)),
                "text/html; charset=utf-8", close=True)
        return http11.Response(status, body,
                               _content_type(event.target))


class _ThreadingServer(socketserver.ThreadingTCPServer):
    """Accepts connections and runs each on its own daemon thread."""

    #: The stdlib default listen backlog of 5 drops SYNs when a pooled
    #: client opens its connections in one burst; the dropped SYN is
    #: retransmitted a full second later, which reads as a mysterious
    #: ~1000ms tail latency on an otherwise idle server.
    request_queue_size = 128
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], serve_connection) -> None:
        self._serve_connection = serve_connection
        super().__init__(address, None)

    def finish_request(self, request, client_address) -> None:
        self._serve_connection(request)


class QuestServer:
    """Threaded HTTP/1.1 server: keep-alive connections through the
    sans-IO core, clean startup and drained shutdown."""

    def __init__(self, app: QuestApp, host: str = "127.0.0.1",
                 port: int = 0, *,
                 max_requests_per_connection: int =
                 http11.MAX_REQUESTS_PER_CONNECTION,
                 idle_timeout: float = http11.KEEPALIVE_IDLE_TIMEOUT,
                 header_timeout: float = http11.HEADER_TIMEOUT) -> None:
        self.app = app
        self._max_requests = max_requests_per_connection
        self._idle_timeout = idle_timeout
        self._header_timeout = header_timeout
        #: Set at the start of ``stop()``: every response sent from then
        #: on carries ``Connection: close``, so persistent connections
        #: fall away instead of pinning the drain on their idle timeout.
        self._draining = threading.Event()
        self._server = _ThreadingServer((host, port), self._serve_connection)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port)."""
        return self._server.server_address[:2]

    def _serve_connection(self, sock: socket.socket) -> None:
        """One keep-alive connection: feed what ``recv`` reads into the
        HTTP/1.1 core and ``sendall`` what it answers."""
        # Without TCP_NODELAY a persistent connection stalls ~40ms per
        # response: Nagle holds a small write until the delayed ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stats = self.app.gateway.stats
        conn = http11.Connection(
            self._max_requests, self._idle_timeout, self._header_timeout,
            lambda: stats.count("slow_client_sheds"))
        try:
            while True:
                event = conn.next_event()
                if event is http11.NEED_DATA:
                    sock.settimeout(conn.read_timeout())
                    try:
                        conn.receive_data(sock.recv(http11.READ_SIZE))
                    except TimeoutError:
                        conn.timed_out()
                    continue
                if event is http11.CLOSED:
                    return
                if event is http11.CONTINUE:
                    data = event
                else:
                    data = conn.send(self.app.respond(event),
                                     self._draining.is_set()
                                     or self.app.gateway.stopping)
                sock.settimeout(self._idle_timeout)
                sock.sendall(data)
        except OSError:
            return  # the peer reset or went away: nothing left to answer

    def start(self) -> None:
        """Serve in a background thread (and start the gateway's batcher
        threads)."""
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
