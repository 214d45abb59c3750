"""A sans-IO HTTP/1.1 server connection: the one wire contract of QUEST.

In the style of h11 (https://h11.readthedocs.io), written in-repo on the
standard library alone.  The module does no I/O.  A transport reads
from its socket and feeds the bytes to
:meth:`Connection.receive_data`; :meth:`Connection.next_event` says what
happened (a complete :class:`Request`, a :class:`ProtocolError` to
answer, the interim :data:`CONTINUE` to write, :data:`NEED_DATA` or
:data:`CLOSED`); and :meth:`Connection.send` turns the app's
:class:`Response` into the bytes to write.  The threaded
:class:`~repro.quest.webapp.QuestServer` and the event-loop
:class:`~repro.serve.aio.AsyncQuestServer` are both such transports, so
every wire decision below is made here and only here:

* **Request heads.**  A request line is ``METHOD target HTTP/1.x``;
  another word count or a malformed version is 400, a well-formed but
  unsupported version (``HTTP/2.0``, ``HTTP/0.9``) is 505.  A request
  line over :data:`MAX_LINE_BYTES` is 414; a longer header line or more
  than :data:`MAX_HEADERS` header fields is 431.  Empty lines before a
  request line are skipped (RFC 9112 §2.2).  Methods other than GET,
  HEAD and POST are 501.
* **Body framing.**  ``Transfer-Encoding`` of any kind is 501, and
  ``Content-Length`` values that disagree are 400: a front proxy that
  frames the request differently would otherwise smuggle a second
  request past it.  A POST without a usable ``Content-Length`` is 400, a
  declared body over :data:`MAX_BODY_BYTES` is 413, and EOF before the
  declared length is 400.  Each of these closes the connection, because
  the next request's first byte is unknowable.  A body that is not
  UTF-8 is 400 too, but it was read in full, so the connection stays
  usable.  ``Expect: 100-continue`` is answered with :data:`CONTINUE`
  before the body is read.
* **Keep-alive.**  HTTP/1.1 persists unless the client sends
  ``Connection: close``; HTTP/1.0 closes unless it sends ``Connection:
  keep-alive``.  The response that reaches the per-connection request cap,
  or that is sent while the server drains, says ``Connection: close``.
  Every response carries an exact ``Content-Length`` and an explicit
  ``Connection`` header; 503/504 carry ``Retry-After`` and 405 ``Allow``.
* **Deadlines.**  Between requests the connection is *idle*: a read
  that waits ``idle_timeout`` ends it quietly.  The first byte of a
  request starts the *head* phase: the rest of the request line and
  headers must arrive within ``header_timeout`` in total, however the
  bytes are dribbled.  Missing that deadline sheds the connection and
  reports it through ``on_slow_shed`` (the ``slow_client_sheds``
  counter).  While the *body* arrives, each read again waits up to
  ``idle_timeout``.
"""

from __future__ import annotations

import email.utils
import http
import re
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

#: Upper bound on an accepted request body.  Longer declared bodies are
#: refused with 413 before reading, so one oversized upload cannot pin a
#: keep-alive connection.
MAX_BODY_BYTES = 1 << 20

#: Default cap on requests served over one keep-alive connection; the
#: response that hits the cap carries ``Connection: close``.
MAX_REQUESTS_PER_CONNECTION = 1000

#: Default seconds a keep-alive connection may idle between requests.
KEEPALIVE_IDLE_TIMEOUT = 30.0

#: Once the first byte of a request has arrived, the rest of the request
#: line and headers must arrive within this many seconds.  A per-read
#: idle timeout alone cannot bound this: every dribbled byte restarts
#: it, so a slowloris client sending one byte per second could hold a
#: connection forever, and past the drain grace during ``stop()``.
HEADER_TIMEOUT = 10.0

#: Upper bound on the request line and on any one header line, line
#: ending included.
MAX_LINE_BYTES = 65536

#: Upper bound on the number of header fields in one request head.
MAX_HEADERS = 100

#: How many bytes a transport asks its socket for per read.
READ_SIZE = 65536

#: The methods the app serves; any other is answered 501.
METHODS = frozenset({"GET", "HEAD", "POST"})

_VERSION = re.compile(r"HTTP/[0-9]\.[0-9]")
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")


class _Signal:
    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: :meth:`Connection.next_event`: read more bytes (waiting at most
#: :meth:`Connection.read_timeout`) and feed them in.
NEED_DATA = _Signal("NEED_DATA")

#: :meth:`Connection.next_event`: the connection is done; close it.
CLOSED = _Signal("CLOSED")

#: :meth:`Connection.next_event`: write these bytes as they are; the
#: client asked with ``Expect: 100-continue`` before sending its body.
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


@dataclass(frozen=True)
class Request:
    """One complete request: its head and its whole body."""

    method: str
    target: str
    version: str
    #: Lower-cased field names; a repeated field's values joined by ", ".
    headers: dict[str, str]
    #: The body, decoded as UTF-8 (the app accepts urlencoded forms).
    body: str


@dataclass(frozen=True)
class ProtocolError:
    """A request the core refused before any app code saw it.

    The transport answers it like an app error, with *status* and a page
    (or JSON error, for API targets) built from *title* and *message*.
    """

    status: int
    title: str
    message: str
    #: The request target, or "" when the request line did not parse.
    target: str = ""
    #: Whether the response closes the connection (the framing of what
    #: follows is unknown).
    close: bool = True


class Response(NamedTuple):
    """What the app answers; :meth:`Connection.send` frames it."""

    status: int
    body: str | bytes
    content_type: str
    #: Close the connection after this response whatever keep-alive says.
    close: bool = False


class Connection:
    """The HTTP/1.1 state of one server connection.

    :attr:`phase` is ``idle`` (between requests), ``head`` (a request
    head is arriving), ``body`` (its body is arriving), ``respond`` (an
    event was handed out and :meth:`send` is due) or ``closed``.
    """

    def __init__(self, max_requests: int = MAX_REQUESTS_PER_CONNECTION,
                 idle_timeout: float = KEEPALIVE_IDLE_TIMEOUT,
                 header_timeout: float = HEADER_TIMEOUT,
                 on_slow_shed: Callable[[], object] = lambda: None) -> None:
        self._max_requests = max_requests
        self._idle_timeout = idle_timeout
        self._header_timeout = header_timeout
        self._on_slow_shed = on_slow_shed
        self.phase = "idle"
        self._served = 0
        self._buffer = bytearray()
        #: Start of the bytes not yet parsed in ``_buffer``.
        self._pos = 0
        #: Where the search for the next line ending resumes, so a head
        #: dribbled a byte at a time is scanned once, not once per byte.
        self._scan = 0
        self._eof = False
        self._deadline = 0.0
        self._start_request()

    def _start_request(self) -> None:
        self._request_line: tuple[str, str, str] | None = None
        self._fields: list[tuple[str, str]] = []
        self._headers: dict[str, str] = {}
        self._length = 0
        self._keep_alive = False

    # ------------------------------------------------------------------ #
    # bytes in

    def receive_data(self, data: bytes) -> None:
        """Feed bytes read from the socket; ``b""`` means EOF."""
        if not data:
            self._eof = True
            return
        self._buffer += data
        if self.phase == "idle":
            self._begin_head()

    def _begin_head(self) -> None:
        self.phase = "head"
        self._deadline = time.monotonic() + self._header_timeout

    def read_timeout(self) -> float:
        """Seconds the transport's next read may wait before it times
        out."""
        if self.phase == "head":
            # Floored above zero: a zero timeout would make a blocking
            # socket non-blocking; next_event() enforces a passed deadline.
            return max(self._deadline - time.monotonic(), 1e-3)
        return self._idle_timeout

    def timed_out(self) -> None:
        """The transport's read timed out: the connection is closed.
        Only a head that missed its deadline counts as a slow-client
        shed; an idle connection or a stalled body just ends."""
        if self.phase == "head":
            self._on_slow_shed()
        self.phase = "closed"

    # ------------------------------------------------------------------ #
    # events out

    def next_event(self):
        """The next event: :data:`NEED_DATA`, :data:`CLOSED`,
        :data:`CONTINUE`, a :class:`Request` or a :class:`ProtocolError`.
        After a request or protocol error, :meth:`send` must answer it
        before the next call."""
        if self.phase == "closed":
            return CLOSED
        if self.phase == "respond":
            raise RuntimeError("next_event() before the response was sent")
        if self.phase != "body":
            event = self._parse_head()
            if event is not None:
                return event
        return self._read_body()

    def _parse_head(self):
        """Consume complete head lines; ``None`` once the head is parsed
        and the body may follow."""
        while True:
            end = self._buffer.find(b"\n", self._scan)
            if end < 0:
                self._scan = len(self._buffer)
                if len(self._buffer) - self._pos >= MAX_LINE_BYTES:
                    return self._line_too_long()
                if self._eof:
                    # EOF between requests, or mid-head: nothing to answer.
                    self.phase = "closed"
                    return CLOSED
                if self.phase == "head" and time.monotonic() >= self._deadline:
                    self.timed_out()
                    return CLOSED
                return NEED_DATA
            if end + 1 - self._pos > MAX_LINE_BYTES:
                return self._line_too_long()
            line = bytes(self._buffer[self._pos:end]).removesuffix(b"\r")
            self._pos = self._scan = end + 1
            if self._request_line is None:
                if line:
                    refusal = self._parse_request_line(line)
                    if refusal is not None:
                        return refusal
            elif line:
                refusal = self._parse_field(line)
                if refusal is not None:
                    return refusal
            else:
                return self._end_head()

    def _line_too_long(self) -> ProtocolError:
        if self._request_line is None:
            return self._refuse(414, "URI too long", "request line exceeds "
                                f"{MAX_LINE_BYTES} bytes")
        return self._refuse(431, "Request header fields too large",
                            f"header line exceeds {MAX_LINE_BYTES} bytes")

    def _parse_request_line(self, line: bytes) -> ProtocolError | None:
        text = line.decode("iso-8859-1")
        words = text.split()
        if len(words) != 3 or not _VERSION.fullmatch(words[2]):
            return self._refuse(400, "Bad request",
                                f"malformed request line {text!r}")
        if words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            return self._refuse(505, "HTTP version not supported",
                                f"unsupported protocol {words[2]!r}")
        self._request_line = (words[0], words[1], words[2])
        return None

    def _parse_field(self, line: bytes) -> ProtocolError | None:
        if len(self._fields) >= MAX_HEADERS:
            return self._refuse(431, "Request header fields too large",
                                f"more than {MAX_HEADERS} headers")
        name, sep, value = line.decode("iso-8859-1").partition(":")
        if not sep or not _TOKEN.fullmatch(name):
            return self._refuse(400, "Bad request",
                                f"malformed header line {line!r}")
        self._fields.append((name.lower(), value.strip()))
        return None

    def _end_head(self):
        """Settle keep-alive and the body's framing from the parsed head."""
        method, _, version = self._request_line
        headers = self._headers
        for name, value in self._fields:
            headers[name] = (f"{headers[name]}, {value}" if name in headers
                             else value)
        tokens = {token.strip().lower()
                  for token in headers.get("connection", "").split(",")}
        self._keep_alive = ("close" not in tokens
                            and (version == "HTTP/1.1"
                                 or "keep-alive" in tokens))
        if method not in METHODS:
            return self._refuse(501, "Unsupported method",
                                f"method {method!r} is not supported")
        if "transfer-encoding" in headers:
            return self._refuse(501, "Unsupported transfer encoding",
                                "Transfer-Encoding is not supported; "
                                "send a Content-Length")
        declared = headers.get("content-length")
        if declared is None:
            if method == "POST":
                return self._refuse(400, "Bad request",
                                    "missing or malformed Content-Length")
        else:
            values = {value.strip() for value in declared.split(",")}
            if len(values) > 1:
                return self._refuse(400, "Bad request",
                                    "conflicting Content-Length values")
            value = values.pop()
            if not (value.isascii() and value.isdigit()):
                return self._refuse(400, "Bad request",
                                    "missing or malformed Content-Length")
            self._length = int(value)
        if self._length > MAX_BODY_BYTES:
            return self._refuse(413, "Payload too large",
                                f"declared body of {self._length} bytes "
                                f"exceeds the {MAX_BODY_BYTES}-byte limit")
        self.phase = "body"
        if (self._length > len(self._buffer) - self._pos
                and version == "HTTP/1.1"
                and headers.get("expect", "").lower() == "100-continue"):
            return CONTINUE
        return None

    def _read_body(self):
        if len(self._buffer) - self._pos < self._length:
            if self._eof:
                return self._refuse(400, "Bad request",
                                    "request body shorter than its "
                                    "Content-Length")
            return NEED_DATA
        end = self._pos + self._length
        raw = bytes(self._buffer[self._pos:end])
        del self._buffer[:end]
        self._pos = self._scan = 0
        self.phase = "respond"
        try:
            body = raw.decode("utf-8")
        except UnicodeDecodeError:
            # The body was consumed in full: the connection stays in sync.
            return self._refuse(400, "Bad request",
                                "request body is not valid UTF-8",
                                close=False)
        method, target, version = self._request_line
        return Request(method, target, version, self._headers, body)

    def _refuse(self, status: int, title: str, message: str,
                close: bool = True) -> ProtocolError:
        self.phase = "respond"
        if close:
            self._keep_alive = False
        target = self._request_line[1] if self._request_line else ""
        return ProtocolError(status, title, message, target, close)

    # ------------------------------------------------------------------ #
    # bytes out

    def send(self, response: Response, draining: bool = False) -> bytes:
        """Frame *response* to the pending event; returns the bytes to
        write.  *draining* (the server is stopping) closes the connection
        after this response, as does the request cap."""
        if self.phase != "respond":
            raise RuntimeError("send() without a pending request")
        payload = response.body
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        self._served += 1
        close = (response.close or not self._keep_alive or draining
                 or self._served >= self._max_requests)
        status = response.status
        head = [f"HTTP/1.1 {status} {http.HTTPStatus(status).phrase}\r\n"
                f"Date: {email.utils.formatdate(usegmt=True)}\r\n"
                f"Content-Type: {response.content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"]
        if status in (503, 504):
            head.append("Retry-After: 1\r\n")
        if status == 405:
            head.append("Allow: GET\r\n")
        head.append("Connection: close\r\n\r\n" if close
                    else "Connection: keep-alive\r\n\r\n")
        data = "".join(head).encode("latin-1")
        head_only = (self._request_line is not None
                     and self._request_line[0] == "HEAD")
        if not head_only:
            data += payload
        if close:
            self.phase = "closed"
        else:
            self._start_request()
            if self._buffer:  # pipelined: the next head has begun
                self._begin_head()
            else:
                self.phase = "idle"
        return data
