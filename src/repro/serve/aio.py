"""Asyncio event-loop transport for the QUEST web application.

:class:`AsyncQuestServer` is a drop-in alternative to the threaded
:class:`~repro.quest.webapp.QuestServer`: same constructor knobs, same
``start()`` / ``stop(grace)`` / ``address`` surface.  Both are I/O
loops over one sans-IO HTTP/1.1 core, :mod:`repro.serve.http11`, and
answer through the same :meth:`~repro.quest.webapp.QuestApp.respond`,
so their wire contract is one implementation, not two copies kept in
step; ``tests/quest/test_keepalive.py`` runs its wire assertions against
both.  The difference is the cost model.  The threaded transport spends
a thread per connection, so a few hundred idle keep-alive sockets
exhaust it; here every connection is a coroutine parked on a single
event loop, and ten thousand idle sockets cost ten thousand small task
objects and nothing else.

The division of labour:

* **Reads run on the loop.**  GET routes are served inline from the
  immutable :class:`~repro.serve.registry.ModelSnapshot` and relstore
  ``read_view()`` snapshots — microseconds of pure-Python work, no
  blocking, no thread hop.
* **Classification and writes go to an executor.**  Suggest GETs
  (``/bundle/…``, ``/api/suggest/…``) wait on the gateway's batcher
  threads and every POST may wait on the gateway's write lock, so they are
  handed off via ``loop.run_in_executor``.  The executor has a thread for
  every request the gateway can hold, plus one, so a request past the
  gateway's bound reaches its admission control (and its 503) at once
  instead of waiting in the executor's own queue.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import socket
import threading
import urllib.parse

from ..quest.webapp import QuestApp
from . import http11

if False:  # pragma: no cover - type-only import, avoids gateway cycle
    from .gateway import DrainReport


def _waits_on_gateway(event) -> bool:
    """Requests that block on the gateway (and so must not run inline
    on the event loop): suggest GETs and every POST."""
    if not isinstance(event, http11.Request):
        return False
    if event.method == "POST":
        return True
    path = urllib.parse.urlsplit(event.target).path
    return path.startswith("/bundle/") or path.startswith("/api/suggest/")


class AsyncQuestServer:
    """Event-loop HTTP/1.1 server with the same surface as the threaded
    :class:`~repro.quest.webapp.QuestServer`.

    The loop runs in one background thread; ``start()`` and ``stop()``
    keep the synchronous call signatures the CLI, the benchmarks and the
    test-suite fixtures already use, so transports swap with one
    constructor change.
    """

    def __init__(self, app: QuestApp, host: str = "127.0.0.1",
                 port: int = 0, *,
                 max_requests_per_connection: int =
                 http11.MAX_REQUESTS_PER_CONNECTION,
                 idle_timeout: float = http11.KEEPALIVE_IDLE_TIMEOUT,
                 header_timeout: float = http11.HEADER_TIMEOUT) -> None:
        self.app = app
        self.max_requests_per_connection = max_requests_per_connection
        self.idle_timeout = idle_timeout
        self.header_timeout = header_timeout
        # Bind in the constructor, like the threaded server, so callers
        # can read ``address`` (and print the URL) before ``start()``.
        self._listen_sock: socket.socket | None = socket.create_server(
            (host, port), backlog=1024)
        self._address = self._listen_sock.getsockname()[:2]
        #: Same drain flag semantics as the threaded server: once set,
        #: every response carries ``Connection: close``.
        self._draining = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        #: Threads that park on blocking gateway calls (suggest joins
        #: the micro-batcher, writes take the write lock).  One more than
        #: the gateway can hold (its queue plus a full batch per batcher
        #: thread), so the executor never becomes a second, unbounded
        #: admission queue in front of the real one.
        config = app.gateway.config
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=(config.max_queue
                         + config.workers * config.max_batch_size + 1),
            thread_name_prefix="aio-gateway")

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port)."""
        return self._address

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self) -> None:
        """Bind, then serve on a background event-loop thread (and start
        the gateway's batcher threads), mirroring ``QuestServer.start()``."""
        self.app.gateway.start()
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.call_soon(started.set)
            self._loop.run_forever()

        self._thread = threading.Thread(target=run, daemon=True,
                                        name="aio-serve")
        self._thread.start()
        started.wait(timeout=10)
        future = asyncio.run_coroutine_threadsafe(self._bind(), self._loop)
        future.result(timeout=10)

    async def _bind(self) -> None:
        sock, self._listen_sock = self._listen_sock, None
        self._server = await asyncio.start_server(
            self._handle_connection, sock=sock)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # Same rationale as the threaded transport: without NODELAY
            # a keep-alive response stalls ~40ms on Nagle + delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stats = self.app.gateway.stats
        conn = http11.Connection(
            self.max_requests_per_connection, self.idle_timeout,
            self.header_timeout, lambda: stats.count("slow_client_sheds"))
        try:
            while True:
                event = conn.next_event()
                if event is http11.NEED_DATA:
                    try:
                        conn.receive_data(await asyncio.wait_for(
                            reader.read(http11.READ_SIZE),
                            conn.read_timeout()))
                    except TimeoutError:
                        conn.timed_out()
                    continue
                if event is http11.CLOSED:
                    return
                if event is http11.CONTINUE:
                    writer.write(event)
                else:
                    writer.write(conn.send(await self._respond(event),
                                           self._draining.is_set()
                                           or self.app.gateway.stopping))
                await writer.drain()
        except asyncio.CancelledError:
            pass  # stop() cancels the connections that outlive the drain
        except OSError:
            pass  # the peer reset or went away: nothing left to answer
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, event) -> http11.Response:
        if _waits_on_gateway(event):
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, self.app.respond, event)
        # Snapshot reads and protocol errors: non-blocking, microseconds,
        # served straight off the loop.
        return self.app.respond(event)

    def stop(self, grace: float | None = None) -> "DrainReport":
        """Drain-aware shutdown mirroring ``QuestServer.stop()``:
        responses switch to ``Connection: close``, the listener stops
        accepting, the gateway drains with the bounded grace, surviving
        idle connections are cancelled, and the loop thread joins.
        Returns the gateway's drain report; idempotent."""
        self._draining.set()
        if self._listen_sock is not None:  # constructed but never started
            self._listen_sock.close()
            self._listen_sock = None
        loop, self._loop = self._loop, None
        if loop is not None:
            asyncio.run_coroutine_threadsafe(
                self._close_listener(), loop).result(timeout=10)
        report = self.app.close(grace)
        if loop is not None:
            asyncio.run_coroutine_threadsafe(
                self._cancel_connections(), loop).result(timeout=10)
            loop.call_soon_threadsafe(loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=10)
                self._thread = None
            loop.close()
        self._executor.shutdown(wait=False, cancel_futures=True)
        return report

    async def _close_listener(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _cancel_connections(self) -> None:
        tasks = [task for task in self._conn_tasks if not task.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def __enter__(self) -> "AsyncQuestServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
