"""Snapshot replication: read replicas pulling models from a primary.

Horizontal read scale-out for the serving stack (the ROADMAP's "millions
of users" direction): one **primary** ``QuestServer`` owns every write;
any number of **replica** gateways serve reads from replicated
:class:`~repro.serve.registry.ModelSnapshot`\\ s and refuse writes with
HTTP 405 pointing at the primary.

The wire protocol ships :meth:`~repro.serve.registry.ModelSnapshot.to_payload`
payloads over the pooled keep-alive client:

* a replica polls ``GET /api/replicate?base=<version>`` on the primary
  every ``interval`` seconds (``base`` omitted until the first payload
  lands);
* the primary answers with a pickled **delta** payload
  (:func:`~repro.serve.registry.diff_payloads`) when the replica's base
  version is one of its retained exports, a pickled **full** payload
  otherwise, or a tiny ``{"kind": "current"}`` marker when the replica
  is already at the primary's version;
* the replica applies deltas with
  :func:`~repro.serve.registry.apply_payload_delta`, rebuilds the
  snapshot, and :meth:`~repro.serve.registry.ModelRegistry.install`\\ s
  it — version numbers are the *primary's*, so ``/api/stats`` can report
  convergence (``replica_version`` vs ``primary_version``).

Failure is a first-class state, not an exception path: a replica that
cannot reach its primary keeps serving the last snapshot it holds and
surfaces the gap as ``staleness_seconds`` plus a ``replication_failed``
counter.  A delta that no longer matches the held base (primary
restarted, retention evicted the base) drops the held payload so the
next poll requests a full payload — the replica converges instead of
wedging.

The payloads travel as pickles, so replication assumes the same trust
boundary as the rest of the serving cluster (do not point a replica at
an untrusted primary).

Replication is transport-independent: both ends speak plain HTTP/1.1
through :class:`~repro.serve.PooledHTTPClient`, so a primary or replica
may run on either the threaded ``QuestServer`` or the event-loop
``AsyncQuestServer`` (``serve --transport=async``) in any combination —
the async primary serves ``/api/replicate`` straight off its event loop.
"""

from __future__ import annotations

import pickle
import threading
import time

from .errors import SnapshotPayloadError
from .httpclient import HTTPClientError, PooledHTTPClient
from .registry import ModelRegistry, ModelSnapshot, apply_payload_delta

#: Default seconds between replica polls of the primary.
REPLICATION_INTERVAL = 1.0

#: Default per-poll request timeout (seconds).
REPLICATION_TIMEOUT = 5.0


class SnapshotReplicator:
    """Background poller keeping one replica registry in sync.

    Args:
        registry: the replica's :class:`ModelRegistry`; every applied
            payload is installed here (the serving gateway reads it).
        primary_url: base URL of the primary gateway, e.g.
            ``http://primary:8080``.
        interval: seconds between polls of ``/api/replicate``.
        timeout: per-poll socket timeout.
        client: a shared :class:`PooledHTTPClient`; one is created (and
            owned, i.e. closed by :meth:`stop`) when omitted.
    """

    def __init__(self, registry: ModelRegistry, primary_url: str, *,
                 interval: float = REPLICATION_INTERVAL,
                 timeout: float = REPLICATION_TIMEOUT,
                 client: PooledHTTPClient | None = None) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.registry = registry
        self.primary_url = primary_url.rstrip("/")
        self.interval = interval
        self.timeout = timeout
        self._own_client = client is None
        self._client = client if client is not None else PooledHTTPClient(
            max_per_host=1, timeout=timeout)
        self._lock = threading.Lock()
        #: The last full payload successfully applied (None until the
        #: first sync); its version is the base we poll with.
        self._payload: dict | None = None
        self._primary_version = 0
        self._last_sync: float | None = None
        self._started_at = time.monotonic()
        self._counters = {"replication_full": 0, "replication_delta": 0,
                          "replication_current": 0, "replication_failed": 0}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # one poll

    def poll_once(self) -> str:
        """Poll the primary once; returns the outcome kind.

        ``"full"``/``"delta"`` — a payload was applied and installed;
        ``"current"`` — already at the primary's version; ``"failed"`` —
        the primary was unreachable or answered garbage (the replica
        keeps its current snapshot either way).
        """
        with self._lock:
            base = (self._payload["version"] if self._payload is not None
                    else None)
        url = self.primary_url + "/api/replicate"
        if base is not None:
            url += f"?base={base}"
        try:
            response = self._client.get(url, timeout=self.timeout)
            if response.status != 200:
                raise HTTPClientError(
                    f"replication poll answered HTTP {response.status}")
            message = pickle.loads(response.body)
            return self._apply_message(message)
        except SnapshotPayloadError:
            # The held base no longer lines up with what the primary
            # serves (restart, retention eviction, format change): drop
            # it so the next poll asks for a full payload.
            with self._lock:
                self._payload = None
                self._counters["replication_failed"] += 1
            return "failed"
        except Exception:
            with self._lock:
                self._counters["replication_failed"] += 1
            return "failed"

    def _apply_message(self, message) -> str:
        """Install one replication response; returns its outcome kind."""
        if not isinstance(message, dict):
            raise SnapshotPayloadError(
                f"replication response is not a payload dict: "
                f"{type(message).__name__}")
        kind = message.get("kind")
        if kind == "current":
            with self._lock:
                self._primary_version = message["version"]
                self._last_sync = time.monotonic()
                self._counters["replication_current"] += 1
            return "current"
        if kind == "delta":
            with self._lock:
                held = self._payload
            if held is None:
                raise SnapshotPayloadError(
                    "primary sent a delta but no base payload is held")
            full = apply_payload_delta(held, message)
        elif kind == "full":
            full = message
        else:
            raise SnapshotPayloadError(
                f"unexpected replication payload kind {kind!r}")
        # Rebuild before installing: a payload that cannot build a
        # snapshot must not clobber the one we are serving.
        snapshot = ModelSnapshot.from_payload(full)
        self.registry.install(snapshot)
        with self._lock:
            self._payload = full
            self._primary_version = full["version"]
            self._last_sync = time.monotonic()
            self._counters["replication_delta" if kind == "delta"
                           else "replication_full"] += 1
        return kind

    # ------------------------------------------------------------------ #
    # the poll loop

    def start(self) -> None:
        """Start the background poll loop (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            self._thread = threading.Thread(target=self._run, daemon=True,
                                            name="snapshot-replicator")
            self._thread.start()

    def _run(self) -> None:
        while True:
            self.poll_once()
            if self._stop.wait(self.interval):
                return

    def stop(self) -> None:
        """Stop the loop and close an owned client (idempotent)."""
        with self._lock:
            thread, self._thread = self._thread, None
        self._stop.set()
        if thread is not None:
            thread.join(timeout=max(self.timeout, self.interval) + 1.0)
        if self._own_client:
            self._client.close()

    def __enter__(self) -> "SnapshotReplicator":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def running(self) -> bool:
        """Whether the poll loop is active."""
        with self._lock:
            return self._thread is not None

    def synced_version(self) -> int:
        """The version of the last applied payload (0 before any sync)."""
        with self._lock:
            return self._payload["version"] if self._payload else 0

    def staleness_seconds(self) -> float:
        """Seconds since the last successful poll (since construction
        when none has succeeded yet) — the replica's staleness bound."""
        with self._lock:
            reference = (self._last_sync if self._last_sync is not None
                         else self._started_at)
        return max(0.0, time.monotonic() - reference)

    def stats_snapshot(self) -> dict:
        """Replication counters + convergence state, merged into the
        replica's ``/api/stats`` payload by the web app."""
        with self._lock:
            payload = {
                "replica_version": (self._payload["version"]
                                    if self._payload else 0),
                "primary_version": self._primary_version,
                "replication_interval": self.interval,
                "replication_running": self._thread is not None,
                **self._counters,
            }
            reference = (self._last_sync if self._last_sync is not None
                         else self._started_at)
        payload["staleness_seconds"] = round(
            max(0.0, time.monotonic() - reference), 3)
        return payload

    def __repr__(self) -> str:
        return (f"<SnapshotReplicator primary={self.primary_url} "
                f"version={self.synced_version()} "
                f"interval={self.interval:g}s>")
