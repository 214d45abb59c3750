"""Serving counters and latency percentiles.

One :class:`ServeStats` instance per gateway; every counter mutation takes
a single plain lock (the counters are touched once or twice per request,
far off the classification hot path).  Latencies go into a bounded ring so
a long-running server reports *recent* percentiles instead of averaging
over its whole life.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from fractions import Fraction

#: How many recent request latencies feed the percentile estimates.
LATENCY_WINDOW = 4096

#: Every counter of :class:`ServeStats`, in ``snapshot()`` order.  Each
#: name is an attribute (starting at 0) and a ``snapshot()`` key; adding a
#: counter is one line here.
COUNTERS = (
    "submitted",          # requests offered to admission control
    "rejected",           # shed by the bounded queue (503)
    "completed",          # resolved with a suggestion view
    "failed",             # resolved with an error
    "deadline_exceeded",  # expired before/while being served (504)
    "cancelled",          # dropped by shutdown drain
    "batches",            # worker batch executions
    "batched_requests",   # requests processed inside batches
    "retried",            # per-request retries after a worker fault
    "degraded",           # served through the degraded chain
    "memo_hits",          # served from the per-version result memo
    "assignments",        # writes routed through the write lock
    "overrides",          # engineer override pins recorded
    "override_hits",      # suggests answered by a pinned override
    "reviews",            # review-queue claims/resolves routed
    "swaps",              # model-snapshot swaps/bumps observed
    "batch_failures",     # batches rejected by the catch-all guard
    "slow_client_sheds",  # connections shed by the header deadline
)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of *values* (``fraction`` in [0, 1]).

    The rank is ``ceil(fraction * n)`` (at least 1), computed exactly on
    the decimal *fraction* as written: in floats ``0.28 * 25`` is
    ``7.000000000000001``, whose ceiling would skip a rank.

    Returns 0.0 for an empty input so a cold server's ``/stats`` endpoint
    is well-formed.
    """
    if not values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    ordered = sorted(values)
    rank = math.ceil(Fraction(str(fraction)) * len(ordered))
    return ordered[max(1, rank) - 1]


class ServeStats:
    """Thread-safe counters + latency window for one gateway."""

    def __init__(self, window: int = LATENCY_WINDOW) -> None:
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=window)
        for name in COUNTERS:
            setattr(self, name, 0)

    # ------------------------------------------------------------------ #
    # recording

    def count(self, field: str, amount: int = 1) -> None:
        """Add *amount* to one of the counter attributes."""
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    def record_latency(self, seconds: float) -> None:
        """Record one completed request's queue-to-answer latency."""
        with self._lock:
            self._latencies.append(seconds)

    def record_completion(self, seconds: float) -> None:
        """Count one completed request and its latency under ONE lock hold.

        Worker callbacks must use this instead of a ``count("completed")``
        + ``record_latency(...)`` pair: with two separate acquisitions a
        concurrent :meth:`snapshot` (or the drain accounting in
        ``ServeGateway.stop``) can observe the counter without the
        latency — exactly the torn read the stats hammer test pins down.
        """
        with self._lock:
            self.completed += 1
            self._latencies.append(seconds)

    def resolved_total(self) -> int:
        """``completed + failed`` read atomically (drain accounting uses
        this; reading the attributes back-to-back without the lock can
        tear against a concurrent worker callback)."""
        with self._lock:
            return self.completed + self.failed

    # ------------------------------------------------------------------ #
    # reporting

    def latency_ms(self, fraction: float) -> float:
        """A latency percentile over the recent window, in milliseconds."""
        with self._lock:
            values = list(self._latencies)
        return percentile(values, fraction) * 1000.0

    def snapshot(self) -> dict:
        """A point-in-time dict of every counter plus p50/p95/p99 (ms)."""
        with self._lock:
            values = list(self._latencies)
            counters = {name: getattr(self, name) for name in COUNTERS}
        counters["mean_batch_size"] = (
            round(counters["batched_requests"] / counters["batches"], 3)
            if counters["batches"] else 0.0)
        counters["p50_ms"] = round(percentile(values, 0.50) * 1000.0, 4)
        counters["p95_ms"] = round(percentile(values, 0.95) * 1000.0, 4)
        counters["p99_ms"] = round(percentile(values, 0.99) * 1000.0, 4)
        return counters

    def __repr__(self) -> str:
        return (f"<ServeStats submitted={self.submitted} "
                f"completed={self.completed} rejected={self.rejected}>")
