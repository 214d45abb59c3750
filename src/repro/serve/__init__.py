"""repro.serve — the concurrent serving gateway (queue, batcher, workers).

The layer between transports (web app, CLI, load generator) and the QUEST
service: bounded admission control, dynamic micro-batching over the
candidate-retrieval cache, a fixed worker pool with deadlines and degraded
fallback, an atomically swappable model registry, one write lock around
relstore transactions, and serving statistics.  See docs/serving.md.
"""

from .errors import (DeadlineExceededError, GatewayStoppedError,
                     QueueFullError, ServeError)
from .gateway import DrainReport, GatewayConfig, ServeGateway
from .httpclient import ClientResponse, HTTPClientError, PooledHTTPClient
from .queue import RequestQueue, SuggestRequest
from .registry import ModelRegistry, ModelSnapshot
from .stats import ServeStats, percentile


def __getattr__(name: str):
    # AsyncQuestServer is exported lazily: aio.py imports the quest
    # webapp at module level, and pulling it in eagerly here would close
    # an import cycle through quest/__init__ for any consumer that
    # imports repro.quest first.
    if name == "AsyncQuestServer":
        from .aio import AsyncQuestServer
        return AsyncQuestServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AsyncQuestServer",
    "ClientResponse",
    "DeadlineExceededError",
    "DrainReport",
    "GatewayConfig",
    "GatewayStoppedError",
    "HTTPClientError",
    "PooledHTTPClient",
    "ModelRegistry",
    "ModelSnapshot",
    "QueueFullError",
    "RequestQueue",
    "ServeError",
    "ServeGateway",
    "ServeStats",
    "SuggestRequest",
    "percentile",
]
