"""Typed errors of the serving gateway.

All serving failures are :class:`ServeError` subclasses so transports can
map them to protocol responses in one place (the web app maps
:class:`QueueFullError` and :class:`GatewayStoppedError` to HTTP 503 and
:class:`DeadlineExceededError` to HTTP 504).
"""

from __future__ import annotations


class ServeError(Exception):
    """Base class for serving-gateway failures."""


class QueueFullError(ServeError):
    """Admission control rejected the request: the bounded request queue is
    at capacity.  The caller should back off and retry (HTTP 503)."""


class DeadlineExceededError(ServeError):
    """The request's deadline expired before a worker produced a result.

    Raised both to the waiting caller and recorded on the request so a
    worker that dequeues it later skips the dead work (HTTP 504).
    """


class GatewayStoppedError(ServeError):
    """The gateway is shutting down (or stopped) and no longer accepts or
    completes requests; queued work rejected during drain carries this."""
