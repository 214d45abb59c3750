"""Exception hierarchy for the embedded relational store.

All errors raised by :mod:`repro.relstore` derive from :class:`RelStoreError`
so callers can catch storage problems with a single ``except`` clause.
"""

from __future__ import annotations


class RelStoreError(Exception):
    """Base class for every error raised by the relational store."""


class SchemaError(RelStoreError):
    """A table schema is invalid or a value does not fit its column type."""


class IntegrityError(RelStoreError):
    """A uniqueness or not-null constraint would be violated."""


class QueryError(RelStoreError):
    """A query references unknown tables/columns or is otherwise malformed."""


class TransactionError(RelStoreError):
    """A transaction was misused (e.g. nested begin, commit without begin)."""


class TransactionConflictError(TransactionError):
    """A write-write conflict under snapshot isolation.

    Raised when a transaction writes a row that another transaction
    committed after this transaction's snapshot was taken
    (first-committer-wins).  The losing transaction should be rolled
    back and retried on a fresh snapshot.
    """


class PersistenceError(RelStoreError):
    """A database directory could not be written or read back."""


class CorruptionError(PersistenceError):
    """Stored data failed a checksum or is structurally damaged.

    Raised only in strict loading mode; recovery mode quarantines the
    damaged records instead (see :func:`repro.relstore.persist.recover_database`).
    """


class WalError(PersistenceError):
    """The write-ahead log could not be appended to, read, or truncated."""
