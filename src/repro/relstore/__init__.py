"""Embedded relational store used by QATK for all persistence (§4.5.1).

The paper stores raw report data, the knowledge bases and classification
results in a relational database; this package provides that substrate from
scratch: typed schemas, heap tables, hash / unique / inverted indexes,
predicate queries, grouped aggregates, MVCC transactions and atomic
directory persistence with a write-ahead log.  This Python API is the
store's only front door; there is no SQL text interface.

Quickstart:
    >>> from repro.relstore import Database, Schema, col
    >>> db = Database()
    >>> _ = db.create_table("codes", Schema.build([("code", "text"), ("n", "integer")]))
    >>> _ = db.table("codes").insert({"code": "E12", "n": 3})
    >>> db.table("codes").select(col("code") == "E12")[0]["n"]
    3
"""

from .csv_io import export_csv, import_csv, load_csv_into, table_to_csv
from .database import Database
from .errors import (CorruptionError, IntegrityError, PersistenceError,
                     QueryError, RelStoreError, SchemaError,
                     TransactionConflictError, TransactionError, WalError)
from .index import HashIndex, InvertedIndex, UniqueIndex
from .persist import (RecoveryReport, checkpoint, load_database,
                      open_database, recover_database, save_database)
from .predicate import ALWAYS, Like, Predicate, col
from .table import Table
from .types import Column, ColumnType, Schema
from .wal import WriteAheadLog

__all__ = [
    "ALWAYS",
    "Column",
    "ColumnType",
    "CorruptionError",
    "Database",
    "HashIndex",
    "IntegrityError",
    "Like",
    "InvertedIndex",
    "PersistenceError",
    "Predicate",
    "QueryError",
    "RecoveryReport",
    "RelStoreError",
    "Schema",
    "SchemaError",
    "Table",
    "TransactionConflictError",
    "TransactionError",
    "UniqueIndex",
    "WalError",
    "WriteAheadLog",
    "checkpoint",
    "col",
    "export_csv",
    "import_csv",
    "load_csv_into",
    "load_database",
    "open_database",
    "recover_database",
    "save_database",
    "table_to_csv",
]
