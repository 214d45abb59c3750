"""Relational persistence of bundles and complaints (§4.5.1).

The paper stores "raw data from the industrial source as well as from the
NHTSA ODI source" in relational databases; this module maps the dataclasses
onto :mod:`repro.relstore` tables:

* ``bundles``  — one row per data bundle (structured fields),
* ``reports``  — one row per textual report, keyed by bundle reference,
* ``complaints`` — one row per ODI complaint.
"""

from __future__ import annotations

from typing import Iterable

from ..relstore import Column, ColumnType, Database, Schema, col
from .bundle import DataBundle, Report, ReportSource
from .nhtsa import Complaint

BUNDLE_SCHEMA = Schema.build(
    [
        Column("ref_no", ColumnType.TEXT, nullable=False),
        Column("part_id", ColumnType.TEXT, nullable=False),
        Column("article_code", ColumnType.TEXT, nullable=False),
        ("error_code", ColumnType.TEXT),
        ("responsibility_code", ColumnType.TEXT),
        ("part_description", ColumnType.TEXT),
        ("error_description", ColumnType.TEXT),
    ],
    primary_key="ref_no",
)

REPORT_SCHEMA = Schema.build(
    [
        Column("ref_no", ColumnType.TEXT, nullable=False),
        Column("source", ColumnType.TEXT, nullable=False),
        Column("text", ColumnType.TEXT, nullable=False),
        ("language", ColumnType.TEXT),
    ],
)

COMPLAINT_SCHEMA = Schema.build(
    [
        Column("cmplid", ColumnType.TEXT, nullable=False),
        Column("make", ColumnType.TEXT, nullable=False),
        ("model_year", ColumnType.INTEGER),
        ("component_class", ColumnType.TEXT),
        Column("cdescr", ColumnType.TEXT, nullable=False),
        ("planted_code", ColumnType.TEXT),
    ],
    primary_key="cmplid",
)


def create_raw_tables(database: Database) -> None:
    """Create (if needed) and index the raw-data tables."""
    if not database.has_table("bundles"):
        bundles = database.create_table("bundles", BUNDLE_SCHEMA)
        bundles.create_index("ix_bundles_part", "part_id")
        bundles.create_index("ix_bundles_code", "error_code")
    if not database.has_table("reports"):
        reports = database.create_table("reports", REPORT_SCHEMA)
        reports.create_index("ix_reports_ref", "ref_no")
    if not database.has_table("complaints"):
        complaints = database.create_table("complaints", COMPLAINT_SCHEMA)
        complaints.create_index("ix_complaints_make", "make")


def store_bundles(database: Database, bundles: Iterable[DataBundle]) -> int:
    """Persist *bundles* (and their reports); returns the bundle count."""
    create_raw_tables(database)
    bundles = list(bundles)
    database.table("bundles").insert_many({
        "ref_no": bundle.ref_no,
        "part_id": bundle.part_id,
        "article_code": bundle.article_code,
        "error_code": bundle.error_code,
        "responsibility_code": bundle.responsibility_code,
        "part_description": bundle.part_description,
        "error_description": bundle.error_description,
    } for bundle in bundles)
    database.table("reports").insert_many({
        "ref_no": bundle.ref_no,
        "source": report.source.value,
        "text": report.text,
        "language": report.language,
    } for bundle in bundles for report in bundle.reports)
    return len(bundles)


def load_bundles(database: Database) -> list[DataBundle]:
    """Rebuild :class:`DataBundle` objects from the raw tables."""
    reports_by_ref: dict[str, list[Report]] = {}
    for row in database.table("reports").scan():
        reports_by_ref.setdefault(row["ref_no"], []).append(
            Report(ReportSource.parse(row["source"]), row["text"],
                   row["language"] or "unknown"))
    order = {source: position for position, source in enumerate(ReportSource)}
    bundles = []
    for row in database.table("bundles").scan():
        reports = sorted(reports_by_ref.get(row["ref_no"], ()),
                         key=lambda report: order[report.source])
        bundles.append(DataBundle(
            ref_no=row["ref_no"],
            part_id=row["part_id"],
            article_code=row["article_code"],
            error_code=row["error_code"],
            responsibility_code=row["responsibility_code"],
            reports=reports,
            part_description=row["part_description"] or "",
            error_description=row["error_description"] or "",
        ))
    bundles.sort(key=lambda bundle: bundle.ref_no)
    return bundles


def load_bundle(database: Database, ref_no: str) -> DataBundle | None:
    """Load one bundle by reference number, or None."""
    row = database.table("bundles").select_one(col("ref_no") == ref_no)
    if row is None:
        return None
    order = {source: position for position, source in enumerate(ReportSource)}
    reports = sorted(
        (Report(ReportSource.parse(r["source"]), r["text"],
                r["language"] or "unknown")
         for r in database.table("reports").select(col("ref_no") == ref_no)),
        key=lambda report: order[report.source])
    return DataBundle(
        ref_no=row["ref_no"], part_id=row["part_id"],
        article_code=row["article_code"], error_code=row["error_code"],
        responsibility_code=row["responsibility_code"], reports=reports,
        part_description=row["part_description"] or "",
        error_description=row["error_description"] or "")


def store_complaints(database: Database, complaints: Iterable[Complaint]) -> int:
    """Persist ODI complaints; returns the count."""
    create_raw_tables(database)
    table = database.table("complaints")
    count = 0
    for complaint in complaints:
        table.insert({
            "cmplid": complaint.cmplid,
            "make": complaint.make,
            "model_year": complaint.model_year,
            "component_class": complaint.component_class,
            "cdescr": complaint.cdescr,
            "planted_code": complaint.planted_code,
        })
        count += 1
    return count


def load_complaints(database: Database, make: str | None = None) -> list[Complaint]:
    """Load complaints, optionally restricted to one vehicle make."""
    predicate = col("make") == make if make is not None else None
    table = database.table("complaints")
    rows = table.select(predicate) if predicate is not None else list(table.scan())
    complaints = [Complaint(cmplid=row["cmplid"], make=row["make"],
                            model_year=row["model_year"],
                            component_class=row["component_class"],
                            cdescr=row["cdescr"],
                            planted_code=row["planted_code"])
                  for row in rows]
    complaints.sort(key=lambda complaint: complaint.cmplid)
    return complaints
