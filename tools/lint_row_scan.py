#!/usr/bin/env python3
"""Fail when a hand-written keyed row lookup scans a relstore table.

Flags a comprehension or generator expression that iterates a table's
``.row_ids()`` and filters on ``.get(...)[...]``, e.g.::

    next(rid for rid in table.row_ids() if table.get(rid)["ref_no"] == ref)

That reads every row of the table to find one.  ``Table.row_ids_where``
answers the same question through the table's index when there is one
(and with a scan when there is not), so the lookup belongs there.  The
relstore package itself is exempt, as is the allowlisted no-index
reference path.  Run via ``make lint``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Qualified names of functions allowed to scan: the knowledge base's
#: deliberate no-index reference path for candidate retrieval.
ALLOWLIST = frozenset({"KnowledgeBase.candidates_from_store"})

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_method_call(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name)


def _reads_row_field(condition: ast.AST) -> bool:
    """Whether *condition* contains a ``<x>.get(...)[...]`` subscript."""
    return any(isinstance(node, ast.Subscript)
               and _is_method_call(node.value, "get")
               for node in ast.walk(condition))


def _scans_rows(node: ast.AST) -> bool:
    return isinstance(node, _COMPREHENSIONS) and any(
        _is_method_call(generator.iter, "row_ids")
        and any(_reads_row_field(condition) for condition in generator.ifs)
        for generator in node.generators)


class _Finder(ast.NodeVisitor):
    def __init__(self) -> None:
        self.scope: list[str] = []
        self.hits: list[tuple[int, str]] = []

    def _visit_scope(self, node: ast.AST) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _visit_scope

    def generic_visit(self, node: ast.AST) -> None:
        if _scans_rows(node):
            qualname = ".".join(self.scope)
            if qualname not in ALLOWLIST:
                self.hits.append((node.lineno, qualname or "<module>"))
        super().generic_visit(node)


def find_row_scans(root: Path) -> list[str]:
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if "relstore" in path.relative_to(root).parts:
            continue
        finder = _Finder()
        finder.visit(ast.parse(path.read_text(encoding="utf-8"),
                               filename=str(path)))
        offenders.extend(f"{path}:{line}: {qualname} scans .row_ids() for a "
                         f"keyed lookup" for line, qualname in finder.hits)
    return offenders


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path("src/repro")
    offenders = find_row_scans(root)
    for offender in offenders:
        print(offender)
    if offenders:
        print(f"{len(offenders)} row scan(s); use Table.row_ids_where(...) "
              f"so the lookup can use an index.")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
