"""The row-scan lint: what it flags, what it lets through, and the tree."""

import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "lint_row_scan", ROOT / "tools" / "lint_row_scan.py")
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def scans(tmp_path, source, name="module.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint.find_row_scans(tmp_path)


def test_source_tree_is_clean():
    assert lint.find_row_scans(ROOT / "src" / "repro") == []


def test_flags_filtered_generator_and_comprehension(tmp_path):
    hits = scans(tmp_path, """
        class Store:
            def find(self, key):
                return next((r for r in self.t.row_ids()
                             if self.t.get(r)["k"] == key), None)

            def all(self, key):
                return [r for r in self.t.row_ids()
                        if key in self.t.get(r)["tags"]]
        """)
    assert len(hits) == 2
    assert all("Store." in hit for hit in hits)


def test_ignores_unfiltered_scans_and_other_filters(tmp_path):
    assert scans(tmp_path, """
        def every(t):
            return [t.get(r)["k"] for r in t.row_ids()]

        def odd(t):
            return [r for r in t.row_ids() if r % 2]
        """) == []


def test_allowlist_and_relstore_are_exempt(tmp_path):
    assert scans(tmp_path, """
        class KnowledgeBase:
            def candidates_from_store(self, part):
                return {r for r in self.t.row_ids()
                        if self.t.get(r)["part_id"] == part}
        """) == []
    assert scans(tmp_path, """
        def f(t, key):
            return [r for r in t.row_ids() if t.get(r)["k"] == key]
        """, name="relstore/table.py") == []
