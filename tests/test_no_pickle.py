"""No module under ``src/repro`` imports a code-executing deserializer.

``pickle``, ``marshal`` and ``shelve`` run whatever the bytes they load
tell them to, so bytes from a socket, a file or a database row must
never reach one.  The simplest way to keep that true is to import none
of them anywhere in the package.  A process pool (``multiprocessing``,
or the process executor of ``concurrent.futures``) pickles every task
and result it passes between processes, so none is imported either; a
``ThreadPoolExecutor`` pickles nothing and stays allowed.
"""

import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Dotted names refused together with everything below them: stdlib
#: loaders that execute code named by their input, and process pools.
FORBIDDEN = frozenset({"pickle", "marshal", "shelve", "multiprocessing",
                       "concurrent.futures.process",
                       "concurrent.futures.ProcessPoolExecutor"})


def _forbidden(name: str) -> bool:
    return any(name == bad or name.startswith(bad + ".")
               for bad in FORBIDDEN)


def forbidden_imports(source: str, filename: str = "<source>") -> list[str]:
    """``"file:line: name"`` for every import of a FORBIDDEN name."""
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            names = ([module] if _forbidden(module) else
                     [f"{module}.{alias.name}" for alias in node.names])
        else:
            continue
        for name in names:
            if _forbidden(name):
                hits.append(f"{filename}:{node.lineno}: {name}")
    return hits


def test_source_tree_imports_no_pickle():
    hits = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        hits += forbidden_imports(path.read_text(encoding="utf-8"),
                                  str(path.relative_to(ROOT)))
    assert hits == []


def test_flags_every_import_form():
    hits = forbidden_imports(textwrap.dedent("""
        import pickle
        import json, marshal as m
        from shelve import open as shelf_open
        import multiprocessing.pool
        import concurrent.futures.process
        from concurrent.futures import (ThreadPoolExecutor,
                                        ProcessPoolExecutor as Pool)

        def load(data):
            from pickle import loads
            return loads(data)
        """))
    assert [hit.rsplit(": ", 1)[1] for hit in hits] == [
        "pickle", "marshal", "shelve", "multiprocessing.pool",
        "concurrent.futures.process",
        "concurrent.futures.ProcessPoolExecutor", "pickle"]


def test_ignores_lookalikes_and_relative_imports():
    assert forbidden_imports(textwrap.dedent("""
        import json
        import pickletools_like
        from . import pickle
        from .marshal import codec
        import multiprocessing_like
        import concurrent.futures
        from concurrent.futures import ThreadPoolExecutor, processing
        """)) == []
