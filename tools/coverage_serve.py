#!/usr/bin/env python
"""Line coverage for the serving + storage layers with a stdlib fallback.

``make coverage`` gates the line rate of every directory in ``TARGETS``
(currently ``src/repro/serve/``, ``src/repro/triage/``, and
``src/repro/relstore/``).  When
``pytest-cov`` (or ``coverage``) is importable it is used directly; in
hermetic environments without either, a ``sys.settrace``-based tracer
measures the same thing with nothing beyond the standard library:

* the tracer records every executed line of files under the target
  directories (installed via ``threading.settrace`` too, so worker
  threads count — the serving layer is thread-heavy);
* the denominator is the set of *executable* lines, derived from each
  module's compiled code objects (``co_lines`` over the nested code-object
  tree), which is how coverage tools define it — comments and blank lines
  don't dilute the rate.

Each target directory is globbed, so new modules join the denominator
automatically.

Usage::

    python tools/coverage_serve.py [--fail-under PCT] [pytest args...]

Default pytest target is ``tests/serve tests/triage tests/relstore``;
default
``--fail-under`` is ``FAIL_UNDER`` below.  Exit status: pytest's if tests
fail, else 1 when the rate is under the floor, else 0.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: The gated directories.  Every ``*.py`` under each joins the
#: denominator; the floor applies to the combined rate.
TARGETS = (
    REPO / "src" / "repro" / "serve",
    REPO / "src" / "repro" / "triage",
    REPO / "src" / "repro" / "relstore",
)

#: The committed line-rate floor (percent).  Raise it when coverage
#: improves; never lower it to make a build pass.
FAIL_UNDER = 85.0


def executable_lines(path: Path) -> set[int]:
    """The executable line numbers of *path* (compiled, not regexed)."""
    source = path.read_text(encoding="utf-8")
    code = compile(source, str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        lines.update(line for _, _, line in obj.co_lines()
                     if line is not None)
        stack.extend(const for const in obj.co_consts
                     if hasattr(const, "co_lines"))
    return lines


class LineTracer:
    """Collect executed (filename, line) pairs under the target dirs."""

    def __init__(self, targets: tuple[Path, ...]) -> None:
        self._prefixes = tuple(str(target) + os.sep for target in targets)
        self.hit: dict[str, set[int]] = {}

    def _trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self._prefixes):
            # returning None skips tracing the rest of this frame — the
            # overhead concentrates where we measure
            return None
        if event == "line":
            self.hit.setdefault(filename, set()).add(frame.f_lineno)
        return self._trace

    def install(self) -> None:
        threading.settrace(self._trace)
        sys.settrace(self._trace)

    def uninstall(self) -> None:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]


def run_with_fallback_tracer(pytest_args: list[str]) -> tuple[int, dict]:
    import pytest

    tracer = LineTracer(TARGETS)
    tracer.install()
    try:
        status = pytest.main(pytest_args)
    finally:
        tracer.uninstall()
    return int(status), tracer.hit


def report(hit: dict[str, set[int]], fail_under: float) -> int:
    total_executable = 0
    total_hit = 0
    rows = []
    for target in TARGETS:
        label = target.relative_to(REPO / "src")
        for path in sorted(target.glob("*.py")):
            executable = executable_lines(path)
            executed = hit.get(str(path), set()) & executable
            total_executable += len(executable)
            total_hit += len(executed)
            rate = (100.0 * len(executed) / len(executable)
                    if executable else 100.0)
            rows.append((f"{label}/{path.name}", len(executable),
                         len(executed), rate))
    width = max(len(name) for name, _, _, _ in rows) + 2
    print(f"{'file':<{width}}{'lines':>8}{'hit':>8}{'rate':>9}")
    for name, executable, executed, rate in rows:
        print(f"{name:<{width}}{executable:>8}{executed:>8}{rate:>8.1f}%")
    overall = (100.0 * total_hit / total_executable
               if total_executable else 100.0)
    print(f"{'TOTAL':<{width}}{total_executable:>8}{total_hit:>8}"
          f"{overall:>8.1f}%")
    if overall < fail_under:
        print(f"coverage_serve: FAIL — {overall:.1f}% is under the "
              f"{fail_under:.1f}% floor", file=sys.stderr)
        return 1
    print(f"coverage_serve: OK ({overall:.1f}% >= {fail_under:.1f}%)")
    return 0


def run_with_pytest_cov(pytest_args: list[str], fail_under: float) -> int:
    import pytest

    cov_args = [f"--cov={target}" for target in TARGETS]
    return int(pytest.main(
        [*cov_args, "--cov-report=term-missing",
         f"--cov-fail-under={fail_under}", *pytest_args]))


def main(argv: list[str]) -> int:
    fail_under = FAIL_UNDER
    args = list(argv[1:])
    if "--fail-under" in args:
        index = args.index("--fail-under")
        fail_under = float(args[index + 1])
        del args[index:index + 2]
    pytest_args = args or ["tests/serve", "tests/triage", "tests/relstore",
                           "-q"]
    sys.path.insert(0, str(REPO / "src"))
    try:
        import pytest_cov  # noqa: F401  (presence check only)
        has_cov = True
    except ImportError:
        has_cov = False
    if has_cov:
        return run_with_pytest_cov(pytest_args, fail_under)
    print("coverage_serve: pytest-cov not installed; using the stdlib "
          "settrace fallback")
    status, hit = run_with_fallback_tracer(pytest_args)
    if status != 0:
        print(f"coverage_serve: pytest exited {status}; coverage not "
              f"evaluated", file=sys.stderr)
        return status
    return report(hit, fail_under)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
