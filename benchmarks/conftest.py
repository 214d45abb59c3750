"""Shared benchmark fixtures and reporting helpers.

Every benchmark regenerates one table/figure of the paper (see DESIGN.md's
per-experiment index).  Results are printed (visible with ``pytest -s``)
and appended to ``benchmarks/results/<name>.txt`` so a plain
``pytest benchmarks/ --benchmark-only`` leaves the reproduced numbers on
disk.

Scale control: set ``REPRO_BENCH_FOLDS`` (default 5 — the paper's setting)
to 2 or 3 for quicker runs.
"""

import os
from pathlib import Path

import pytest

from repro.data import generate_complaints, generate_corpus
from repro.evaluate import experiment_subset
from repro.taxonomy import ConceptAnnotator

RESULTS_DIR = Path(__file__).parent / "results"


def bench_folds() -> int:
    """Cross-validation folds for benchmarks (env-overridable)."""
    return int(os.environ.get("REPRO_BENCH_FOLDS", "5"))


@pytest.fixture(scope="session")
def corpus():
    return generate_corpus()


@pytest.fixture(scope="session")
def bundles(corpus):
    return experiment_subset(corpus.bundles)


@pytest.fixture(scope="session")
def annotator(corpus):
    return ConceptAnnotator(taxonomy=corpus.taxonomy)


@pytest.fixture(scope="session")
def complaints(corpus):
    return generate_complaints(corpus.taxonomy, corpus.plan, count=1800)


class Reporter:
    """Collects result lines, prints them and persists them per bench."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lines: list[str] = []

    def row(self, text: str) -> None:
        self.lines.append(text)
        print(text)

    def flush(self) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{self.name}.txt"
        path.write_text("\n".join(self.lines) + "\n", encoding="utf-8")


@pytest.fixture
def reporter(request):
    rep = Reporter(request.node.name.replace("/", "_"))
    yield rep
    rep.flush()
