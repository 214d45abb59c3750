"""The serving-bench checker against the committed baseline it guards."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "benchmarks" / "baselines" / "BENCH_serving.json"
_spec = importlib.util.spec_from_file_location(
    "check_bench_serving", ROOT / "tools" / "check_bench_serving.py")
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def test_committed_baseline_validates():
    assert checker.check(BASELINE) == []


@pytest.mark.parametrize("key", sorted(checker.REQUIRED))
def test_baseline_without_a_required_key_fails(tmp_path, key):
    payload = json.loads(BASELINE.read_text(encoding="utf-8"))
    del payload[key]
    path = tmp_path / "BENCH_serving.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert checker.check(path) == [f"{path}: missing required key {key!r}"]
