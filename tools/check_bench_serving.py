#!/usr/bin/env python
"""Validate the serving benchmark's machine-readable output.

``make serve-bench`` runs this after ``benchmarks/bench_serving.py`` to
fail the build when ``BENCH_serving.json`` is missing, unparsable, or
short of the latency/throughput keys downstream tooling depends on.

Usage::

    python tools/check_bench_serving.py [path/to/BENCH_serving.json]

Default path: ``benchmarks/results/BENCH_serving.json``.  Exit status 0
when every required key is present with a sane value, 1 otherwise.
"""

import json
import sys
from pathlib import Path

DEFAULT_PATH = (Path(__file__).resolve().parent.parent
                / "benchmarks" / "results" / "BENCH_serving.json")

#: Keys every serving bench payload must carry, with the type family
#: and (optionally) a lower bound the value must satisfy.
REQUIRED = {
    "requests": (int, 1),
    "clients": (int, 1),
    "workers": (int, 1),
    "max_batch_size": (int, 1),
    "throughput_rps_sequential": ((int, float), 0.0),
    "throughput_rps_concurrent": ((int, float), 0.0),
    "speedup": ((int, float), 0.0),
    "p50_ms": ((int, float), 0.0),
    "p95_ms": ((int, float), 0.0),
    "p99_ms": ((int, float), 0.0),
    # the recording host's CPU count: the multi-core floors below are
    # enforced only where it allows parallelism
    "cpus": (int, 0),
    # HTTP transport phase (A8: keep-alive vs connection-per-request);
    # ka_clients must clear the ISSUE's "concurrency >= 8" bar.
    "ka_requests": (int, 1),
    "ka_clients": (int, 7),
    "per_request_rps": ((int, float), 0.0),
    "keepalive_rps": ((int, float), 0.0),
    "keepalive_speedup": ((int, float), 0.0),
    "per_request_p95_ms": ((int, float), 0.0),
    "keepalive_p95_ms": ((int, float), 0.0),
    # triage phase (A10: confidence scoring priced vs a plain suggest);
    # the overhead can legitimately be negative (timer noise on a
    # near-free computation), so its lower bound is a loose sanity rail.
    "triage_requests": (int, 1),
    "plain_suggest_rps": ((int, float), 0.0),
    "confidence_suggest_rps": ((int, float), 0.0),
    "confidence_overhead_pct": ((int, float), -100.0),
    # MVCC phase (A11: relstore snapshot readers, idle and under a
    # committing writer)
    "mvcc_reads": (int, 1),
    "mvcc_readers": (int, 1),
    "mvcc_reader_rps_idle": ((int, float), 0.0),
    "mvcc_reader_rps_writer": ((int, float), 0.0),
    "mvcc_idle_p95_ms": ((int, float), 0.0),
    "mvcc_writer_p95_ms": ((int, float), 0.0),
    "mvcc_p95_ratio": ((int, float), 0.0),
    # C10k phase (A12: idle keep-alive connection scale, event-loop vs
    # threaded transport); the async server must have sustained >= 1024
    # idle connections for the payload to validate.
    "aio_idle_connections": (int, 1023),
    "aio_read_p95_ms": ((int, float), 0.0),
    "threaded_read_p95_ms": ((int, float), 0.0),
    "aio_vs_threaded_p95_ratio": ((int, float), 0.0),
}

#: Latency keys: allowed to equal their minimum (a 0.0ms percentile is
#: merely suspicious, not structurally invalid).
_PERCENTILE_KEYS = ("p50_ms", "p95_ms", "p99_ms",
                    "per_request_p95_ms", "keepalive_p95_ms",
                    "mvcc_idle_p95_ms", "mvcc_writer_p95_ms",
                    "aio_read_p95_ms", "threaded_read_p95_ms")

#: The keep-alive transport floor (mirrors bench A8's assertion; the
#: bench fails before writing a payload below it, so a violation here
#: means the JSON was edited or stale).
KEEPALIVE_SPEEDUP_FLOOR = 1.5

#: A10's ceiling on confidence scoring's cost relative to a plain
#: suggest, in percent (mirrors bench_serving.py's assertion).
CONFIDENCE_OVERHEAD_CEILING_PCT = 10.0

#: A11's ceiling (mirrors bench_serving.py); checked only when the
#: payload claims it was enforced on its host (multi-core).
MVCC_P95_DEGRADATION_CEILING = 1.5

#: A12's ceiling on async read p95 at 1024 idle connections relative to
#: threaded at 64 (mirrors bench_serving.py); checked only when the
#: payload claims the floor was enforced on its host (multi-core).
AIO_P95_RATIO_CEILING = 1.0


def check(path: Path) -> list[str]:
    """Return a list of problems (empty when the payload is valid)."""
    if not path.exists():
        return [f"{path}: missing (run `make serve-bench` first)"]
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable JSON ({exc})"]
    if not isinstance(payload, dict):
        return [f"{path}: expected a JSON object, got {type(payload).__name__}"]
    problems = []
    for key, (kind, minimum) in REQUIRED.items():
        if key not in payload:
            problems.append(f"{path}: missing required key {key!r}")
            continue
        value = payload[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            problems.append(f"{path}: key {key!r} has non-numeric value "
                            f"{value!r}")
            continue
        if value <= minimum and key not in _PERCENTILE_KEYS:
            problems.append(f"{path}: key {key!r} must be > {minimum}, "
                            f"got {value!r}")
        elif value < minimum:
            problems.append(f"{path}: key {key!r} must be >= {minimum}, "
                            f"got {value!r}")
    percentiles = [payload.get(key) for key in ("p50_ms", "p95_ms", "p99_ms")]
    if all(isinstance(value, (int, float)) and not isinstance(value, bool)
           for value in percentiles):
        p50, p95, p99 = percentiles
        if not p50 <= p95 <= p99:
            problems.append(f"{path}: percentiles not monotonic "
                            f"(p50={p50}, p95={p95}, p99={p99})")
    ka_speedup = payload.get("keepalive_speedup")
    if (isinstance(ka_speedup, (int, float))
            and not isinstance(ka_speedup, bool)
            and ka_speedup < KEEPALIVE_SPEEDUP_FLOOR):
        problems.append(f"{path}: keepalive_speedup {ka_speedup!r} below "
                        f"the {KEEPALIVE_SPEEDUP_FLOOR}x floor")
    overhead = payload.get("confidence_overhead_pct")
    if (isinstance(overhead, (int, float)) and not isinstance(overhead, bool)
            and overhead > CONFIDENCE_OVERHEAD_CEILING_PCT):
        problems.append(
            f"{path}: confidence_overhead_pct {overhead!r} above the "
            f"{CONFIDENCE_OVERHEAD_CEILING_PCT}% ceiling")
    if payload.get("mvcc_floor_enforced"):
        p95_ratio = payload.get("mvcc_p95_ratio")
        if (isinstance(p95_ratio, (int, float))
                and not isinstance(p95_ratio, bool)
                and p95_ratio > MVCC_P95_DEGRADATION_CEILING):
            problems.append(
                f"{path}: mvcc_p95_ratio {p95_ratio!r} above the "
                f"{MVCC_P95_DEGRADATION_CEILING}x ceiling claimed "
                f"enforced on this host")
    if payload.get("aio_floor_enforced"):
        aio_ratio = payload.get("aio_vs_threaded_p95_ratio")
        if (isinstance(aio_ratio, (int, float))
                and not isinstance(aio_ratio, bool)
                and aio_ratio > AIO_P95_RATIO_CEILING):
            problems.append(
                f"{path}: aio_vs_threaded_p95_ratio {aio_ratio!r} above "
                f"the {AIO_P95_RATIO_CEILING}x ceiling claimed enforced "
                f"on this host")
    return problems


def main(argv: list[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_PATH
    problems = check(path)
    for problem in problems:
        print(f"check_bench_serving: {problem}", file=sys.stderr)
    if not problems:
        print(f"check_bench_serving: OK ({path})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
