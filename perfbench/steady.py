"""Steadiness report: N runs per workload, spread of every metric.

Usage (from the repository root):

    python3 perfbench/steady.py --runs 10 [--workloads e1t-words,serve-mixed]
                                [--first-seed 1] [--seconds 15]

Runs ``perfbench/run.py`` once per seed and workload, one run at a time,
and prints for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), min and max, and the
quartile spread as a share of the median, for the raw and the corrected
values side by side.  The spread is compared with the metric's bound in
``BENCHMARK.json``: a steady metric, ``setup_s`` included, stays below a
third of its bound.
Metrics a run records without a bound (``read_p95_ms``) are listed too.
This is the evidence for the bounds.  A summary is written under
``perfbench/records/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values),
            "spread": (q3 - q1) / median if median else 0.0}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n"
                           f"{completed.stderr[-2000:]}")
    record_line = next(line for line in lines if line.startswith("record: "))
    record = json.loads((ROOT / record_line[len("record: "):]).read_text())
    record["result"] = json.loads(lines[-1])
    return record


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"]
              for metric in config["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(
        workload["name"] for workload in config["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)
    summary: dict = {}
    steady = True
    for workload in args.workloads.split(","):
        records = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.perf_counter()
            record = run_once(workload, seed, args.seconds)
            records.append(record)
            print(f"# {workload} seed {seed}: correct="
                  f"{record['result']['correct']} "
                  f"({time.perf_counter() - start:.0f} s)", flush=True)
        print(f"\n{workload} ({args.runs} runs, {args.seconds} s each)")
        print(f"{'metric':18s} {'kind':9s} {'median':>10s} {'q1':>10s} "
              f"{'q3':>10s} {'min':>10s} {'max':>10s} {'spread':>7s} "
              f"{'bound':>6s}")
        summary[workload] = {}
        names = list(bounds) + [name for name in records[0]["metrics"]
                                if name not in bounds]
        for name in names:
            bound = bounds.get(name)
            rows = {}
            for kind in ("raw", "corrected"):
                rows[kind] = spread([record["metrics"][name][kind]
                                     for record in records])
                row = rows[kind]
                flag = ""
                if kind == "corrected" and bound is not None:
                    flag = " ok" if row["spread"] < bound / 3 else " WIDE"
                    steady = steady and row["spread"] < bound / 3
                print(f"{name:18s} {kind:9s} {row['median']:10.4f} "
                      f"{row['q1']:10.4f} {row['q3']:10.4f} "
                      f"{row['min']:10.4f} {row['max']:10.4f} "
                      f"{row['spread']:7.2%} "
                      f"{'-' if bound is None else f'{bound:.2f}':>6s}{flag}")
            summary[workload][name] = rows
        summary[workload]["all_correct"] = all(
            record["result"]["correct"] for record in records)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (HERE / "records").mkdir(exist_ok=True)
    (HERE / "records" / f"steady-{stamp}.json").write_text(
        json.dumps(summary, indent=1))
    print(f"\nsteady: {steady}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
