"""The repository's benchmark: QATK batch classification and QUEST serving.

Usage (from the repository root):

    python3 perfbench/run.py --workload e1t-words --seed 1 --seconds 15 \
        --trace 0

Workloads (why each exists: perfbench/NOTES.md):

* ``e1t-words``  — the paper's E1t: in-process ``QATK.classify_many`` over
  the held-out fifth of the corpus, words mode, one thread.
* ``serve-mixed`` — uniform reads over two thirds of the held-out bundles
  with an engineer decision every 20th operation, WAL-backed store.

Every timed interval is corrected by the host-speed probe
(``perfbench/probe.py``); raw and corrected values of every metric, the
per-window probe times and the set-up samples go into a run record under
``perfbench/records/``.  With ``--trace 0`` the last line of standard
output is the end-to-end result; with ``--trace 1`` a separate traced run
reports the per-layer metrics (``perfbench/spans.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = HERE / "records"
WORKLOADS = ("e1t-words", "serve-mixed")

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="QATK / QUEST benchmark with host-speed correction.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} "
              f"is missing (run from a checkout of the repository)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    RECORDS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "started": stamp, "cpus": sorted(os.sched_getaffinity(0)),
              "path": RECORDS / (f"{args.workload}-s{args.seed}-"
                                 f"t{args.trace}-{stamp}-{os.getpid()}.json")}
    if args.workload == "e1t-words":
        import e1t
        result = e1t.run_e1t(args, record)
    else:
        import serve_client
        result = serve_client.run_serve(args, record)
    result = {"correct": result["correct"] and result["failed"] == 0,
              "attempted": result["attempted"], "failed": result["failed"],
              "metrics": result["metrics"]}
    path = record.pop("path")
    record["result"] = result
    path.write_text(json.dumps(record, indent=1, default=str))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
