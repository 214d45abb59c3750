"""The probe's own test: correct a synthetic operation of fixed cost.

Usage: python3 perfbench/selfcheck.py [--runs 10] [--seconds 2]

Each run drives a fixed pure-Python operation (no ``repro`` import)
through the same windows and probes the benchmark uses for a steady
in-process load, and once more as one long interval under the pinned
set-up sampler.  The operation's cost never changes, so a working probe
keeps the corrected rate flat while the raw rate moves with the host.
A last pair of runs checks the idle-CPU check: it must pass the quiet
load and catch the same load with a thread that works while the probe
runs.  Exits 1 when the corrected spread is not clearly below the raw
one or the idle check misjudges either run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
import time

import probe

#: A corrected coefficient of variation below this passes even when the
#: host happened to be steady and the raw rate barely moved.
FLAT_CV = 0.03


def synthetic_op() -> int:
    """Fixed work, deliberately unlike the probe kernel (ints, dict, sort)."""
    table = {i: (i * 7919) % 1009 for i in range(600)}
    return sum(sorted(table.values())[::7])


def _run_window(deadline: float):
    ops, cpu0 = 0, time.process_time()
    while time.perf_counter() < deadline:
        synthetic_op()
        ops += 1
    return ops, time.process_time() - cpu0


def _window_run(seconds: float) -> dict:
    windows = probe.run_windows(seconds, 0.25, _run_window, probe.probe)
    return probe.summarize_windows(windows)["throughput_ops_s"]


def _idle_share(busy: bool) -> float:
    """``idle_cpu_share`` of one second of windows, with or without a
    thread that keeps working while the probe runs."""
    stop = threading.Event()

    def spin() -> None:
        while not stop.is_set():
            synthetic_op()

    thread = threading.Thread(target=spin, daemon=True)
    if busy:
        thread.start()
    try:
        windows = probe.run_windows(1.0, 0.25, _run_window, probe.probe,
                                    idle_cpu=probe.other_threads_cpu)
    finally:
        stop.set()
        if busy:
            thread.join()
    return probe.idle_cpu_share(windows)


def _interval_run(ops: int, cpu: int) -> dict:
    with probe.PinnedSampler(cpu) as sampler:
        for _ in range(ops):
            synthetic_op()
    return {"raw": ops / sampler.raw_s, "corrected": ops / sampler.corrected_s}


def _cv(values: list[float]) -> float:
    return statistics.pstdev(values) / statistics.fmean(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    cpus = probe.usable_cpus()
    interval_ops = 0
    results = {"windows": [], "pinned_interval": []}
    for run in range(args.runs):
        results["windows"].append(_window_run(args.seconds))
        if not interval_ops:  # size the interval to about --seconds
            interval_ops = max(1, int(results["windows"][0]["raw"]
                                      * args.seconds))
        results["pinned_interval"].append(
            _interval_run(interval_ops, cpus[run % len(cpus)]))
    ok = True
    for name, rows in results.items():
        raw = [row["raw"] for row in rows]
        corrected = [row["corrected"] for row in rows]
        raw_cv, corr_cv = _cv(raw), _cv(corrected)
        passed = corr_cv < FLAT_CV or corr_cv < raw_cv / 2
        ok = ok and passed
        print(f"{name:16s} raw ops/s {min(raw):9.1f}..{max(raw):9.1f} "
              f"CV {raw_cv:6.2%}   corrected {min(corrected):9.1f}.."
              f"{max(corrected):9.1f} CV {corr_cv:6.2%}   "
              f"{'flat' if passed else 'NOT FLAT'}")
    # The idle check must pass a quiet load and catch a busy thread.
    quiet, busy = _idle_share(False), _idle_share(True)
    caught = quiet <= probe.IDLE_CPU_SHARE_MAX < busy
    ok = ok and caught
    print(f"idle CPU share   quiet {quiet:6.2%}   busy thread {busy:6.2%}   "
          f"{'caught' if caught else 'NOT CAUGHT'}")
    results["idle_cpu_share"] = {"quiet": quiet, "busy": busy}
    print(json.dumps({"passed": ok, "runs": results}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
