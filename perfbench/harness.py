"""Run protocol shared by the workloads: constants and result assembly.

A run reports every metric twice in its record, raw and corrected by the
host-speed probe; the printed result carries the corrected values.
"""

from __future__ import annotations

import resource
import statistics

import probe
import spans

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 2
#: Length of one window of steady load between two probes.
WINDOW_S = 0.25

END_TO_END = {
    "throughput_ops_s": "1/s", "read_p50_ms": "ms", "write_p50_ms": "ms",
    "ok_share": "share", "accuracy_at_1": "share", "accuracy_at_10": "share",
    "setup_s": "s", "peak_rss_mb": "MiB", "cpu_ms_per_op": "ms",
}


def quantile(values: list[float], fraction: float) -> float:
    """Nearest-rank quantile (the convention of ``repro.serve.percentile``)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * len(ordered)) - 1))
    return ordered[rank]


def latency_metrics(samples, windows, prefix: str, fractions) -> dict:
    """Raw and corrected latency quantiles of ``(window, seconds)`` samples."""
    raw = [seconds * 1000.0 for _, seconds in samples]
    corrected = [seconds * 1000.0 * windows[index].factor
                 for index, seconds in samples]
    return {f"{prefix}_p{round(fraction * 100)}_ms":
            {"raw": quantile(raw, fraction),
             "corrected": quantile(corrected, fraction)}
            for fraction in fractions}


def setup_metric(records: list[dict]) -> dict:
    return {"raw": statistics.median(r["raw_s"] for r in records),
            "corrected": statistics.median(r["corrected_s"] for r in records)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def exact(value: float) -> dict:
    """A metric with nothing to correct (a share or a size)."""
    return {"raw": value, "corrected": value}


def check_idle(result: dict, record: dict, windows) -> None:
    """Record the program's CPU share during the probes; a run whose
    program worked while idle, and so slowed the probe, is not correct."""
    share = probe.idle_cpu_share(windows)
    record.setdefault("idle_cpu_share", []).append(share)
    if share > probe.IDLE_CPU_SHARE_MAX:
        result["correct"] = False


# ---------------------------------------------------------------------- #
# result assembly


def finish(result: dict, record: dict, metrics: dict) -> dict:
    """End-to-end result: corrected values, both kept in the record."""
    # read_p95_ms stays in the record only: see perfbench/NOTES.md.
    record["metrics"] = {name: dict(value, unit=END_TO_END.get(name, "ms"))
                         for name, value in metrics.items()}
    result["metrics"] = {name: {"value": metrics[name]["corrected"],
                                "unit": unit}
                         for name, unit in END_TO_END.items()}
    return result


def finish_trace(result: dict, record: dict, metrics: dict,
                 untraced, traced) -> dict:
    """Per-layer result of a traced run.

    Time metrics are scaled by the mean probe factor of the traced
    windows; the raw values stay in the record.
    """
    traced_rate = probe.summarize_windows(traced)["throughput_ops_s"]
    untraced_rate = probe.summarize_windows(untraced)["throughput_ops_s"]
    scale = statistics.fmean(w.factor for w in traced)
    metrics["host.probe_ms"] = statistics.fmean(
        w.probe_ms for w in untraced + traced)
    metrics["trace.overhead_share"] = (
        1.0 - traced_rate["corrected"] / untraced_rate["corrected"])
    record["metrics"] = {
        name: {"raw": metrics[name],
               "corrected": metrics[name] * (scale if name in spans.TIMED
                                             else 1.0),
               "unit": unit}
        for name, unit in spans.PER_LAYER.items()}
    result["metrics"] = {name: {"value": entry["corrected"],
                                "unit": entry["unit"]}
                         for name, entry in record["metrics"].items()}
    return result
