"""The e1t-words workload: in-process QATK batch classification.

The held-out bundles go through ``QATK.classify_many`` in chunks, pass
after pass in a seeded order, from one thread in windows between probes.
A read is one bundle; its latency is the per-bundle time of its chunk.
A write is the persistence of the chunk's ranked lists, which
``classify_many`` does itself (``store_recommendations``, Fig. 8 step 3c);
its latency is the per-bundle time of that call.
"""

from __future__ import annotations

import contextlib
import random
import time

import harness
import probe
import spans
import system

#: Bundles per ``classify_many`` call.
CHUNK = 4
#: Bundles whose first-pass answers are checked against
#: ``RankedKnnClassifier.classify_bundle`` after the timing.
ORACLE_SAMPLE = 64


class Classification:
    """Chunks of a seeded pass order through ``classify_many``."""

    def __init__(self, qatk, unlabelled, seed: int) -> None:
        self.qatk = qatk
        self.unlabelled = unlabelled
        self.rng = random.Random(seed)
        self.chunks = self._chunks()
        #: ``(chunk, recommendations)`` for every call.
        self.answered: list[tuple[list, list]] = []
        #: ``(window, seconds per bundle)`` for every call.
        self.samples: list[tuple[int, float]] = []
        #: ``(window, seconds per bundle)`` of every persistence call.
        self.writes: list[tuple[int, float]] = []
        self.window = 0

    def _chunks(self):
        while True:
            order = self.unlabelled[:]
            self.rng.shuffle(order)
            for start in range(0, len(order), CHUNK):
                yield order[start:start + CHUNK]

    def run_window(self, deadline: float):
        ops, cpu_start = 0, time.process_time()
        while time.perf_counter() < deadline:
            chunk = next(self.chunks)
            start = time.perf_counter()
            recommendations = self.qatk.classify_many(chunk)
            elapsed = time.perf_counter() - start
            self.answered.append((chunk, recommendations))
            self.samples.append((self.window, elapsed / len(chunk)))
            ops += len(chunk)
        self.window += 1
        return ops, time.process_time() - cpu_start

    @contextlib.contextmanager
    def timing_writes(self):
        """Time ``store_recommendations`` where ``classify_many`` calls it."""
        from repro.core import engines

        store = engines.store_recommendations

        def timed_store(database, recommendations):
            start = time.perf_counter()
            rows = store(database, recommendations)
            self.writes.append((self.window, (time.perf_counter() - start)
                                / len(recommendations)))
            return rows

        engines.store_recommendations = timed_store
        try:
            yield
        finally:
            engines.store_recommendations = store

    def timed(self, seconds: float, full_pass: bool = False):
        return probe.run_windows(
            seconds, harness.WINDOW_S, self.run_window, probe.probe,
            min_ops=len(self.unlabelled) if full_pass else 0,
            idle_cpu=probe.other_threads_cpu)

    def check(self, result: dict, record: dict) -> dict[str, list]:
        """Every answer is a ranked list for its own bundle, every pass
        answers a bundle exactly as the first pass did, and the first pass
        equals the classifier's direct answer on a fixed sample.  Returns
        the first pass's ranked codes by ref."""
        first: dict[str, list] = {}
        for chunk, recommendations in self.answered:
            result["attempted"] += len(chunk)
            if len(recommendations) != len(chunk):
                result["failed"] += len(chunk)
                continue
            for bundle, recommendation in zip(chunk, recommendations):
                codes = recommendation.codes
                if (recommendation.ref_no != bundle.ref_no or not codes
                        or first.setdefault(bundle.ref_no, codes) != codes):
                    result["failed"] += 1
        classify = self.qatk.classifier.classify_bundle
        for bundle in self.unlabelled[:ORACLE_SAMPLE]:
            if classify(bundle).codes != first[bundle.ref_no]:
                result["correct"] = False
                record.setdefault("oracle_mismatches", []).append(
                    bundle.ref_no)
        return first


def run_e1t(args, record: dict) -> dict:
    train, held_out = system.make_inputs()
    labels = {bundle.ref_no: bundle.error_code for bundle in held_out}
    unlabelled = [bundle.without_label() for bundle in held_out]
    repeats = 1 if args.trace else harness.SETUP_REPEATS
    setups, qatk = probe.timed_setups(
        lambda: system.build_qatk(train, "words"), lambda _: None, repeats)
    record["setups"] = setups
    qatk.classify_many(unlabelled[:CHUNK])  # warm-up, untimed
    work = Classification(qatk, unlabelled, args.seed)
    result = {"attempted": 0, "failed": 0, "correct": True}

    if args.trace:
        untraced = work.timed(args.seconds / 2.0, full_pass=True)
        tracer = spans.Tracer()
        spans.install_e1t(tracer, qatk)
        tracer.enabled = True
        first_traced = len(work.answered)
        traced = work.timed(args.seconds / 2.0)
        tracer.enabled = False
        tracer.restore()
        record["windows"] = [w.record() for w in untraced + traced]
        harness.check_idle(result, record, untraced + traced)
        work.check(result, record)
        bundles = sum(len(chunk) for chunk, _ in work.answered[first_traced:])
        tracer.write(record["path"].with_suffix(".spans.jsonl"))
        return harness.finish_trace(result, record,
                                    spans.e1t_metrics(tracer, bundles),
                                    untraced, traced)

    with work.timing_writes():
        windows = work.timed(args.seconds, full_pass=True)
    record["windows"] = [w.record() for w in windows]
    harness.check_idle(result, record, windows)
    first = work.check(result, record)
    hits1 = hits10 = 0
    for ref, codes in first.items():
        top = [scored.error_code for scored in codes[:10]]
        hits1 += top[0] == labels[ref]
        hits10 += labels[ref] in top
    summary = probe.summarize_windows(windows)
    metrics = {
        "throughput_ops_s": summary["throughput_ops_s"],
        "cpu_ms_per_op": summary["cpu_ms_per_op"],
        "accuracy_at_1": harness.exact(hits1 / len(first)),
        "accuracy_at_10": harness.exact(hits10 / len(first)),
        "setup_s": harness.setup_metric(setups),
    }
    metrics.update(harness.latency_metrics(work.samples, windows, "read",
                                           (0.5, 0.95)))
    metrics.update(harness.latency_metrics(work.writes, windows, "write",
                                           (0.5,)))
    record["samples"] = [(window, kind, round(seconds * 1e3, 4))
                         for kind, samples in (("read", work.samples),
                                               ("write", work.writes))
                         for window, seconds in samples]
    metrics["ok_share"] = harness.exact(
        1.0 - result["failed"] / result["attempted"])
    metrics["peak_rss_mb"] = harness.exact(harness.peak_rss_mb())
    return harness.finish(result, record, metrics)
