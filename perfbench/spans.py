"""Span tracer for the traced run, and the per-layer metrics it yields.

The tracer wraps the public callables of each layer on the objects the
benchmark built (instance attributes shadow the class methods, so calls
the program makes through ``self`` are seen too) and, where a layer calls
a module-level function, the name in the calling module.  Nothing under
``src/`` changes and the wrappers come off when the run ends.

A span records name, start, end, parent span, a request key (the
``ref_no`` where the call carries it, otherwise the micro-batch it runs
in) and, for some layers, a small payload such as a pool size.  Spans are
kept in memory and written out at the end of the run.  A span's self time
is its duration minus the time covered by its child spans; children on
one thread never overlap, so that is the sum of their durations.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict

#: Every per-layer metric, with its unit.  A layer a workload does not
#: exercise reports 0 there (see perfbench/NOTES.md for which does which).
PER_LAYER = {
    "webapp.self_ms": "ms", "webapp.response_bytes": "bytes",
    "gateway.wait_ms": "ms", "gateway.batch_size_mean": "count",
    "gateway.memo_hit_share": "share", "gateway.shed_share": "share",
    "registry.bump_ms": "ms",
    "service.bundle_ms": "ms", "service.assign_ms": "ms",
    "service.code_list_ms": "ms",
    "extract.ms": "ms", "extract.features_mean": "count",
    "knowledge.candidates_ms": "ms", "knowledge.pool_size_mean": "count",
    "knowledge.fallback_share": "share",
    "classify.rank_self_ms": "ms", "classify.similarity_evals_per_op": "count",
    "triage.confidence_ms": "ms", "triage.enqueued_per_op": "count",
    "relstore.persist_ms": "ms", "relstore.wal_batches_per_write": "count",
    "relstore.wal_fsyncs_per_write": "count",
    "uima.self_ms": "ms",
    "host.probe_ms": "ms", "trace.overhead_share": "share",
}

#: Per-layer metrics whose unit is a time (scaled by the probe factor).
TIMED = {name for name, unit in PER_LAYER.items()
         if unit == "ms" and name != "host.probe_ms"}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "key", "info")

    def __init__(self, span_id, name, start, end, parent, key, info):
        self.id, self.name, self.start, self.end = span_id, name, start, end
        self.parent, self.key, self.info = parent, key, info

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "key": self.key,
                "info": self.info}


class Tracer:
    """Wraps callables with span recording; off until :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until :meth:`restore`."""
        own = attr in getattr(owner, "__dict__", {})
        self._patches.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, key=None, info=None) -> None:
        """Record a span around every call of ``owner.attr``.

        *key(args, kwargs)* gives the request key (default: the thread's
        current batch); *info(args, kwargs, result)* a JSON payload.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                request = (key(args, kwargs) if key is not None
                           else getattr(tracer._local, "batch", None))
                payload = (info(args, kwargs, result) if info is not None
                           else None)
                tracer.spans.append(Span(span_id, name, start, end, parent,
                                         request, payload))

        self.patch(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span (hot inner calls)."""
        original = getattr(owner, attr)
        tracer = self

        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[name] += 1
            return original(*args, **kwargs)

        self.patch(owner, attr, counted)

    def batches(self, queue, name: str = "gateway.batch") -> None:
        """Turn a request queue's ``get_batch`` into batch spans.

        A batcher thread processes a batch between the return of one
        ``get_batch`` call and the start of its next one; that interval is
        the batch span, and spans the thread records inside it carry the
        batch as their request key.
        """
        original = queue.get_batch
        tracer = self

        def get_batch(*args, **kwargs):
            local = tracer._local
            open_batch = getattr(local, "open_batch", None)
            if open_batch is not None:
                span_id, start, refs = open_batch
                tracer.spans.append(Span(span_id, name, start,
                                         time.perf_counter(), None, span_id,
                                         refs))
                local.open_batch = local.batch = None
            batch = original(*args, **kwargs)
            if batch and tracer.enabled:
                span_id = next(tracer._ids)
                local.open_batch = (span_id, time.perf_counter(),
                                    [request.ref_no for request in batch])
                local.batch = span_id
            return batch

        self.patch(queue, "get_batch", get_batch)

    def restore(self) -> None:
        """Take every wrapper off again."""
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _ref_arg(position: int):
    def key(args, kwargs):
        return args[position] if len(args) > position else kwargs.get("ref_no")
    return key


def _ref_kwarg(args, kwargs):
    return kwargs.get("ref_no") or None


def _size(args, kwargs, result):
    return len(result) if result is not None else 0


def install_classifier(tracer: Tracer, classifier) -> None:
    """Knowledge base, kNN ranking, similarity and feature extraction."""
    knowledge_base = classifier.knowledge_base
    has_part = knowledge_base.has_part

    def pool(args, kwargs, result):
        return {"pool": len(result) if result is not None else 0,
                "fallback": not has_part(args[0])}

    tracer.span(knowledge_base, "candidates", "knowledge.candidates",
                info=pool)
    tracer.span(classifier, "rank_codes", "classify.rank_codes",
                key=_ref_kwarg, info=lambda a, k, r: len(a[1]))
    tracer.count(classifier, "similarity", "similarity")
    tracer.span(classifier.extractor, "extract_text", "extract.text",
                info=_size)


def install_e1t(tracer: Tracer, qatk) -> None:
    """Spans for in-process batch classification through the pipeline."""
    import repro.core.engines as engines
    install_classifier(tracer, qatk.classifier)
    tracer.span(qatk, "classify_many", "uima.classify_many",
                info=lambda a, k, r: len(r) if r is not None else 0)
    tracer.span(engines, "store_recommendations", "relstore.persist")
    build = qatk.classification_pipeline

    def classification_pipeline(*args, **kwargs):
        pipeline = build(*args, **kwargs)
        for engine in pipeline.aggregate.engines:
            if "process" not in vars(engine):  # the annotator is shared
                tracer.span(engine, "process", f"engine.{engine.name}")
        return pipeline

    tracer.patch(qatk, "classification_pipeline", classification_pipeline)


def install_server(tracer: Tracer, server) -> None:
    """Spans for the served path: webapp, gateway, registry, service,
    triage, relstore persistence and the classifier beneath them."""
    import repro.serve.gateway as gateway_module
    app, gateway, service = server.app, server.gateway, server.service
    install_classifier(tracer, service.classifier)
    tracer.span(app, "get", "webapp.get")
    tracer.span(app, "post", "webapp.post")
    tracer.span(gateway, "suggest", "gateway.suggest", key=_ref_arg(0))
    tracer.batches(gateway._queue)
    wal_counters = server.wal_counters
    assign = gateway.assign

    def traced_assign(*args, **kwargs):
        if not tracer.enabled:
            return assign(*args, **kwargs)
        before = wal_counters()
        try:
            return assign(*args, **kwargs)
        finally:
            after = wal_counters()
            tracer.counts["wal_batches"] += after[0] - before[0]
            tracer.counts["wal_fsyncs"] += after[1] - before[1]

    tracer.patch(gateway, "assign", traced_assign)
    tracer.span(gateway, "assign", "gateway.assign", key=_ref_arg(1))
    tracer.span(gateway.registry, "bump", "registry.bump")
    tracer.span(service, "bundle", "service.bundle", key=_ref_arg(0))
    tracer.span(service, "assign_code", "service.assign_code",
                key=_ref_arg(1))
    tracer.span(service, "full_code_list", "service.code_list")
    tracer.span(service, "custom_codes", "service.code_list")
    tracer.count(service.review_queue, "enqueue", "enqueued")
    tracer.span(gateway_module, "score_confidence", "triage.confidence")
    tracer.span(gateway_module, "store_recommendations", "relstore.persist")


# ---------------------------------------------------------------------- #
# per-layer metrics from spans


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _self_times(spans: list[Span]) -> dict[int, float]:
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


def _by_name(spans: list[Span]) -> dict[str, list[Span]]:
    named: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
    return named


def _ancestors_named(span: Span, spans_by_id: dict, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        owner = spans_by_id.get(parent)
        if owner is None:
            return False
        if owner.name == name:
            return True
        parent = owner.parent
    return False


def _classifier_metrics(named, self_time, counts, spans_by_id) -> dict:
    candidates = named["knowledge.candidates"]
    ranks = named["classify.rank_codes"]
    # extract_text also runs inside assign_code (the knowledge base learns
    # the decision's training text); only the read path's calls count.
    extracts = [span for span in named["extract.text"]
                if not _ancestors_named(span, spans_by_id,
                                        "service.assign_code")]
    return {
        "knowledge.candidates_ms": _mean(s.duration for s in candidates) * 1e3,
        "knowledge.pool_size_mean": _mean(s.info["pool"] for s in candidates),
        "knowledge.fallback_share": _mean(float(s.info["fallback"])
                                          for s in candidates),
        "classify.rank_self_ms": _mean(self_time[s.id] for s in ranks) * 1e3,
        "classify.similarity_evals_per_op": (
            counts["similarity"] / len(ranks) if ranks else 0.0),
        "extract.ms": _mean(s.duration for s in extracts) * 1e3,
        "extract.features_mean": _mean(s.info for s in extracts),
    }


def e1t_metrics(tracer: Tracer, bundles: int) -> dict:
    """Per-layer metrics of a traced e1t-words run over *bundles*."""
    spans = tracer.spans
    named, self_time = _by_name(spans), _self_times(spans)
    spans_by_id = {span.id: span for span in spans}
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(_classifier_metrics(named, self_time, tracer.counts,
                                       spans_by_id))
    # Words mode extracts through the pipeline's analysis engines (the
    # concept annotator runs too), not through extract_text.
    analysis = [span for name, group in named.items()
                if name.startswith("engine.") and name != "engine.classifier"
                for span in group]
    metrics["extract.ms"] = sum(s.duration for s in analysis) * 1e3 / bundles
    metrics["extract.features_mean"] = _mean(
        s.info for s in named["classify.rank_codes"])
    metrics["relstore.persist_ms"] = _mean(
        s.duration for s in named["relstore.persist"]) * 1e3
    metrics["uima.self_ms"] = sum(
        self_time[s.id] for s in named["uima.classify_many"]) * 1e3 / bundles
    return metrics


def server_metrics(tracer: Tracer, reads: int, writes: int,
                   client_ms_mean: float, response_bytes: float,
                   stats_delta: dict) -> dict:
    """Per-layer metrics of a traced serving run.

    *client_ms_mean* is the mean client-observed latency over the traced
    requests; *stats_delta* the change of ``/api/stats`` counters.
    """
    spans = tracer.spans
    named, self_time = _by_name(spans), _self_times(spans)
    spans_by_id = {span.id: span for span in spans}
    counts = tracer.counts
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(_classifier_metrics(named, self_time, counts,
                                       spans_by_id))
    app_spans = named["webapp.get"] + named["webapp.post"]
    metrics["webapp.self_ms"] = client_ms_mean - _mean(
        s.duration for s in app_spans) * 1e3
    metrics["webapp.response_bytes"] = response_bytes
    # A suggest waits in the queue and the batch window, then its batch
    # runs on a batcher thread; wait = suggest minus its batch's overlap.
    batches_by_ref: dict[str, list[Span]] = defaultdict(list)
    for batch in named["gateway.batch"]:
        for ref in batch.info:
            batches_by_ref[ref].append(batch)
    waits = []
    for span in named["gateway.suggest"]:
        overlap = 0.0
        for batch in batches_by_ref.get(span.key, ()):
            if span.start <= batch.start <= span.end:
                overlap = min(span.end, batch.end) - batch.start
                break
        waits.append(span.duration - overlap)
    metrics["gateway.wait_ms"] = _mean(waits) * 1e3
    batched = stats_delta.get("batched_requests", 0)
    batches = stats_delta.get("batches", 0)
    submitted = stats_delta.get("submitted", 0)
    metrics["gateway.batch_size_mean"] = batched / batches if batches else 0.0
    metrics["gateway.memo_hit_share"] = (stats_delta.get("memo_hits", 0)
                                         / batched if batched else 0.0)
    metrics["gateway.shed_share"] = (stats_delta.get("rejected", 0)
                                     / submitted if submitted else 0.0)
    metrics["registry.bump_ms"] = _mean(
        s.duration for s in named["registry.bump"]) * 1e3
    metrics["service.bundle_ms"] = _mean(
        s.duration for s in named["service.bundle"]) * 1e3
    metrics["service.assign_ms"] = _mean(
        s.duration for s in named["service.assign_code"]) * 1e3
    # The gateway's read path asks only for the custom codes; assign_code
    # asks for the full list, which nests a custom_codes call.
    metrics["service.code_list_ms"] = _mean(
        s.duration for s in named["service.code_list"]
        if spans_by_id.get(s.parent, s).name != "service.code_list") * 1e3
    metrics["triage.confidence_ms"] = _mean(
        s.duration for s in named["triage.confidence"]) * 1e3
    metrics["triage.enqueued_per_op"] = counts["enqueued"] / reads
    metrics["relstore.persist_ms"] = _mean(
        s.duration for s in named["relstore.persist"]) * 1e3
    if writes:
        metrics["relstore.wal_batches_per_write"] = (counts["wal_batches"]
                                                     / writes)
        metrics["relstore.wal_fsyncs_per_write"] = (counts["wal_fsyncs"]
                                                    / writes)
    return metrics
