"""A6c — candidate-retrieval cache: before/after per-bundle timing.

The per-bundle runtime claim (§5.2.2, reproduced in ``bench_runtime.py``)
used to be bottlenecked on re-materializing KnowledgeNode objects from
relstore rows for every candidate of every classification.  This bench
pits the relstore-backed retrieval path (``candidates_from_store``, the
pre-cache path of record) against the published ``FrozenKnowledgeView``
path on the same knowledge base and test bundles, asserts they return identical
recommendations, and records the speedup as machine-readable JSON in
``benchmarks/results/BENCH_cache.json`` so the perf trajectory is tracked
across PRs.
"""

import json
import time

from conftest import RESULTS_DIR

from repro.classify import RankedKnnClassifier
from repro.evaluate import ExperimentConfig, build_extractor
from repro.evaluate.crossval import stratified_folds
from repro.knowledge import KnowledgeBase

SAMPLE = 300


def _time_classification(classifier, test_bundles):
    start = time.perf_counter()
    recommendations = [classifier.classify_bundle(bundle)
                       for bundle in test_bundles]
    return time.perf_counter() - start, recommendations


def test_candidate_cache_speedup(benchmark, corpus, bundles, annotator,
                                 reporter):
    config = ExperimentConfig(feature_mode="words")
    fold = next(iter(stratified_folds(bundles, config.folds, config.seed)))
    extractor = build_extractor(config.feature_mode, corpus.taxonomy,
                                annotator)
    knowledge_base = KnowledgeBase.from_bundles(fold.train, extractor)
    classifier = RankedKnnClassifier(knowledge_base, extractor)
    test_bundles = fold.test[:SAMPLE]

    def run_both():
        # before: force retrieval through the relstore table (instance
        # attribute shadows the cached method for the duration)
        knowledge_base.candidates = knowledge_base.candidates_from_store
        try:
            store_seconds, store_recs = _time_classification(classifier,
                                                             test_bundles)
        finally:
            del knowledge_base.candidates
        cached_seconds, cached_recs = _time_classification(classifier,
                                                           test_bundles)
        return store_seconds, cached_seconds, store_recs, cached_recs

    store_seconds, cached_seconds, store_recs, cached_recs = (
        benchmark.pedantic(run_both, rounds=1, iterations=1))

    # the cache must be invisible in the output...
    assert store_recs == cached_recs
    store_ms = store_seconds / len(test_bundles) * 1000
    cached_ms = cached_seconds / len(test_bundles) * 1000
    speedup = store_seconds / cached_seconds
    reporter.row("A6c — candidate retrieval: relstore path vs published view")
    reporter.row(f"{'path':<16}{'ms/bundle':>12}")
    reporter.row(f"{'store (before)':<16}{store_ms:>12.3f}")
    reporter.row(f"{'cached (after)':<16}{cached_ms:>12.3f}")
    reporter.row(f"speedup: {speedup:.2f}x over {len(test_bundles)} bundles, "
                 f"{len(knowledge_base)} nodes")
    # ...and visibly faster (acceptance floor is 2x on the words variant)
    assert speedup >= 2.0

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "bench": "candidate_cache",
        "variant": "words+jaccard",
        "bundles": len(test_bundles),
        "knowledge_nodes": len(knowledge_base),
        "per_bundle_ms_store": round(store_ms, 4),
        "per_bundle_ms_cached": round(cached_ms, 4),
        "speedup": round(speedup, 3),
    }
    with open(RESULTS_DIR / "BENCH_cache.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
