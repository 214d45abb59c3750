"""E2s — Figure 13: classification from supplier reports only.

Paper: supplier reports alone are nearly as informative as all reports —
78 % accuracy@1 for bag-of-words + Jaccard, >90 % from k=5 (bag-of-words)
and from k=10 (bag-of-concepts); bag-of-concepts + overlap closely tracks
the code-frequency baseline.
"""

from conftest import bench_folds

from repro.data import ReportSource
from repro.evaluate import (ExperimentConfig, run_experiment,
                            run_experiments, run_frequency_baseline)


def test_experiment2_supplier_only(benchmark, corpus, bundles, annotator,
                                   reporter):
    folds = bench_folds()
    variants = [("words", "jaccard"), ("words", "overlap"),
                ("concepts", "jaccard"), ("concepts", "overlap")]

    def run_all():
        configs = [ExperimentConfig(feature_mode=mode, similarity=similarity,
                                    folds=folds,
                                    test_sources=(ReportSource.SUPPLIER,))
                   for mode, similarity in variants]
        results = run_experiments(bundles, configs, corpus.taxonomy,
                                  annotator)
        results.append(run_frequency_baseline(
            bundles, ExperimentConfig(folds=folds)))
        results.append(run_experiment(
            bundles, ExperimentConfig(feature_mode="words", folds=folds),
            corpus.taxonomy, annotator))  # all-reports reference
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    reporter.row(f"Figure 13 — supplier reports only ({folds}-fold CV)")
    for result in results:
        reporter.row(result.accuracy_row())

    by_name = {result.name: result.accuracies for result in results}
    supplier_words = by_name["words+jaccard [supplier only]"]
    all_reports = by_name["words+jaccard"]
    frequency = by_name["code-frequency baseline"]
    # nearly as good as the full document
    assert supplier_words[1] > all_reports[1] - 0.08
    assert supplier_words[1] > 0.65            # paper: 78 %
    assert supplier_words[5] > 0.90            # paper: >90 % from k=5
    assert by_name["concepts+jaccard [supplier only]"][10] > 0.90
    # supplier-only clearly beats the text-blind baseline (unlike mechanic)
    assert supplier_words[1] > frequency[1]
    assert by_name["concepts+jaccard [supplier only]"][1] > frequency[1]
