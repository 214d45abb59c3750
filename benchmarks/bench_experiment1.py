"""E1 — Figure 11: text-based error-code prediction, all reports.

Reproduces the four classifier variants (bag-of-words / bag-of-concepts x
Jaccard / overlap) and both baselines with stratified cross-validation,
printing accuracy@k for k in {1, 5, 10, 15, 20, 25}.

Paper anchor points: BoW+Jaccard .81/.94 @1/@5; BoW+overlap .76/.93;
BoC+Jaccard .56/.85/.92 @1/@5/@10; code-frequency baseline .35/.76/.88 and
1.00 @25; candidate-set baseline <1%→~83%.
"""

from conftest import bench_folds

from repro.evaluate import (ExperimentConfig, run_candidate_set_baseline,
                            run_experiments, run_frequency_baseline)

PAPER_ROWS = {
    "words+jaccard": {1: 0.81, 5: 0.94},
    "words+overlap": {1: 0.76, 5: 0.93},
    "concepts+jaccard": {1: 0.56, 5: 0.85, 10: 0.92},
    "concepts+overlap": {1: 0.33},
    "code-frequency baseline": {1: 0.35, 5: 0.76, 10: 0.88, 25: 1.00},
}


def test_experiment1_all_reports(benchmark, corpus, bundles, annotator,
                                 reporter):
    folds = bench_folds()
    variants = [("words", "jaccard"), ("words", "overlap"),
                ("concepts", "jaccard"), ("concepts", "overlap")]

    def run_all():
        configs = [ExperimentConfig(feature_mode=mode, similarity=similarity,
                                    folds=folds)
                   for mode, similarity in variants]
        results = run_experiments(bundles, configs, corpus.taxonomy,
                                  annotator)
        config = ExperimentConfig(folds=folds)
        results.append(run_frequency_baseline(bundles, config))
        for mode in ("words", "concepts"):
            results.append(run_candidate_set_baseline(
                bundles, ExperimentConfig(feature_mode=mode, folds=folds),
                corpus.taxonomy, annotator))
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    reporter.row(f"Figure 11 — Experiment 1 (all reports, {folds}-fold CV)")
    for result in results:
        reporter.row(result.accuracy_row())

    by_name = {result.name: result.accuracies for result in results}
    # shape assertions: who wins, and where the baselines sit
    assert by_name["words+jaccard"][1] > by_name["concepts+jaccard"][1]
    assert by_name["words+jaccard"][1] > by_name["words+overlap"][1]
    assert by_name["concepts+jaccard"][1] > by_name["concepts+overlap"][1]
    frequency = by_name["code-frequency baseline"]
    assert 0.30 <= frequency[1] <= 0.42          # paper: 35 %
    assert frequency[25] == 1.0                  # paper: artifact, 100 %
    for mode in ("words", "concepts"):
        candidate = by_name[f"candidate-set baseline ({mode})"]
        assert candidate[1] < frequency[1]
        assert 0.70 <= candidate[25] <= 0.95     # paper: ~83 %
    # every classifier variant beats the candidate-set baseline at k<=10
    for name in ("words+jaccard", "words+overlap", "concepts+jaccard",
                 "concepts+overlap"):
        assert by_name[name][10] > by_name["candidate-set baseline (words)"][10]
