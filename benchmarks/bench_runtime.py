"""E1t — §5.2.2 runtime comparison.

Paper (absolute numbers are testbed-specific; the *ordering and ratios*
are what we reproduce):

* bag-of-words:            ~0.5 s per data bundle (slowest)
* bag-of-words w/o stopwords: ~0.3 s per bundle, accuracy unchanged
* bag-of-concepts:         ~0.14 s per bundle (fastest, ~3.5x faster)
"""

import statistics

from conftest import bench_folds

from repro.evaluate import ExperimentConfig, run_experiment

MODES = ("words", "words-nostop", "concepts")
#: Interleaved runs per mode; the timing checks read each mode's median,
#: so one run slowed by CPU contention cannot decide them.
RUNS = 5


def test_runtime_per_bundle(benchmark, corpus, bundles, annotator, reporter):
    folds = min(bench_folds(), 3)  # timing needs no more folds

    def run_all():
        runs = {mode: [] for mode in MODES}
        for _ in range(RUNS):
            for mode in MODES:
                config = ExperimentConfig(feature_mode=mode, folds=folds)
                runs[mode].append(run_experiment(bundles, config,
                                                 corpus.taxonomy, annotator))
        return runs

    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    # accuracies are deterministic (fixed seeds): any run reports them
    results = {mode: mode_runs[0] for mode, mode_runs in runs.items()}
    seconds = {mode: statistics.median(run.seconds_per_bundle
                                       for run in mode_runs)
               for mode, mode_runs in runs.items()}
    reporter.row("§5.2.2 — classification time per data bundle "
                 f"(median of {RUNS} interleaved runs)")
    reporter.row(f"{'variant':<16}{'paper':>12}{'measured':>14}{'acc@1':>9}")
    paper = {"words": "0.50 s", "words-nostop": "0.30 s",
             "concepts": "0.14 s"}
    for mode, result in results.items():
        reporter.row(f"{mode:<16}{paper[mode]:>12}"
                     f"{seconds[mode] * 1000:>11.2f} ms"
                     f"{result.accuracies[1]:>9.3f}")

    words = seconds["words"]
    nostop = seconds["words-nostop"]
    concepts = seconds["concepts"]
    # concepts are the clear winner (paper ratio ~3.5x; require >= 2x) —
    # this ordering is far outside wall-clock noise
    assert concepts < words
    assert concepts < nostop
    assert words / concepts > 2.0
    # stopword removal cuts the features per bundle (the mechanism behind
    # the paper's 0.5 s -> 0.3 s); wall clock itself is only required not
    # to get meaningfully WORSE, because small timing deltas are noisy
    from repro.evaluate import build_extractor
    sample = [bundle.document_text() for bundle in bundles[:300]]
    plain_features = sum(len(build_extractor("words").extract_text(text))
                         for text in sample)
    nostop_features = sum(
        len(build_extractor("words-nostop").extract_text(text))
        for text in sample)
    reporter.row(f"features/bundle: words={plain_features / 300:.1f} "
                 f"words-nostop={nostop_features / 300:.1f}")
    assert nostop_features < plain_features * 0.9
    assert nostop < words * 1.3
    # stopword removal must not HURT accuracy (paper: "no impact")
    assert (results["words-nostop"].accuracies[1]
            >= results["words"].accuracies[1] - 0.01)
