"""Evaluation harness: stratified CV, accuracy@k, experiment runner (§5)."""

from .calibration import (CalibrationBucket, confidence_calibration,
                          override_aware_accuracy)
from .crossval import Fold, experiment_subset, stratified_folds
from .experiment import (FEATURE_MODES, ExperimentConfig, ExperimentResult,
                         FoldOutcome, build_extractor,
                         run_candidate_set_baseline, run_cross_source_evaluation,
                         run_experiment, run_experiments,
                         run_frequency_baseline)
from .learning import (DEFAULT_SIZES, LearningPoint, curve_row,
                       run_learning_curve)
from .metrics import (DEFAULT_KS, accuracy_at_k, mean_reciprocal_rank,
                      merge_fold_accuracies)
from .significance import (PairedBootstrapResult, compare_variants,
                           paired_bootstrap)
from .report import (PartBreakdown, RankBreakdown, breakdown_by_part,
                     rank_breakdown, render_markdown_report)

__all__ = [
    "DEFAULT_KS",
    "DEFAULT_SIZES",
    "CalibrationBucket",
    "ExperimentConfig",
    "ExperimentResult",
    "FEATURE_MODES",
    "Fold",
    "FoldOutcome",
    "LearningPoint",
    "PairedBootstrapResult",
    "PartBreakdown",
    "RankBreakdown",
    "accuracy_at_k",
    "breakdown_by_part",
    "compare_variants",
    "confidence_calibration",
    "curve_row",
    "build_extractor",
    "experiment_subset",
    "mean_reciprocal_rank",
    "merge_fold_accuracies",
    "override_aware_accuracy",
    "paired_bootstrap",
    "rank_breakdown",
    "run_learning_curve",
    "render_markdown_report",
    "run_candidate_set_baseline",
    "run_cross_source_evaluation",
    "run_experiment",
    "run_experiments",
    "run_frequency_baseline",
    "stratified_folds",
]
