"""End-to-end orchestration: preprocess, extract, select, train, score.

fit_from_features is the single fitting entry point used by direct
training, the train/test comparison protocol and cross-validation, so
feature normalization and selection are always fitted on training rows
only.
"""

from dataclasses import dataclass, replace

from .dataset import Dataset, stratified_split_indices
from .evaluate import ConfusionMatrix, accuracy
from .features import FeatureMatrix, fit_feature_normalization
from .preprocess import preprocess_dataset, validate_norm_mode
from .selection import SelectionResult, select_features, validate_catalog_indices
from .svm import MulticlassSvmModel, TrainConfig, predict_batch, train_multiclass


@dataclass
class PipelineConfig(TrainConfig):
    """Every knob the pipeline exposes: the SVM's TrainConfig plus selection
    and normalization, with the defaults used throughout."""

    seed: int = 42
    selection_k: int = 15
    explicit_features: list | None = None
    norm_mode: str = "signal"

    def __post_init__(self):
        super().__post_init__()
        validate_norm_mode(self.norm_mode)
        if not 1 <= self.selection_k:
            raise ValueError(f"selection_k must be >= 1, got {self.selection_k}")
        if self.explicit_features is not None:
            self.explicit_features = validate_catalog_indices(self.explicit_features)


@dataclass
class FitResult:
    """A trained model plus the fitting artifacts worth reporting."""

    model: MulticlassSvmModel
    selection: SelectionResult | None


def prepare_dataset(dataset: Dataset, config: PipelineConfig) -> Dataset:
    """Record-level preprocessing (denoise + optional signal normalization)."""
    return preprocess_dataset(dataset, config.norm_mode)


def fit_from_features(matrix: FeatureMatrix, config: PipelineConfig) -> FitResult:
    """Fit normalization, selection and all pairwise machines on one table.

    Selection sees the rows as scaled by the normalization; training gets
    the full catalog rows and prepares them as prediction does.
    """
    norm = None
    if config.norm_mode in ("feature", "both"):
        norm = fit_feature_normalization(matrix)
    if config.explicit_features is not None:
        indices = config.explicit_features
        selection = None
    else:
        scaled = matrix.values if norm is None else norm.scale(matrix.values)
        selection = select_features(scaled, config.selection_k)
        indices = selection.selected_indices
    model = train_multiclass(matrix, config, indices, norm)
    return FitResult(model=model, selection=selection)


# Labels for raw catalog rows; normalization and restriction happen inside.
predict_rows = predict_batch


def evaluate_model(model: MulticlassSvmModel, matrix: FeatureMatrix) -> ConfusionMatrix:
    """Score a model against a labeled feature table."""
    truth = list(matrix.labels)
    if any(lab is None for lab in truth):
        raise ValueError("evaluation rows must all carry labels")
    predicted = predict_rows(model, matrix.values)
    return ConfusionMatrix.from_predictions(truth, predicted, model.label_order)


def subset_rows(matrix: FeatureMatrix, rows) -> FeatureMatrix:
    """Row subset of a feature table, preserving metadata alignment."""
    return FeatureMatrix(
        values=matrix.values[rows],
        record_ids=[matrix.record_ids[i] for i in rows],
        labels=[matrix.labels[i] for i in rows],
    )


class ComparisonReport(dict):
    """The comparison payload; `warnings`, outside the dict, holds both
    models' warnings, prefixed "selected-k model: " or "all-features model: "."""


def comparison_report(matrix: FeatureMatrix, config: PipelineConfig,
                      test_fraction: float, seed: int) -> ComparisonReport:
    """Selected-k vs all-features accuracy on one stratified split.

    Both variants share the identical train/test rows; the all-features
    variant bypasses selection via an explicit 1..n index list.
    """
    train_rows, test_rows = stratified_split_indices(matrix.labels, test_fraction, seed)
    train_matrix = subset_rows(matrix, train_rows)
    test_matrix = subset_rows(matrix, test_rows)

    fitted_k = fit_from_features(train_matrix, config)
    config_all = replace(config, explicit_features=list(range(1, matrix.n_features + 1)))
    fitted_all = fit_from_features(train_matrix, config_all)

    def scores(fitted):
        return {
            "train": accuracy(evaluate_model(fitted.model, train_matrix)),
            "test": accuracy(evaluate_model(fitted.model, test_matrix)),
        }

    report = ComparisonReport({
        "test_fraction": test_fraction,
        "split_seed": seed,
        "n_train": len(train_rows),
        "n_test": len(test_rows),
        "k": len(fitted_k.model.feature_indices),
        "selected_indices": list(fitted_k.model.feature_indices),
        "accuracy": {
            "selected": scores(fitted_k),
            "all_features": scores(fitted_all),
        },
    })
    report.warnings = (fitted_k.model.warnings("selected-k model: ")
                       + fitted_all.model.warnings("all-features model: "))
    return report


def format_comparison(report: dict) -> str:
    """Two-column accuracy table for the selected-k vs all-features run."""
    acc = report["accuracy"]
    k = report["k"]
    lines = [
        f"split: {report['n_train']} train / {report['n_test']} test rows "
        f"(fraction {report['test_fraction']}, seed {report['split_seed']})",
        "",
        f"{'rows':<14}{f'{k} features':>14}{'all features':>14}",
    ]
    for side in ("train", "test"):
        lines.append(
            f"{side:<14}{acc['selected'][side]:>14.4f}{acc['all_features'][side]:>14.4f}"
        )
    return "\n".join(lines)
