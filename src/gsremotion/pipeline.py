"""End-to-end orchestration: preprocess, extract, select, train, score.

fit_from_features is the single fitting entry point used by direct
training, the train/test comparison protocol and cross-validation, so
feature normalization and selection are always fitted on training rows
only.
"""

from dataclasses import dataclass, field, replace

from .dataset import Dataset, stratified_split_indices
from .evaluate import ConfusionMatrix, accuracy
from .features import FeatureMatrix, apply_feature_normalization, fit_feature_normalization
from .kernels import KernelSpec
from .preprocess import preprocess_dataset, validate_norm_mode
from .selection import SelectionResult, select_features, validate_catalog_indices
from .svm import MulticlassSvmModel, TrainConfig, predict_batch, train_multiclass


@dataclass
class PipelineConfig:
    """Every knob the pipeline exposes, with the defaults used throughout."""

    kernel: KernelSpec = field(default_factory=KernelSpec)
    c: float = 1.0
    tolerance: float = 1e-3
    max_passes: int = 100_000
    selection_k: int = 15
    explicit_features: list | None = None
    norm_mode: str = "signal"
    seed: int = 42

    def __post_init__(self):
        validate_norm_mode(self.norm_mode)
        if not 1 <= self.selection_k:
            raise ValueError(f"selection_k must be >= 1, got {self.selection_k}")
        if self.explicit_features is not None:
            self.explicit_features = validate_catalog_indices(self.explicit_features)
        # delegate the rest of the validation
        self.train_config()

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            c=self.c,
            kernel=self.kernel,
            tolerance=self.tolerance,
            max_passes=self.max_passes,
            seed=self.seed,
        )


@dataclass
class FitResult:
    """A trained model plus the fitting artifacts worth reporting."""

    model: MulticlassSvmModel
    selection: SelectionResult | None
    normalization: object = None


def prepare_dataset(dataset: Dataset, config: PipelineConfig) -> Dataset:
    """Record-level preprocessing (denoise + optional signal normalization)."""
    return preprocess_dataset(dataset, config.norm_mode)


def fit_from_features(matrix: FeatureMatrix, config: PipelineConfig) -> FitResult:
    """Fit normalization, selection and all pairwise machines on one table."""
    norm = None
    working = matrix
    if config.norm_mode in ("feature", "both"):
        norm = fit_feature_normalization(matrix)
        working = apply_feature_normalization(matrix, norm)
    if config.explicit_features is not None:
        indices = list(config.explicit_features)
        selection = None
    else:
        selection = select_features(working, config.selection_k)
        indices = list(selection.selected_indices)
    restricted = working.restrict(indices)
    model = train_multiclass(
        restricted, config.train_config(),
        feature_indices=indices, normalization=norm,
    )
    return FitResult(model=model, selection=selection, normalization=norm)


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
    """The comparison payload; `unconverged`, outside the dict, holds a
    (variant, BinarySvmModel) pair for each machine stopped by max_passes."""


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
    variants = (("selected-k", fitted_k), ("all-features", fitted_all))
    report.unconverged = [(variant, m) for variant, fitted in variants
                          for m in fitted.model.machines if not m.converged]
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
