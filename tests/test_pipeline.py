import pytest
from numpy.testing import assert_array_equal

from gsremotion.dataset import EmotionLabel
from gsremotion.features import FeatureMatrix
from gsremotion.pipeline import (
    PipelineConfig,
    comparison_report,
    evaluate_model,
    fit_from_features,
    format_comparison,
    prepare_dataset,
    predict_rows,
    subset_rows,
)
from gsremotion.preprocess import preprocess_dataset
from gsremotion.svm import TrainConfig


class TestPipelineConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.selection_k == 15
        assert config.norm_mode == "signal"
        assert config.seed == 42
        assert config.kernel.kind == "rbf"
        assert config.kernel.eta is None
        assert config.c == 1.0

    def test_train_config_mapping(self):
        config = PipelineConfig(c=2.5, seed=9)
        assert isinstance(config, TrainConfig)
        assert config.c == 2.5
        assert config.seed == 9

    def test_selection_k_must_be_positive(self):
        with pytest.raises(ValueError, match="selection_k"):
            PipelineConfig(selection_k=0)

    def test_explicit_features_are_validated(self):
        with pytest.raises(ValueError, match="ascending"):
            PipelineConfig(explicit_features=[5, 2])

    def test_bad_norm_mode(self):
        with pytest.raises(ValueError, match="norm mode"):
            PipelineConfig(norm_mode="robust")

    def test_bad_svm_params_surface_here(self):
        with pytest.raises(ValueError, match="c must"):
            PipelineConfig(c=-1.0)


def test_prepare_dataset_is_record_preprocessing(small_corpus):
    config = PipelineConfig(seed=42)
    mine = prepare_dataset(small_corpus, config)
    direct = preprocess_dataset(small_corpus, "signal")
    for a, b in zip(mine, direct):
        assert_array_equal(a.samples, b.samples)


class TestFitFromFeatures:
    def test_selection_runs_by_default(self, small_features):
        fitted = fit_from_features(small_features, PipelineConfig(seed=42))
        assert fitted.selection is not None
        assert fitted.selection.k == 15
        assert fitted.model.feature_indices == fitted.selection.selected_indices
        assert fitted.model.normalization is None

    def test_explicit_features_skip_selection(self, small_features):
        config = PipelineConfig(explicit_features=[1, 5, 9, 25], seed=42)
        fitted = fit_from_features(small_features, config)
        assert fitted.selection is None
        assert fitted.model.feature_indices == (1, 5, 9, 25)

    @pytest.mark.parametrize("mode", ["feature", "both"])
    def test_feature_norm_modes_fit_a_scaler(self, small_features, mode):
        config = PipelineConfig(norm_mode=mode, seed=42)
        fitted = fit_from_features(small_features, config)
        assert fitted.model.normalization is not None
        # prediction accepts raw rows and applies the stored scaling
        predicted = predict_rows(fitted.model, small_features.values)
        assert len(predicted) == small_features.n_rows

    def test_selection_k_capped_by_catalog(self, small_features):
        with pytest.raises(ValueError, match="k must be"):
            fit_from_features(small_features, PipelineConfig(selection_k=31))


def test_evaluate_model_requires_labels(small_features):
    fitted = fit_from_features(small_features, PipelineConfig(seed=42))
    unlabeled = FeatureMatrix(
        values=small_features.values[:3],
        record_ids=small_features.record_ids[:3],
        labels=[None, EmotionLabel.CALM, EmotionLabel.FEAR],
    )
    with pytest.raises(ValueError, match="labels"):
        evaluate_model(fitted.model, unlabeled)


def test_subset_rows_keeps_alignment(small_features):
    sub = subset_rows(small_features, [3, 0, 7])
    assert_array_equal(sub.values, small_features.values[[3, 0, 7]])
    assert sub.record_ids == [small_features.record_ids[i] for i in (3, 0, 7)]
    assert sub.labels == [small_features.labels[i] for i in (3, 0, 7)]


@pytest.fixture(scope="module")
def report(small_features):
    return comparison_report(small_features, PipelineConfig(seed=3), test_fraction=0.5)


class TestComparisonReport:
    def test_shape(self, report):
        assert report["n_train"] + report["n_test"] == 20
        assert report["k"] == 15
        assert len(report["selected_indices"]) == 15
        for variant in ("selected", "all_features"):
            for side in ("train", "test"):
                assert 0.0 <= report["accuracy"][variant][side] <= 1.0

    def test_deterministic(self, small_features, report):
        again = comparison_report(small_features, PipelineConfig(seed=3), test_fraction=0.5)
        assert again == report

    def test_format_lists_both_variants(self, report):
        text = format_comparison(report)
        assert "15 features" in text
        assert "all features" in text
        assert "train" in text and "test" in text
