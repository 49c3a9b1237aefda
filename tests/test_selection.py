import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gsremotion.features import FEATURE_NAMES
from gsremotion.selection import (
    SelectionResult,
    correlation_matrix,
    covariance_matrix,
    read_selection_indices,
    select_features,
    validate_catalog_indices,
    write_selection_json,
)
from selection_reference import select_features as reference_select_features


def pair(x, y, kind="covariance"):
    """The off-diagonal entry of the 2x2 matrix: the (co)variance of x and y."""
    matrix = covariance_matrix if kind == "covariance" else correlation_matrix
    return matrix(np.column_stack([x, y]))[0, 1]


class TestCovariance:
    def test_variance_of_123(self):
        assert pair([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(2.0 / 3.0)

    def test_constant_second_argument(self):
        assert pair([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) == 0.0

    def test_anticorrelated_pair(self):
        assert pair([1.0, 2.0], [2.0, 1.0]) == pytest.approx(-0.25)

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        assert pair(x, y) == pytest.approx(pair(y, x), rel=1e-12)
        assert pair(3.0 * x + 7.0, y) == pytest.approx(3.0 * pair(x, y), rel=1e-9)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            pair([1.0], [1.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            pair([1.0, np.nan], [1.0, 2.0])


class TestCorrelation:
    def test_perfect_positive(self):
        assert pair([1.0, 2.0, 3.0], [10.0, 20.0, 30.0], "correlation") == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pair([1.0, 2.0, 3.0], [3.0, 2.0, 1.0], "correlation") == pytest.approx(-1.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        assert pair(2.5 * x + 4.0, y, "correlation") == pytest.approx(
            pair(x, y, "correlation"), rel=1e-9)

    def test_stays_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            assert -1.0 <= pair(x, y, "correlation") <= 1.0


class TestCovarianceMatrix:
    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 6))
        got = covariance_matrix(X)
        for i in range(6):
            for j in range(6):
                direct = np.mean((X[:, i] - X[:, i].mean()) * (X[:, j] - X[:, j].mean()))
                assert abs(got[i, j] - direct) <= 1e-10
        assert_allclose(got, got.T, atol=0)

    def test_correlation_diag_and_duplicate_columns(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=50)
        X = np.column_stack([a, a, rng.normal(size=50)])
        corr = correlation_matrix(X)
        assert_allclose(np.diag(corr), 1.0)
        assert corr[0, 1] == pytest.approx(1.0)

    def test_independent_columns_nearly_uncorrelated(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(10_000, 4))
        corr = correlation_matrix(X)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) < 0.05

    def test_constant_column_correlation_zeroed(self):
        X = np.column_stack([np.ones(20), np.arange(20.0)])
        corr = correlation_matrix(X)
        assert corr[0, 1] == 0.0 and corr[1, 0] == 0.0
        assert corr[0, 0] == 1.0

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            covariance_matrix(np.ones((1, 3)))



class TestPerLabelCovariance:
    def test_default_corpus_blocks_are_psd(self, default_features):
        labels = np.array([lab.value for lab in default_features.labels])
        assert len(set(labels)) == 5
        for lab in set(labels):
            cov = covariance_matrix(default_features.values[labels == lab])
            assert cov.shape[0] == 30
            assert np.linalg.eigvalsh(cov).min() >= -1e-8


class TestSelectFeatures:
    def test_duplicate_column_is_dropped(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=60)
        b = rng.normal(size=60)
        result = select_features(np.column_stack([a, b, a]), 2)
        assert result.selected_indices == (1, 2)
        assert result.drop_order == [3]

    def test_k_equal_to_width_keeps_everything(self):
        rng = np.random.default_rng(13)
        result = select_features(rng.normal(size=(20, 5)), 5)
        assert result.selected_indices == (1, 2, 3, 4, 5)
        assert result.drop_order == []

    def test_selected_set_is_less_correlated(self, default_features):
        result = select_features(default_features.values, 15)
        corr = np.abs(result.correlation)
        sel = [i - 1 for i in result.selected_indices]

        def mean_off_diag(cols):
            sub = corr[np.ix_(cols, cols)]
            n = len(cols)
            return (sub.sum() - np.trace(sub)) / (n * (n - 1))

        assert mean_off_diag(sel) < mean_off_diag(list(range(30)))

    def test_row_order_invariance(self, default_features):
        result = select_features(default_features.values, 15)
        rng = np.random.default_rng(0)
        perm = rng.permutation(default_features.n_rows)
        shuffled = default_features.values[perm]
        assert select_features(shuffled, 15).selected_indices == result.selected_indices

    def test_positive_rescale_invariance(self, default_features):
        result = select_features(default_features.values, 15)
        scaled = default_features.values.copy()
        scaled[:, 4] *= 250.0
        scaled[:, 20] *= 1e-3
        assert select_features(scaled, 15).selected_indices == result.selected_indices

    def test_constant_column_warns_and_drops_first(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(30, 4))
        # 0.1 in every row has a nonzero float std (its mean is not exactly 0.1)
        for value in (7.0, 0.1):
            X[:, 2] = value
            result = select_features(X, 3)
            assert result.constant_indices == (3,)
            assert result.drop_order[0] == 3
            assert 3 not in result.selected_indices
            assert any("constant" in w for w in result.warnings)
            assert result.scores[2] == 0.0

    def test_k_larger_than_nonconstant_pool(self):
        X = np.random.default_rng(15).normal(size=(10, 3))
        X[:, 1] = 0.0
        with pytest.raises(ValueError, match="non-constant"):
            select_features(X, 3)

    @pytest.mark.parametrize("k", [0, 31])
    def test_k_out_of_range(self, default_features, k):
        with pytest.raises(ValueError, match="k must be"):
            select_features(default_features.values, k)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="2 rows"):
            select_features(np.ones((1, 3)), 1)

    def test_scores_cover_unit_interval(self, default_features):
        result = select_features(default_features.values, 15)
        assert np.all(result.scores >= 0.0)
        assert np.all(result.scores <= 1.0)


class TestReferenceParity:
    """One argmax per step picks the pair the pairwise scan loop picked."""

    @staticmethod
    def assert_same(X, k):
        got = select_features(X, k)
        selected, drop_order, scores = reference_select_features(X, k)
        assert list(got.selected_indices) == selected
        assert got.drop_order == drop_order
        assert got.scores.tobytes() == scores.tobytes()

    @pytest.mark.parametrize("k", [1, 5, 15, 29, 30])
    def test_default_corpus(self, default_features, k):
        if k == 30:  # column 30 (peak_freq) is 1/60 Hz in every row
            with pytest.raises(ValueError, match="only 29 non-constant features available"):
                select_features(default_features.values, k)
            return
        self.assert_same(default_features.values, k)

    def test_tie_heavy_integer_tables(self):
        # values 0..2 over 2-11 rows: many tied correlations and constant columns
        rng = np.random.default_rng(11)
        for _ in range(200):
            X = rng.integers(0, 3, size=(rng.integers(2, 12), 30)).astype(np.float64)
            varying = int(np.count_nonzero(X.std(axis=0)))
            for k in {1, varying // 2, varying} - {0}:
                self.assert_same(X, k)


class TestSelectionResultValidation:
    def test_must_be_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            SelectionResult(selected_indices=(2, 1))


class TestSelectionJson:
    def test_round_trip(self, default_features, tmp_path):
        result = select_features(default_features.values, 15)
        path = str(tmp_path / "selection.json")
        write_selection_json(result, path)
        assert read_selection_indices(path) == list(result.selected_indices)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["k"] == 15
        assert payload["selected_names"] == [
            FEATURE_NAMES[i - 1] for i in result.selected_indices
        ]
        corr = np.array(payload["correlation"])
        assert corr.shape == (30, 30)
        assert_allclose(corr, result.correlation, atol=0)

    def test_missing_indices_rejected(self, tmp_path):
        path = tmp_path / "sel.json"
        path.write_text(json.dumps({"k": 2}))
        with pytest.raises(ValueError, match="selected_indices"):
            read_selection_indices(str(path))


class TestValidateCatalogIndices:
    def test_passes_good_list(self):
        assert validate_catalog_indices([1, 5, 30]) == [1, 5, 30]

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            validate_catalog_indices([0])
        with pytest.raises(ValueError, match="out of range"):
            validate_catalog_indices([31])

    def test_non_integer(self):
        with pytest.raises(ValueError, match="out of range"):
            validate_catalog_indices([2.5])

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_boolean_is_not_an_index(self, flag):
        with pytest.raises(ValueError, match="boolean"):
            validate_catalog_indices([flag, 3])

    @pytest.mark.parametrize("index", [3.0, np.float64(3.0), np.float32(3.0)])
    def test_integral_float_is_not_an_index(self, index):
        with pytest.raises(ValueError, match=r"^catalog index .*3\.0\)? is a float(32|64)?, not an "):
            validate_catalog_indices([1, index])

    def test_numpy_integers_pass(self):
        assert validate_catalog_indices(np.array([2, 7])) == [2, 7]

    def test_duplicates(self):
        with pytest.raises(ValueError, match="unique"):
            validate_catalog_indices([1, 1])

    def test_unsorted(self):
        with pytest.raises(ValueError, match="ascending"):
            validate_catalog_indices([5, 2])

    def test_empty_list_refused(self):
        with pytest.raises(ValueError, match="catalog index list is empty"):
            validate_catalog_indices([])
