import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gsremotion import evaluate
from gsremotion.dataset import LABEL_ORDER, EmotionLabel
from gsremotion.evaluate import (
    ConfusionMatrix,
    HeldOutGuard,
    accuracy,
    format_confusion,
    format_rates,
    format_sampled_rates,
    kfold_cross_validate,
    per_label_rates,
    sampled_label_rates,
    stratified_kfold_indices,
)
from gsremotion.features import extract_dataset_features
from gsremotion.pipeline import PipelineConfig, fit_from_features, predict_rows, prepare_dataset

H, G, F, A, C = LABEL_ORDER


def cm(counts):
    return ConfusionMatrix(counts=np.array(counts), label_order=LABEL_ORDER)


def diag(values):
    return cm(np.diag(values))


class TestConfusionMatrix:
    def test_from_predictions_perfect(self):
        truth = [H, G, F, A, C, C]
        built = ConfusionMatrix.from_predictions(truth, truth)
        assert_array_equal(built.counts, np.diag([1, 1, 1, 1, 2]))
        assert built.total == 6

    def test_from_predictions_everything_called_calm(self):
        truth = [H, G, F, A, C]
        built = ConfusionMatrix.from_predictions(truth, [C] * 5)
        expect = np.zeros((5, 5), dtype=int)
        expect[:, 4] = 1
        assert_array_equal(built.counts, expect)

    def test_rows_are_truth_columns_are_predictions(self):
        built = ConfusionMatrix.from_predictions([H, H], [G, H])
        assert built.counts[0, 1] == 1  # true H predicted G
        assert built.counts[1, 0] == 0

    def test_custom_label_order(self):
        built = ConfusionMatrix.from_predictions([A, C], [A, A], label_order=(A, C))
        assert built.counts.shape == (2, 2)
        assert built.counts[1, 0] == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="truths"):
            ConfusionMatrix.from_predictions([H], [H, G])

    def test_empty_input(self):
        with pytest.raises(ValueError, match="zero rows"):
            ConfusionMatrix.from_predictions([], [])

    def test_label_outside_order(self):
        with pytest.raises(ValueError, match="not in label order"):
            ConfusionMatrix.from_predictions([H], [C], label_order=(H, G))

    def test_add_accumulates(self):
        total = diag([1, 0, 0, 0, 0]).add(diag([0, 2, 0, 0, 0]))
        assert_array_equal(total.counts, np.diag([1, 2, 0, 0, 0]))

    def test_add_requires_same_order(self):
        a = ConfusionMatrix(counts=np.zeros((2, 2)), label_order=(H, G))
        b = ConfusionMatrix(counts=np.zeros((2, 2)), label_order=(G, H))
        with pytest.raises(ValueError, match="label orders"):
            a.add(b)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            cm(np.diag([1, 1, 1, 1, -1]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ConfusionMatrix(counts=np.zeros((3, 3)), label_order=LABEL_ORDER)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(diag([2, 2, 2, 2, 2])) == 1.0

    def test_one_in_five(self):
        counts = np.zeros((5, 5), dtype=int)
        counts[0, 0] = 1
        counts[1:, 0] = 1  # four wrong rows
        assert accuracy(cm(counts)) == pytest.approx(0.2)

    def test_all_wrong(self):
        counts = np.zeros((5, 5), dtype=int)
        counts[0, 1] = 3
        assert accuracy(cm(counts)) == 0.0

    def test_empty_matrix(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy(cm(np.zeros((5, 5), dtype=int)))


class TestPerLabelRates:
    def test_perfect_rates(self):
        rates = per_label_rates(diag([1, 2, 3, 4, 5]))
        assert rates == {lab: 1.0 for lab in LABEL_ORDER}

    def test_fear_row_fully_correct(self):
        counts = np.diag([1, 1, 3, 1, 1])
        assert per_label_rates(cm(counts))[F] == 1.0

    def test_partially_correct_row(self):
        counts = np.diag([0, 1, 1, 1, 1])
        counts[0] = [1, 0, 0, 0, 2]  # happiness: 1 of 3 right
        rates = per_label_rates(cm(counts))
        assert rates[H] == pytest.approx(1.0 / 3.0)
        assert rates[C] == 1.0

    def test_unscored_label_is_an_error(self):
        with pytest.raises(ValueError, match="anger"):
            per_label_rates(diag([1, 1, 1, 0, 1]))


class TestStratifiedKfold:
    def test_folds_partition_the_rows(self):
        labels = [C] * 7 + [F] * 5
        folds = stratified_kfold_indices(labels, 3, seed=0)
        assert sorted(i for fold in folds for i in fold) == list(range(12))

    def test_per_label_fold_sizes_differ_by_at_most_one(self):
        labels = [C] * 7 + [F] * 5
        folds = stratified_kfold_indices(labels, 3, seed=0)
        for lab, rows in ((C, range(7)), (F, range(7, 12))):
            sizes = [len(set(fold) & set(rows)) for fold in folds]
            assert max(sizes) - min(sizes) <= 1

    def test_leave_one_out_shape(self):
        folds = stratified_kfold_indices([C] * 10, 10, seed=1)
        assert [len(f) for f in folds] == [1] * 10

    def test_deterministic_in_seed(self):
        labels = [C] * 6 + [A] * 6
        assert (stratified_kfold_indices(labels, 3, seed=5)
                == stratified_kfold_indices(labels, 3, seed=5))
        assert (stratified_kfold_indices(labels, 3, seed=5)
                != stratified_kfold_indices(labels, 3, seed=6))

    def test_k_below_two(self):
        with pytest.raises(ValueError, match="k must be"):
            stratified_kfold_indices([C] * 4, 1, seed=0)

    def test_label_smaller_than_k(self):
        with pytest.raises(ValueError, match="cannot stratify"):
            stratified_kfold_indices([C] * 4 + [F] * 2, 3, seed=0)


class TestHeldOutGuard:
    def test_counts_reads_only_while_armed(self):
        guard = HeldOutGuard(np.ones((2, 3)))
        _ = guard.values
        assert guard.access_count == 0
        guard.arm()
        _ = guard.values
        _ = guard.values
        assert guard.access_count == 2
        guard.disarm()
        _ = guard.values
        assert guard.access_count == 2

    def test_values_are_read_only(self):
        guard = HeldOutGuard(np.ones((2, 3)))
        with pytest.raises(ValueError):
            guard.values[0, 0] = 5.0


@pytest.fixture(scope="module")
def report(small_corpus):
    return kfold_cross_validate(small_corpus, 2, PipelineConfig(seed=42), seed=42)


class TestCrossValidation:
    def test_no_held_out_access_during_fit(self, report):
        assert report.heldout_accesses == 0

    def test_deterministic(self, small_corpus, report):
        again = kfold_cross_validate(small_corpus, 2, PipelineConfig(seed=42), seed=42)
        assert again.fold_accuracies == report.fold_accuracies
        assert_array_equal(again.confusion.counts, report.confusion.counts)

    def test_every_row_scored_once(self, small_corpus, report):
        assert report.confusion.total == len(small_corpus)
        assert len(report.fold_accuracies) == 2

    def test_mean_and_std_derive_from_folds(self, report):
        acc = np.asarray(report.fold_accuracies)
        assert report.mean_accuracy == pytest.approx(acc.mean(), abs=1e-12)
        assert report.std_accuracy == pytest.approx(acc.std(), abs=1e-12)

    def test_to_dict_carries_the_audit_counter(self, report):
        payload = report.to_dict()
        assert payload["k"] == 2
        assert payload["heldout_accesses_during_fit"] == 0
        assert payload["fold_accuracies"] == report.fold_accuracies
        assert payload["label_order"] == [lab.value for lab in LABEL_ORDER]

    def test_leaky_protocol_cannot_score_lower(self, default_corpus):
        # refitting on the full table before scoring each fold leaks the
        # held-out rows; its mean accuracy bounds the honest protocol's
        config = PipelineConfig(seed=42)
        honest = kfold_cross_validate(default_corpus, 5, config, seed=42)
        prepared = prepare_dataset(default_corpus, config)
        matrix = extract_dataset_features(prepared)
        leaky = []
        fitted = fit_from_features(matrix, config)
        for rows in stratified_kfold_indices(matrix.labels, 5, 42):
            predicted = predict_rows(fitted.model, matrix.values[rows])
            truth = [matrix.labels[i] for i in rows]
            correct = sum(1 for p, t in zip(predicted, truth) if p == t)
            leaky.append(correct / len(rows))
        assert np.mean(leaky) >= honest.mean_accuracy - 1e-9


class TestSampledRates:
    def build(self, accuracy_by_label):
        truth, predicted = [], []
        for lab, good in accuracy_by_label.items():
            for i in range(5):
                truth.append(lab)
                predicted.append(lab if i < good else
                                 (C if lab is not C else H))
        return truth, predicted

    def test_three_per_label_lands_on_the_grid(self):
        truth, predicted = self.build({lab: 3 for lab in LABEL_ORDER})
        rates = sampled_label_rates(truth, predicted, seed=0)
        grid = (0.0, 100.0 / 3.0, 200.0 / 3.0, 100.0)
        for entry in rates.values():
            assert entry["n"] == 3
            assert any(abs(entry["percent"] - g) < 1e-9 for g in grid)

    def test_deterministic_in_seed(self):
        truth, predicted = self.build({lab: 2 for lab in LABEL_ORDER})
        assert (sampled_label_rates(truth, predicted, seed=9)
                == sampled_label_rates(truth, predicted, seed=9))

    def test_small_labels_report_what_exists(self):
        rates = sampled_label_rates([A, A], [A, C], seed=0)
        assert set(rates) == {A}
        assert rates[A]["n"] == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="truths"):
            sampled_label_rates([A], [A, C], seed=0)

    def test_sample_size_is_one_constant(self, monkeypatch):
        monkeypatch.setattr(evaluate, "SAMPLED_PER_LABEL", 2)
        truth, predicted = self.build({lab: 3 for lab in LABEL_ORDER})
        rates = sampled_label_rates(truth, predicted, seed=0)
        assert all(entry["n"] == 2 for entry in rates.values())
        assert "on a 2-record sample" in format_sampled_rates(rates)

    def test_format_says_not_a_statistic(self):
        truth, predicted = self.build({lab: 3 for lab in LABEL_ORDER})
        text = format_sampled_rates(sampled_label_rates(truth, predicted, seed=0))
        assert "not a statistic" in text
        for lab in LABEL_ORDER:
            assert lab.value in text


class TestFormatting:
    def test_confusion_table_lists_all_labels(self):
        text = format_confusion(diag([1, 2, 3, 4, 5]))
        assert "true\\pred" in text
        for lab in LABEL_ORDER:
            assert lab.value in text
        assert len(text.splitlines()) == 6

    def test_rates_table_ends_with_overall(self):
        text = format_rates(diag([1, 2, 3, 4, 5]))
        last = text.splitlines()[-1]
        assert last.startswith("overall")
        assert "1.0000" in last
