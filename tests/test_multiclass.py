import dataclasses
import json
import re
import warnings
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gsremotion.dataset import LABEL_ORDER, EmotionLabel
from gsremotion.features import (
    CATALOG_VERSION,
    N_FEATURES,
    FeatureMatrix,
    extract_dataset_features,
    fit_feature_normalization,
)
from gsremotion.kernels import KernelSpec, squared_norms
from gsremotion.pipeline import PipelineConfig, fit_from_features, predict_rows, prepare_dataset
from gsremotion.svm import (
    MODEL_FORMAT_VERSION,
    BinarySvmModel,
    MulticlassSvmModel,
    TrainConfig,
    _prepare_rows,
    decision_values,
    load_model,
    predict_batch,
    save_model,
    train_binary,
    train_multiclass,
)

from conftest import delete_key, key_paths
from reference_checks import gram_reference

H, G, C = EmotionLabel.HAPPINESS, EmotionLabel.GRIEF, EmotionLabel.CALM
ALL_COLUMNS = range(1, N_FEATURES + 1)


@pytest.fixture(scope="module")
def fitted(small_features):
    return fit_from_features(small_features, PipelineConfig(seed=42))


@pytest.fixture(scope="module")
def both_model(small_features):
    return fit_from_features(small_features, PipelineConfig(norm_mode="both", seed=42)).model


def vote_model(labels=(H, G, C)):
    """One-vs-one model whose k-th pairwise machine decides by catalog column k + 1.

    Each machine is linear with one unit support vector, so f(x) is exactly
    that column's value. Machine k decides the k-th pair of labels, so with
    the default labels (H,G), (H,C) and (G,C) read columns 1, 2 and 3.
    """
    n_pairs = len(labels) * (len(labels) - 1) // 2
    machines = [
        BinarySvmModel(support_vectors=np.eye(n_pairs)[[k]], dual_coef=np.ones(1),
                       bias=0.0, kernel=KernelSpec(kind="linear"))
        for k in range(n_pairs)
    ]
    return MulticlassSvmModel(machines=machines, label_order=labels,
                              feature_indices=range(1, n_pairs + 1))


def pair_machines(model, matrix):
    """Machine i of a model fitted on matrix, trained alone: on the rows of the
    i-th pair of label_order, +1 for the pair's first label."""
    rows = _prepare_rows(model.normalization, model.feature_indices, matrix.values)
    labels = np.array([lab.value for lab in matrix.labels])
    for a, b in combinations(model.label_order, 2):
        pick = (labels == a.value) | (labels == b.value)
        yield train_binary(rows[pick], np.where(labels[pick] == a.value, 1.0, -1.0),
                           model.config)


def assert_same_machine(a, b):
    assert a.bias == b.bias
    assert_array_equal(a.dual_coef, b.dual_coef)
    assert_array_equal(a.support_vectors, b.support_vectors)


def catalog_row(decisions):
    """A full-width catalog row that starts with the machines' decision values."""
    row = np.zeros(N_FEATURES)
    row[:len(decisions)] = decisions
    return row


class TestComposition:
    def test_five_labels_give_ten_machines(self, fitted, small_features):
        model = fitted.model
        assert len(model.machines) == 10
        assert model.label_order == LABEL_ORDER
        # machine i is the machine of the i-th label pair, bit for bit
        for m, alone in zip(model.machines, pair_machines(model, small_features),
                            strict=True):
            assert_same_machine(m, alone)

    def test_two_labels_reduce_to_one_binary_machine(self, small_features):
        rows = [i for i, lab in enumerate(small_features.labels)
                if lab in (EmotionLabel.ANGER, EmotionLabel.CALM)]
        sub = FeatureMatrix(
            values=small_features.values[rows],
            record_ids=[small_features.record_ids[i] for i in rows],
            labels=[small_features.labels[i] for i in rows],
        )
        config = TrainConfig(kernel=KernelSpec(kind="rbf"))
        mc = train_multiclass(sub, config, ALL_COLUMNS, None)
        assert len(mc.machines) == 1
        assert mc.label_order == (EmotionLabel.ANGER, EmotionLabel.CALM)

        y = np.where([lab is EmotionLabel.ANGER for lab in sub.labels], 1.0, -1.0)
        binary = train_binary(sub.values, y, config)
        f = decision_values(binary, sub.values)
        by_sign = [EmotionLabel.ANGER if v > 0 else EmotionLabel.CALM for v in f]
        assert predict_batch(mc, sub.values) == by_sign

    def test_training_rows_predict_themselves(self, fitted, small_features):
        predicted = predict_rows(fitted.model, small_features.values)
        acc = np.mean([p == t for p, t in zip(predicted, small_features.labels)])
        assert acc >= 0.9

    def test_predict_accepts_single_rows(self, fitted, small_features):
        batch = predict_rows(fitted.model, small_features.values)
        assert predict_batch(fitted.model, small_features.values[0][None])[0] == batch[0]

    def test_unlabeled_training_rows_rejected(self, small_features):
        bad = FeatureMatrix(values=small_features.values[:4],
                            record_ids=small_features.record_ids[:4],
                            labels=[None] * 4)
        with pytest.raises(ValueError, match="labels"):
            train_multiclass(bad, TrainConfig(), ALL_COLUMNS, None)

    def test_single_label_rejected(self, small_features):
        rows = [i for i, lab in enumerate(small_features.labels)
                if lab is EmotionLabel.CALM]
        sub = FeatureMatrix(values=small_features.values[rows],
                            record_ids=[small_features.record_ids[i] for i in rows],
                            labels=[small_features.labels[i] for i in rows])
        with pytest.raises(ValueError, match="2 distinct labels"):
            train_multiclass(sub, TrainConfig(), ALL_COLUMNS, None)

    def test_machine_count_is_validated(self):
        with pytest.raises(ValueError, match="^0 machines for 3 labels: need one per label pair$"):
            MulticlassSvmModel(machines=[], label_order=(H, G, C),
                               feature_indices=(1,))

    def test_needs_two_labels(self):
        with pytest.raises(ValueError, match="at least 2 labels"):
            MulticlassSvmModel(machines=[], label_order=(H,), feature_indices=(1,))


# (H,G), (H,C), (G,C) decisions for each voting outcome
MAJORITY = [1.0, -1.0, -1.0]  # H beats G, C beats H, C beats G: two votes for C
STRENGTH_TIE = [0.5, -3.0, 1.0]  # one vote each; C's single win is the strongest
ORDER_TIE = [1.0, -1.0, 1.0]  # one vote each, all with |f| = 1: first label wins


class TestVoting:
    def test_majority_wins(self):
        assert predict_batch(vote_model(), catalog_row(MAJORITY)[None])[0] is C

    def test_vote_tie_broken_by_decision_strength(self):
        assert predict_batch(vote_model(), catalog_row(STRENGTH_TIE)[None])[0] is C

    def test_strength_tie_falls_back_to_label_order(self):
        assert predict_batch(vote_model(), catalog_row(ORDER_TIE)[None])[0] is H

    def test_every_machine_contributes_one_vote(self):
        # H beats both, G beats C
        assert predict_batch(vote_model(), catalog_row([1.0, 1.0, 1.0])[None])[0] is H

    def test_one_batch_resolves_every_outcome(self):
        rows = np.stack([catalog_row(d) for d in (MAJORITY, STRENGTH_TIE, ORDER_TIE)])
        assert predict_batch(vote_model(), rows) == [C, C, H]

    def test_batch_vote_matches_per_row_reference(self):
        # decisions from a small set, so vote and strength ties are common
        decisions = np.random.default_rng(0).choice([-2.0, -1.0, 1.0, 2.0], size=(500, 10))
        expected = []
        for row in decisions:
            votes = dict.fromkeys(LABEL_ORDER, 0)
            strengths = dict.fromkeys(LABEL_ORDER, 0.0)
            for (a, b), f in zip(combinations(LABEL_ORDER, 2), row):
                winner = a if f > 0 else b
                votes[winner] += 1
                strengths[winner] += abs(f)
            expected.append(max(LABEL_ORDER, key=lambda lab: (
                votes[lab], strengths[lab], -LABEL_ORDER.index(lab))))
        rows = np.stack([catalog_row(d) for d in decisions])
        assert predict_batch(vote_model(LABEL_ORDER), rows) == expected


class TestWarnings:
    def test_unconverged_machines_named_by_position(self):
        model = vote_model()
        for k, iterations, gap in ((0, 7, 0.5), (2, 9, 0.0123456)):
            m = model.machines[k]
            m.converged, m.iterations, m.final_violation = False, iterations, gap
        assert model.warnings("fold 2: ") == [
            "fold 2: machine happiness/grief did not converge: stopped after 7 "
            "iterations with KKT gap 0.5",
            "fold 2: machine grief/calm did not converge: stopped after 9 "
            "iterations with KKT gap 0.01235",
        ]


class TestBatchPath:
    @pytest.mark.parametrize("mode", ["signal", "both"])
    def test_batch_matches_single_rows(self, small_features, mode):
        model = fit_from_features(small_features,
                                  PipelineConfig(norm_mode=mode, seed=42)).model
        batch = predict_batch(model, small_features.values)
        assert batch == [predict_batch(model, row[None])[0] for row in small_features.values]


@pytest.fixture(scope="module", params=["signal", "both"])
def default_fit(request, default_corpus):
    """The seed-42 model of the default corpus, and that corpus's feature table."""
    config = PipelineConfig(norm_mode=request.param, seed=42)
    matrix = extract_dataset_features(prepare_dataset(default_corpus, config))
    return fit_from_features(matrix, config).model, matrix


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPredictionConstants:
    """A machine keeps its support vectors' squared norms, and predict_batch
    computes its rows' norms once per call; no decision value moves a bit."""

    def test_decision_values_match_the_reference_gram(self, default_fit):
        model, matrix = default_fit
        rows = _prepare_rows(model.normalization, model.feature_indices, matrix.values)
        norms = squared_norms(rows)
        for m in model.machines:
            want = gram_reference(m.kernel, rows, m.support_vectors) @ m.dual_coef + m.bias
            assert_same_bits(decision_values(m, rows, norms), want)
            assert_same_bits(decision_values(m, rows), want)

    def test_machines_keep_their_support_norms(self, default_fit, tmp_path):
        model, _ = default_fit
        path = str(tmp_path / "model.json")
        save_model(model, path)
        halves = [dataclasses.replace(m, support_vectors=m.support_vectors[::2],
                                      dual_coef=m.dual_coef[::2]) for m in model.machines]
        for machines in (model.machines, load_model(path).machines, halves):
            for m in machines:
                assert_same_bits(m.support_norms, squared_norms(m.support_vectors))


    def test_only_rbf_squares_support_vectors_and_rows(self):
        """Norms too large for a float are refused where rbf needs them; the
        linear kernel reads none, so its values may be that large."""
        huge = {"support_vectors": [[1e200, 0.0]], "dual_coef": [1.0], "bias": 0.0}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^kernel matrix overflows"):
                BinarySvmModel(**huge, kernel=KernelSpec(eta=1.0))
            linear = BinarySvmModel(**huge, kernel=KernelSpec(kind="linear"))
            assert linear.support_norms is None
            assert decision_values(linear, [[2.0, 0.0]])[0] == 2e200
            assert predict_batch(vote_model(), catalog_row([1e200, -1e200, 1.0])[None]) == [H]


class TestPrepareRows:
    def test_full_catalog_rows_are_restricted(self, fitted, small_features):
        k = len(fitted.model.feature_indices)
        cols = [i - 1 for i in fitted.model.feature_indices]
        with pytest.raises(ValueError, match=f"rows have {k} columns.* {N_FEATURES} columns"):
            predict_batch(fitted.model, small_features.values[:, cols])

    def test_training_prepares_rows_as_prediction(self, small_features):
        norm = fit_feature_normalization(small_features)
        model = train_multiclass(small_features, TrainConfig(), (2, 4, 9), norm)
        prepared = norm.scale(small_features.values)[:, [1, 3, 8]]
        for m in model.machines:
            assert all((prepared == sv).all(axis=1).any() for sv in m.support_vectors)

    def test_training_refuses_restricted_rows(self, small_features):
        restricted = FeatureMatrix(values=small_features.values[:, [1, 3, 8]],
                                   record_ids=small_features.record_ids,
                                   labels=small_features.labels)
        with pytest.raises(ValueError, match=f"rows have 3 columns.* {N_FEATURES} columns"):
            train_multiclass(restricted, TrainConfig(), (2, 4, 9), None)

    def test_incompatible_width_rejected(self, fitted):
        with pytest.raises(ValueError, match="columns"):
            predict_batch(fitted.model, np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_rejected(self, fitted, small_features, bad):
        rows = small_features.values[:2].copy()
        rows[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            predict_batch(fitted.model, rows)

    def test_overflowing_kernel_rejected(self, fitted, small_features):
        rows = small_features.values[:2] * 1e300
        with pytest.raises(ValueError, match="kernel matrix overflows"):
            predict_batch(fitted.model, rows)

    def test_1d_rows_rejected(self, fitted):
        with pytest.raises(ValueError, match="2-D"):
            predict_batch(fitted.model, np.ones(30))


class TestSerialization:
    def test_round_trip_is_bit_exact(self, fitted, small_features, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(fitted.model, path)
        loaded = load_model(path)
        assert loaded.label_order == fitted.model.label_order
        assert loaded.feature_indices == fitted.model.feature_indices
        with open(path) as fh:
            assert json.load(fh)["catalog_version"] == CATALOG_VERSION
        assert loaded.config.c == fitted.model.config.c
        assert loaded.config.kernel == fitted.model.config.kernel
        for a, b in zip(loaded.machines, fitted.model.machines):
            assert_same_machine(a, b)
            assert a.kernel == b.kernel
            assert (a.iterations, a.converged, a.final_violation) == (
                b.iterations, b.converged, b.final_violation)

    def test_loaded_model_predicts_identically(self, fitted, small_features, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(fitted.model, path)
        loaded = load_model(path)
        assert (predict_rows(loaded, small_features.values)
                == predict_rows(fitted.model, small_features.values))

    def test_normalization_round_trip(self, small_features, tmp_path):
        config = PipelineConfig(norm_mode="feature", seed=42)
        fit = fit_from_features(small_features, config)
        assert fit.model.normalization is not None
        path = str(tmp_path / "model.json")
        save_model(fit.model, path)
        loaded = load_model(path)
        assert_array_equal(loaded.normalization.mins, fit.model.normalization.mins)
        assert_array_equal(loaded.normalization.maxs, fit.model.normalization.maxs)
        assert (predict_rows(loaded, small_features.values)
                == predict_rows(fit.model, small_features.values))

    def test_future_format_version_rejected(self, fitted, tmp_path):
        path = tmp_path / "model.json"
        save_model(fitted.model, str(path))
        payload = json.loads(path.read_text())
        payload["format_version"] = 5
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format_version"):
            load_model(str(path))

    def test_v1_layout_rejected(self, both_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(both_model, str(path))
        payload = json.loads(path.read_text())
        payload["format_version"] = 1
        kernel = dict(payload["config"]["kernel"], eta=float(1 / 15).hex())
        for m, (a, b) in zip(payload["machines"], combinations(LABEL_ORDER, 2)):
            m.update(labels=[a.value, b.value], kernel=kernel, n_features=15)
        norm = payload["normalization"]
        norm["degenerate"] = [lo == hi for lo, hi in zip(norm["mins"], norm["maxs"])]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: model format_version 1 "
                                             r"unsupported \(expected 4\)"):
            load_model(str(path))

    def test_saved_file_stores_each_fact_once(self, both_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(both_model, str(path))
        payload = json.loads(path.read_text())
        assert payload["format_version"] == MODEL_FORMAT_VERSION == 4
        assert set(payload["config"]) == {"c", "kernel", "seed"}
        assert set(payload["config"]["kernel"]) == {"kind", "eta"}
        for m in payload["machines"]:
            assert set(m) == {"bias", "dual_coef", "support_vectors", "iterations",
                              "converged", "final_violation"}
        assert set(payload["normalization"]) == {"mins", "maxs"}

    @pytest.mark.parametrize("norm_mode", ["signal", "both"])
    def test_machines_derive_kernel_and_label_pair(self, small_features, tmp_path, norm_mode):
        model = fit_from_features(small_features,
                                  PipelineConfig(norm_mode=norm_mode, seed=42)).model
        path = str(tmp_path / "model.json")
        save_model(model, path)
        loaded = load_model(path)
        kernel = loaded.config.kernel.resolved(len(loaded.feature_indices))
        assert kernel.eta == 1 / len(loaded.feature_indices)
        # loaded machine i is the machine of the i-th label pair
        for m, alone in zip(loaded.machines, pair_machines(loaded, small_features),
                            strict=True):
            assert m.kernel == kernel
            assert_same_machine(m, alone)

    def test_model_with_mismatched_kernel_not_saved(self, fitted, tmp_path):
        model = MulticlassSvmModel(machines=fitted.model.machines,
                                   label_order=fitted.model.label_order,
                                   feature_indices=fitted.model.feature_indices,
                                   config=TrainConfig(kernel=KernelSpec(kind="linear")))
        with pytest.raises(ValueError, match="config.kernel"):
            save_model(model, str(tmp_path / "model.json"))

    def test_foreign_kind_rejected(self, fitted, tmp_path):
        path = tmp_path / "model.json"
        save_model(fitted.model, str(path))
        payload = json.loads(path.read_text())
        payload["kind"] = "random_forest"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="one_vs_one_svm"):
            load_model(str(path))

    @pytest.mark.parametrize("key_path", [
        ("machines", 0, "bias"),
        ("machines", 3, "support_vectors"),
        ("config", "kernel"),
        ("label_order",),
        ("catalog_version",),
    ])
    def test_missing_key_rejected(self, fitted, tmp_path, key_path):
        path = tmp_path / "model.json"
        save_model(fitted.model, str(path))
        payload = json.loads(path.read_text())
        delete_key(payload, key_path)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*missing key '{key_path[-1]}'"):
            load_model(str(path))

    def test_every_missing_key_rejected(self, both_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(both_model, str(path))
        text = path.read_text()
        paths = list(key_paths(json.loads(text)))
        assert len(paths) == 8 + 3 + 2 + 2 + 10 * 6  # top, config, kernel, norm, machines
        for key_path in paths:
            payload = json.loads(text)
            delete_key(payload, key_path)
            path.write_text(json.dumps(payload))
            message = {("format_version",): "format_version None unsupported",
                       ("kind",): "not a one_vs_one_svm model file"}.get(
                key_path, f"missing key {key_path[-1]!r}")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
                load_model(str(path))

    @pytest.mark.parametrize("key_path, value", [
        (("machines",), None),
        (("machines", 0, "bias"), 1.5),
        (("config", "seed"), [1]),
    ])
    def test_wrong_type_rejected(self, fitted, tmp_path, key_path, value):
        path = tmp_path / "model.json"
        save_model(fitted.model, str(path))
        payload = json.loads(path.read_text())
        parent = payload
        for step in key_path[:-1]:
            parent = parent[step]
        parent[key_path[-1]] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*wrong type"):
            load_model(str(path))

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*wrong type"):
            load_model(str(path))

    @pytest.mark.parametrize("field, value, message", [
        ("feature_indices", [1, 31], "out of range 1..30"),
        ("catalog_version", 2, "catalog_version 2"),
    ])
    def test_out_of_catalog_model_rejected(self, fitted, tmp_path, field, value, message):
        path = tmp_path / "model.json"
        save_model(fitted.model, str(path))
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_model(str(path))

    def test_truncated_file_rejected(self, fitted, tmp_path):
        path = tmp_path / "model.json"
        save_model(fitted.model, str(path))
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_model(str(path))


def drop_last_feature(payload):
    payload["feature_indices"].pop()


def drop_last_label(payload):
    payload["label_order"] = payload["label_order"][:4]


def add_a_machine(payload):
    payload["machines"].append(payload["machines"][0])


def narrow_the_normalization(payload):
    for key in ("mins", "maxs"):
        payload["normalization"][key].pop()


def nan_bias(payload):
    payload["machines"][0]["bias"] = "nan"


def inf_support_value(payload):
    payload["machines"][0]["support_vectors"][0][0] = "inf"


def minus_inf_dual_coef(payload):
    payload["machines"][0]["dual_coef"][0] = "-inf"


def nan_normalization_min(payload):
    payload["normalization"]["mins"][0] = "nan"


class TestInconsistentModelFile:
    """A model file whose parts disagree is refused by name when loaded."""

    @pytest.fixture(scope="class")
    def scaled(self, small_features):
        return fit_from_features(small_features,
                                 PipelineConfig(norm_mode="feature", seed=42)).model

    @pytest.mark.parametrize("edit, message", [
        (drop_last_feature, "features wide, the model has 14"),
        (drop_last_label, "10 machines for 4 labels: need one per label pair"),
        (add_a_machine, "11 machines for 5 labels: need one per label pair"),
        (narrow_the_normalization, "normalization has 29 columns, expected 30"),
        (nan_bias, "bias must be finite"),
        (inf_support_value, "bias must be finite"),
        (minus_inf_dual_coef, "bias must be finite"),
        (nan_normalization_min, "mins and maxs must be finite"),
    ], ids=lambda v: getattr(v, "__name__", ""))
    def test_refused_with_the_file_named(self, scaled, tmp_path, edit, message):
        path = tmp_path / "model.json"
        save_model(scaled, str(path))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            load_model(str(path))
