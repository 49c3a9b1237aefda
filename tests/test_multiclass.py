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
from gsremotion import svm
from gsremotion.kernels import KernelSpec, gram, squared_norms
from gsremotion.pipeline import PipelineConfig, fit_from_features, predict_rows, prepare_dataset
from gsremotion.synth import SynthConfig, generate_dataset
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
    rows = _prepare_rows(model.normalization, model.columns, matrix.values)
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

    @pytest.mark.parametrize("kernels", [
        [KernelSpec(kind="linear"), KernelSpec(kind="rbf", eta=1.0), KernelSpec(kind="linear")],
        [KernelSpec(kind="rbf", eta=1.0), KernelSpec(kind="rbf", eta=0.5),
         KernelSpec(kind="rbf", eta=1.0)],
    ], ids=["linear-and-rbf", "two-etas"])
    def test_machines_of_different_kernels_refused(self, kernels):
        """The machines share one pool of support vectors, so one kernel."""
        machines = [BinarySvmModel(support_vectors=np.eye(3)[[k]], dual_coef=np.ones(1),
                                   bias=0.0, kernel=spec) for k, spec in enumerate(kernels)]
        with pytest.raises(ValueError, match="^machines must all use one kernel, got 2: "):
            MulticlassSvmModel(machines=machines, label_order=(H, G, C),
                               feature_indices=(1, 2, 3))


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


def vote_reference(f, n_labels):
    """Votes and strengths of the (machines x rows) decision table f, one
    machine and one row at a time: each strength is summed in machine order
    from 0.0."""
    votes = np.zeros((f.shape[1], n_labels), dtype=np.int64)
    strengths = np.zeros(votes.shape)
    for (a, b), row in zip(combinations(range(n_labels), 2), f, strict=True):
        for r, value in enumerate(row):
            winner = a if value > 0 else b
            votes[r, winner] += 1
            strengths[r, winner] += abs(value)
    return votes, strengths


def reference_labels(votes, strengths, order):
    """Most votes, then the largest strength, then the first label."""
    return [order[max(range(len(order)), key=lambda i: (v[i], s[i], -i))]
            for v, s in zip(votes, strengths)]


# decision values that tie often: exact strength ties, and sums such as
# 0.1 + 0.2 that differ in their last bit from 0.3, so the order of the
# sums shows
TIE_PRONE = [-2.0, -1.0, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 1.0, 2.0]


def decision_table(n_machines, n_rows, seed):
    """A (machines x rows) table, half its cells tie-prone and half normal."""
    rng = np.random.default_rng(seed)
    f = rng.choice(TIE_PRONE, size=(n_machines, n_rows))
    spread = rng.random(f.shape) < 0.5
    f[spread] = rng.normal(size=spread.sum())
    return f


class TestVoteParity:
    """svm._vote, two bincounts over the whole table, gives the bits of
    adding one machine at a time, so every tie-break keeps its outcome."""

    @pytest.mark.parametrize("n_labels", [2, 3, 4, 5])
    @pytest.mark.parametrize("n_rows", [0, 1, 257])
    def test_bincount_vote_matches_machine_at_a_time(self, n_labels, n_rows):
        f = decision_table(n_labels * (n_labels - 1) // 2, n_rows, seed=n_labels * 1000 + n_rows)
        votes, strengths = svm._vote(f, svm._PAIRS[n_labels], n_labels)
        want_votes, want_strengths = vote_reference(f, n_labels)
        assert_array_equal(votes, want_votes)
        assert_same_bits(strengths, want_strengths)

    def test_planted_exact_strength_ties_go_by_label_order(self):
        # 4 labels, machines (0,1) (0,2) (0,3) (1,2) (1,3) (2,3): in each
        # row two labels have 2 votes each and the same summed strength
        f = np.array([[1.0, 0.5, -0.25, 1.0, 0.5, 0.75],
                      [0.25, 1.0, -1.0, 0.5, -0.25, 0.5],
                      [-0.5, -0.75, 1.0, 0.75, -1.0, 0.5]]).T.copy()
        votes, strengths = svm._vote(f, svm._PAIRS[4], 4)
        assert_array_equal(votes, [[2, 2, 1, 1], [2, 1, 1, 2], [1, 2, 2, 1]])
        assert_same_bits(strengths, vote_reference(f, 4)[1])
        assert strengths[0, 0] == strengths[0, 1] == 1.5
        assert strengths[1, 0] == strengths[1, 3] == strengths[2, 1] == strengths[2, 2] == 1.25
        model = vote_model(LABEL_ORDER[:4])
        rows = np.zeros((3, N_FEATURES))
        rows[:, :6] = f.T
        assert predict_batch(model, rows) == [H, H, G]

    @pytest.mark.parametrize("n_rows", [0, 1, 50])
    def test_predict_batch_labels_match_the_reference(self, monkeypatch, n_rows):
        # block_rows 3: 50 rows are scored in 17 blocks
        monkeypatch.setattr(svm, "_KERNEL_BLOCK_CELLS", 3)
        model = vote_model(LABEL_ORDER)
        assert model.block_rows == 3
        f = decision_table(10, n_rows, seed=n_rows)
        rows = np.zeros((n_rows, N_FEATURES))
        rows[:, :10] = f.T
        expected = reference_labels(*vote_reference(f, 5), LABEL_ORDER)
        assert predict_batch(model, rows) == expected

    def test_fitted_model_votes_like_the_reference(self, default_fit, monkeypatch):
        """A batch of several kernel blocks through a fitted model: the votes
        and strengths of its decision table, and its labels, are the
        reference's."""
        model, matrix = default_fit
        seen, vote = [], svm._vote

        def spy(f, pairs, n_labels):
            seen.append((f.copy(), vote(f, pairs, n_labels)))
            return seen[-1][1]

        monkeypatch.setattr(svm, "_vote", spy)
        tiles = -(-2 * model.block_rows // matrix.n_rows) + 1  # more than 2 blocks
        labels = predict_batch(model, np.tile(matrix.values, (tiles, 1)))
        [(f, (votes, strengths))] = seen
        assert f.shape == (len(model.machines), tiles * matrix.n_rows)
        want_votes, want_strengths = vote_reference(f, len(model.label_order))
        assert_array_equal(votes, want_votes)
        assert_same_bits(strengths, want_strengths)
        assert labels == reference_labels(want_votes, want_strengths, model.label_order)


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

    def test_batch_of_several_blocks_matches_single_rows(self, default_fit):
        model, matrix = default_fit
        single = [predict_batch(model, row[None])[0] for row in matrix.values]
        tiles = -(-3 * model.block_rows // matrix.n_rows)  # at least 3 blocks of rows
        assert predict_batch(model, np.tile(matrix.values, (tiles, 1))) == single * tiles

    def test_kernel_blocks_are_bounded(self, default_fit, monkeypatch):
        """Each block covers model.block_rows rows (the last one the rest),
        at most _KERNEL_BLOCK_CELLS cells. A block of the default corpus's
        257 rows, or of model.block_rows, makes one gram call per machine; a
        small remainder block one call over the whole pool."""
        model, matrix = default_fit
        widest = max(m.n_support for m in model.machines)
        pool = sum(m.n_support for m in model.machines)
        assert model.block_rows == svm._KERNEL_BLOCK_CELLS // widest
        assert model.tile_rows == svm._TILE_CELLS // pool
        assert len(model.pool.vectors) == pool
        blocks = []

        def counted(spec, X, Z, *norms):
            blocks.append((len(X), len(Z)))
            return gram(spec, X, Z, *norms)

        monkeypatch.setattr(svm, "gram", counted)
        predict_batch(model, matrix.values)
        assert blocks == [(matrix.n_rows, m.n_support) for m in model.machines]
        blocks.clear()
        rows = 2 * model.block_rows + 5
        assert 5 <= model.tile_rows < model.block_rows
        predict_batch(model, np.resize(matrix.values, (rows, N_FEATURES)))
        full = [(n, m.n_support) for n in 2 * [model.block_rows] for m in model.machines]
        assert blocks == full + [(5, pool)]
        assert max(r * n for r, n in blocks) <= svm._KERNEL_BLOCK_CELLS


@pytest.fixture(scope="module", params=["signal", "both"])
def norm_mode(request):
    return request.param


@pytest.fixture(scope="module")
def default_fit(norm_mode, default_corpus):
    """The seed-42 model of the default corpus, and that corpus's feature table."""
    config = PipelineConfig(norm_mode=norm_mode, seed=42)
    matrix = extract_dataset_features(prepare_dataset(default_corpus, config))
    return fit_from_features(matrix, config).model, matrix


@pytest.fixture(scope="module")
def unseen_corpora():
    """4 x 257 records no seed-42 model was trained on: synth seeds 43-46."""
    return [generate_dataset(SynthConfig(seed=seed)) for seed in (43, 44, 45, 46)]


@pytest.fixture(scope="module")
def unseen_rows(norm_mode, unseen_corpora):
    """The feature rows of unseen_corpora, prepared under norm_mode."""
    config = PipelineConfig(norm_mode=norm_mode, seed=42)
    return np.concatenate([extract_dataset_features(prepare_dataset(corpus, config)).values
                           for corpus in unseen_corpora])


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLabelsAgree:
    """A row's label does not depend on how it is scored: alone, in one
    batch, or by the model reloaded from its file. Any change to the read
    side must keep this."""

    def test_single_rows_batch_and_reload_agree(self, default_fit, unseen_rows, tmp_path):
        model, matrix = default_fit
        path = str(tmp_path / "model.json")
        save_model(model, path)
        loaded = load_model(path)
        assert unseen_rows.shape == (4 * 257, N_FEATURES)
        for values in (matrix.values, unseen_rows):
            batch = predict_batch(model, values)
            for m in (model, loaded):
                assert [predict_batch(m, row[None])[0] for row in values] == batch
                assert predict_batch(m, values) == batch


def decision_table_of(model, values):
    """The (machines x rows) table predict_batch votes on."""
    seen = []

    def spy(f, pairs, n_labels):
        seen.append(f.copy())
        return vote(f, pairs, n_labels)

    vote, svm._vote = svm._vote, spy
    try:
        predict_batch(model, values)
    finally:
        svm._vote = vote
    [f] = seen
    return f


class TestTiles:
    """Whether a block is one tile over the pool or one tile per machine,
    each machine's row of the decision table has the bits of its
    decision_values on the same block of rows."""

    @staticmethod
    def assert_rows_match_machines(model, values, block_rows):
        rows = _prepare_rows(model.normalization, model.columns, values)
        f = decision_table_of(model, values)
        for start in range(0, len(rows), block_rows):
            block = slice(start, start + block_rows)
            for f_m, m in zip(f, model.machines, strict=True):
                assert_same_bits(f_m[block], decision_values(m, rows[block]))

    def test_decision_rows_keep_their_bits(self, default_fit, unseen_rows, monkeypatch):
        model, matrix = default_fit
        tile = model.tile_rows
        for values in (matrix.values, unseen_rows):
            for n in (1, 2, tile, tile + 1):  # single rows, pairs, either side of _TILE_CELLS
                for start in range(0, len(values) - n + 1, n):
                    self.assert_rows_match_machines(model, values[start:start + n],
                                                    model.block_rows)
        # blocks of 257 rows, one tile per machine, and a pooled remainder of 5
        widest = max(m.n_support for m in model.machines)
        monkeypatch.setattr(svm, "_KERNEL_BLOCK_CELLS", 257 * widest)
        blocked = dataclasses.replace(model)
        assert blocked.block_rows == 257 and 5 <= blocked.tile_rows
        for values in (unseen_rows, unseen_rows[:2 * 257 + 5]):
            self.assert_rows_match_machines(blocked, values, 257)

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_pool_follows_the_machines(self, kind):
        """The pool stacks the machines' support vectors and norms in machine
        order, and a machine with no support vector takes no column."""
        rng = np.random.default_rng(5)
        spec = KernelSpec(kind=kind, eta=None if kind == "linear" else 0.25)
        machines = [BinarySvmModel(support_vectors=rng.normal(size=(n, 3)),
                                   dual_coef=rng.normal(size=n), bias=0.5, kernel=spec)
                    for n in (4, 0, 2)]
        model = MulticlassSvmModel(machines=machines, label_order=(H, G, C),
                                   feature_indices=(1, 2, 3))
        pool = model.pool
        assert pool.splits == (4, 4)
        assert pool.columns == (slice(0, 4), slice(4, 4), slice(4, 6))
        for m, cols in zip(machines, pool.columns, strict=True):
            assert_same_bits(pool.vectors[cols], m.support_vectors)
            if kind == "rbf":
                assert_same_bits(pool.norms[cols], m.support_norms)
        assert pool.norms is None if kind == "linear" else pool.norms.shape == (6,)
        values = rng.normal(size=(3, N_FEATURES))
        f = decision_table_of(model, values)
        for f_m, m in zip(f, machines):
            assert_same_bits(f_m, decision_values(m, values[:, :3]))


class TestPredictionConstants:
    """A machine keeps its support vectors' squared norms, and predict_batch
    computes its rows' norms once per call; no decision value moves a bit."""

    def test_decision_values_match_the_reference_gram(self, default_fit):
        model, matrix = default_fit
        rows = _prepare_rows(model.normalization, model.columns, matrix.values)
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


def overflowing_bias(payload):
    payload["machines"][0]["bias"] = "0x1p+1024"


def overflowing_c(payload):
    payload["config"]["c"] = "0x1p+5000"


def overflowing_support_value(payload):
    payload["machines"][0]["support_vectors"][0][0] = "-0x1p+1024"


def overflowing_normalization_max(payload):
    payload["normalization"]["maxs"][3] = "0x2p+1023"


def unparsable_dual_coef(payload):
    payload["machines"][0]["dual_coef"][0] = "0x1.gp+0"


def float_feature_indices(payload):
    payload["feature_indices"] = [float(i) for i in payload["feature_indices"]]


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
        (overflowing_bias, "bias '0x1p+1024' is too large for a double"),
        (overflowing_c, "c '0x1p+5000' is too large for a double"),
        (overflowing_support_value, "support_vectors '-0x1p+1024' is too large for a double"),
        (overflowing_normalization_max, "maxs '0x2p+1023' is too large for a double"),
        (unparsable_dual_coef, "dual_coef '0x1.gp+0' is not a hex float"),
        (float_feature_indices, ".0 is a float, not an integer"),
    ], ids=lambda v: getattr(v, "__name__", ""))
    def test_refused_with_the_file_named(self, scaled, tmp_path, edit, message):
        path = tmp_path / "model.json"
        save_model(scaled, str(path))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            load_model(str(path))
