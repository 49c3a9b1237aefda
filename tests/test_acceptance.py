"""Release gate: ten end-to-end properties, one test each.

Each test prints an "[ACCEPTANCE n] PASS" line straight to the terminal
(capture is bypassed) so a full run ends with ten visible verdicts. The
fine-grained behavior behind these properties lives in the per-module
test files; here every check goes through public entry points only.
"""

import time
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import XOR_X, XOR_Y, exhaustive_qp, make_blobs
from reference_checks import kkt_violation, validate_filter_bank

from gsremotion import cli
from gsremotion.evaluate import kfold_cross_validate
from gsremotion.features import FeatureMatrix
from gsremotion.kernels import KernelSpec, gram
from gsremotion.pipeline import (
    PipelineConfig,
    comparison_report,
    fit_from_features,
    predict_rows,
)
from gsremotion.selection import covariance_matrix, select_features
from gsremotion.svm import (
    TrainConfig,
    load_model,
    save_model,
    train_binary,
)
from gsremotion.synth import DEFAULT_COUNTS
from gsremotion.wavelet import (
    daubechies_filter_bank,
    denoise,
    dwt_decompose,
    dwt_reconstruct,
)


@pytest.fixture
def announce(capfd):
    def _announce(n):
        with capfd.disabled():
            print(f"[ACCEPTANCE {n}] PASS", flush=True)
    return _announce


def _recover_alpha(model, X, y):
    """Dense dual variables from a trained machine's support expansion."""
    index = {tuple(row): i for i, row in enumerate(X)}
    alpha = np.zeros(X.shape[0])
    for coef, sv in zip(model.dual_coef, model.support_vectors):
        i = index[tuple(sv)]
        alpha[i] = coef * y[i]
    return alpha


def test_01_round_trip_recovers_every_length(announce):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for n in (64, 100, 257, 512):
        x = rng.normal(size=n)
        back = dwt_reconstruct(dwt_decompose(x))
        assert np.max(np.abs(back - x)) <= 1e-9 * np.max(np.abs(x))
    assert time.perf_counter() - start < 1.0
    announce(1)


def test_02_filter_bank_sums_and_mirror(announce):
    bank = daubechies_filter_bank()
    lo, hi = bank.lowpass_decomp, bank.highpass_decomp
    assert lo.size == 10 and hi.size == 10
    assert abs(lo.sum() - np.sqrt(2.0)) <= 1e-12
    assert abs(hi.sum()) <= 1e-12
    signs = (-1.0) ** np.arange(lo.size)
    assert_array_equal(hi, signs * lo[::-1])
    validate_filter_bank(bank)
    announce(2)


def test_03_denoising_halves_the_error(announce):
    rate = 16.0
    t = np.arange(512) / rate
    clean = np.sin(2.0 * np.pi * 0.1 * t)
    # signal power 0.5, so variance 0.05 puts the noise 10 dB down
    noisy = clean + np.random.default_rng(7).normal(scale=np.sqrt(0.05),
                                                    size=clean.size)
    noisy_mse = float(np.mean((noisy - clean) ** 2))
    denoised_mse = float(np.mean((denoise(noisy) - clean) ** 2))
    assert denoised_mse < 0.5 * noisy_mse
    announce(3)


def test_04_covariance_matches_direct_sums(announce):
    rng = np.random.default_rng(257)
    data = rng.normal(size=(257, 30))
    result = covariance_matrix(data)
    n, m = data.shape
    means = [sum(data[:, j]) / n for j in range(m)]
    naive = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            total = 0.0
            for row in range(n):
                total += (data[row, i] - means[i]) * (data[row, j] - means[j])
            naive[i, j] = total / n
    assert np.max(np.abs(result - naive)) <= 1e-10
    assert_array_equal(result, result.T)
    assert np.linalg.eigvalsh(result).min() >= -1e-8
    announce(4)


def test_05_selection_reduces_redundancy_invariantly(default_features, announce):
    result = select_features(default_features.values, 15)
    corr = np.abs(result.correlation)
    off_all = ~np.eye(corr.shape[0], dtype=bool)
    picked = [i - 1 for i in result.selected_indices]
    sub = corr[np.ix_(picked, picked)]
    off_sub = ~np.eye(len(picked), dtype=bool)
    assert sub[off_sub].mean() < corr[off_all].mean()

    rng = np.random.default_rng(0)
    perm = rng.permutation(default_features.n_rows)
    shuffled = FeatureMatrix(
        values=default_features.values[perm],
        record_ids=[default_features.record_ids[i] for i in perm],
        labels=[default_features.labels[i] for i in perm],
    )
    assert select_features(shuffled.values, 15).selected_indices == result.selected_indices

    scales = rng.uniform(0.1, 10.0, size=default_features.n_features)
    rescaled = FeatureMatrix(
        values=default_features.values * scales,
        record_ids=list(default_features.record_ids),
        labels=list(default_features.labels),
    )
    assert select_features(rescaled.values, 15).selected_indices == result.selected_indices
    announce(5)


def test_06_solver_certified_against_oracle(announce):
    start = time.perf_counter()
    for X, y, config in (
        (*make_blobs(), TrainConfig(kernel=KernelSpec(kind="linear"), c=10.0)),
        (XOR_X, XOR_Y, TrainConfig(kernel=KernelSpec(kind="rbf", eta=1.0), c=10.0)),
    ):
        model = train_binary(X, y, config)
        assert model.converged
        alpha = _recover_alpha(model, X, y)
        assert kkt_violation(gram(model.kernel, X), y, alpha, config.c) <= 1e-3
        assert np.all(np.diff(model.objective_trace) >= -1e-9)
        f = gram(model.kernel, X, model.support_vectors) @ model.dual_coef + model.bias
        assert np.array_equal(np.sign(f), y)

    rng = np.random.default_rng(11)
    checked = 0
    for n in (4, 5, 6):
        for _ in range(2):
            pts = rng.normal(size=(n, 2))
            labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            if np.all(labels == labels[0]):
                labels[0] = -labels[0]
            config = TrainConfig(kernel=KernelSpec(kind="linear"), c=1.0)
            model = train_binary(pts, labels, config)
            best = exhaustive_qp(gram(config.kernel.resolved(2), pts), labels,
                                 config.c)
            assert model.objective_trace[-1] == pytest.approx(best, rel=1e-4,
                                                              abs=1e-10)
            checked += 1
    assert checked == 6
    assert time.perf_counter() - start < 5.0
    announce(6)


def test_07_fewer_features_keep_heldout_accuracy(default_corpus,
                                                 default_features, announce):
    assert len(default_corpus) == 257
    assert Counter(r.label for r in default_corpus) == DEFAULT_COUNTS
    start = time.perf_counter()
    report = comparison_report(default_features, PipelineConfig(), 0.3)
    selected = report["accuracy"]["selected"]["test"]
    assert selected >= report["accuracy"]["all_features"]["test"]
    assert selected >= 0.60
    assert time.perf_counter() - start < 60.0
    announce(7)


def test_08_cross_validation_deterministic_and_leak_free(default_corpus,
                                                         announce):
    config = PipelineConfig(seed=42)
    first = kfold_cross_validate(default_corpus, 5, config, 42)
    second = kfold_cross_validate(default_corpus, 5, config, 42)
    assert first.to_dict() == second.to_dict()
    assert first.heldout_accesses == 0
    assert first.std_accuracy <= 0.15
    announce(8)


def test_09_saved_model_predicts_identically(default_features, tmp_path,
                                             announce):
    fitted = fit_from_features(default_features, PipelineConfig())
    path = tmp_path / "model.json"
    save_model(fitted.model, str(path))
    loaded = load_model(str(path))
    before = predict_rows(fitted.model, default_features.values)
    after = predict_rows(loaded, default_features.values)
    assert len(before) == 257
    assert before == after
    announce(9)


def test_10_pipeline_reruns_are_byte_identical(tmp_path, announce):
    runs = []
    for name in ("first", "second"):
        root = tmp_path / name
        root.mkdir()
        corpus = root / "corpus"
        pre = root / "preprocessed"
        features = root / "features.csv"
        selection = root / "selection.json"
        model = root / "model.json"
        test_csv = root / "test.csv"
        assert cli.main(["synth", "--out", str(corpus), "--seed", "42"]) == 0
        assert cli.main(["preprocess", "--manifest", str(corpus / "manifest.txt"),
                         "--out", str(pre)]) == 0
        assert cli.main(["features", "--manifest", str(pre / "manifest.txt"),
                         "--out", str(features)]) == 0
        assert cli.main(["select", "--features", str(features),
                         "--out", str(selection)]) == 0
        assert cli.main(["train", "--features", str(features),
                         "--selection", str(selection),
                         "--test-fraction", "0.3", "--test-out", str(test_csv),
                         "--out", str(model), "--seed", "42"]) == 0
        assert cli.main(["eval", "--model", str(model),
                         "--features", str(test_csv),
                         "--out", str(root / "scores"), "--seed", "42"]) == 0
        assert cli.main(["report", "--features", str(features),
                         "--out", str(root / "comparison"), "--seed", "42"]) == 0
        runs.append(root)
    first, second = runs
    for rel in ("corpus/samples.npy", "corpus/manifest.txt", "preprocessed/samples.npy",
                "preprocessed/manifest.txt", "features.csv", "selection.json", "model.json",
                "test.csv", "scores.json", "scores.txt", "comparison.json", "comparison.txt"):
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
    announce(10)
