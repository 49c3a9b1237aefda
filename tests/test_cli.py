"""End-to-end command-line tests.

Every command runs in-process through cli.main so exit codes, stdout,
stderr, and output files can all be asserted without subprocesses.
The corpus here is deliberately tiny; accuracy itself is covered by the
library tests and the acceptance suite.
"""

import json
import os
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gsremotion import cli
from gsremotion.dataset import (
    CSV_HEADER,
    LABEL_ORDER,
    Dataset,
    EmotionLabel,
    GsrRecord,
    load_dataset,
    save_dataset,
)
from gsremotion.features import read_feature_csv
from gsremotion.selection import read_selection_indices
from gsremotion.svm import load_model

LABEL_NAMES = {lab.value for lab in LABEL_ORDER}


def write_config(path, text):
    path.write_text(text)
    return str(path)


def main_printing_warnings(argv) -> int:
    """cli.main with each warning printed on stderr, as a plain interpreter run does."""
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = lambda *a, **kw: sys.stderr.write(
            warnings.formatwarning(*a[:4]))
        return cli.main(argv)


def huge_column_table(features_csv, tmp_path):
    """The feature table with column f02 multiplied by 1e300: finite, but its
    squares overflow."""
    lines = features_csv.read_text().splitlines()
    rows = []
    for line in lines[2:]:
        fields = line.split(",")
        fields[3] = repr(float(fields[3]) * 1e300)
        rows.append(",".join(fields))
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(lines[:2] + rows) + "\n")
    return path


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """Four records per label, 16 s at the default rate, via the synth command."""
    root = tmp_path_factory.mktemp("cli-corpus")
    cfg = write_config(root / "synth.cfg", "counts = 4,4,4,4,4\nduration_s = 16.0\n")
    out = root / "corpus"
    assert cli.main(["synth", "--out", str(out), "--config", cfg, "--seed", "7"]) == 0
    return out


@pytest.fixture(scope="module")
def manifest(corpus_dir):
    return str(corpus_dir / "manifest.txt")


@pytest.fixture(scope="module")
def features_csv(manifest, tmp_path_factory):
    """Feature table of the denoised, baseline-normalized corpus."""
    root = tmp_path_factory.mktemp("cli-features")
    pre = root / "preprocessed"
    assert cli.main(["preprocess", "--manifest", manifest, "--out", str(pre)]) == 0
    out = root / "features.csv"
    assert cli.main(["features", "--manifest", str(pre / "manifest.txt"),
                     "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def model_path(features_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-model") / "model.json"
    assert cli.main(["train", "--features", str(features_csv), "--out", str(out)]) == 0
    return out


class TestSynth:
    def test_writes_corpus(self, corpus_dir, manifest):
        dataset = load_dataset(manifest)
        assert len(dataset) == 20
        csvs = [name for name in os.listdir(corpus_dir) if name.endswith(".csv")]
        assert len(csvs) == 20

    def test_refuses_overwrite(self, corpus_dir, capsys):
        rc = cli.main(["synth", "--out", str(corpus_dir), "--seed", "7"])
        assert rc == 1
        assert "pass --force to overwrite" in capsys.readouterr().err

    def test_force_overwrites(self, tmp_path):
        cfg = write_config(tmp_path / "synth.cfg",
                           "counts = 2,2,2,2,2\nduration_s = 16.0\n")
        args = ["synth", "--out", str(tmp_path / "corpus"), "--config", cfg]
        assert cli.main(args) == 0
        assert cli.main(args) == 1
        assert cli.main(args + ["--force"]) == 0

    def test_seeded_runs_match(self, tmp_path):
        cfg = write_config(tmp_path / "synth.cfg",
                           "counts = 2,2,2,2,2\nduration_s = 16.0\n")
        for name in ("a", "b"):
            assert cli.main(["synth", "--out", str(tmp_path / name),
                             "--config", cfg, "--seed", "3"]) == 0
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_wrong_counts_length(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "synth.cfg", "counts = 3,3,3\n")
        rc = cli.main(["synth", "--out", str(tmp_path / "corpus"), "--config", cfg])
        assert rc == 1
        assert "counts needs 5 values" in capsys.readouterr().err


class TestPreprocess:
    def test_feature_mode(self, manifest, tmp_path):
        out = tmp_path / "preprocessed"
        assert cli.main(["preprocess", "--manifest", manifest,
                         "--out", str(out), "--norm", "feature"]) == 0
        assert len(load_dataset(str(out / "manifest.txt"))) == 20

    def test_rejects_unknown_norm(self, manifest, tmp_path, capsys):
        rc = cli.main(["preprocess", "--manifest", manifest,
                       "--out", str(tmp_path / "preprocessed"), "--norm", "zscore"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["preprocess", "cv"])
    def test_overflowing_record_prints_one_error_line(self, tmp_path, capsys, command):
        rng = np.random.default_rng(0)
        calm = GsrRecord("c1", "S01", EmotionLabel.CALM, 16.0, 3.0 + rng.uniform(0, 1, 128))
        # valid samples whose wavelet sums overflow to inf and then nan
        huge = GsrRecord("f1", "S01", EmotionLabel.FEAR, 16.0,
                         np.resize([1.5e308, -1.5e308], 128))
        manifest = save_dataset(Dataset(records=[calm, huge]), str(tmp_path / "corpus"))
        rc = main_printing_warnings([command, "--manifest", manifest,
                                     "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: record 'f1' has non-finite values after denoising\n")


    def test_tiny_calm_range_names_the_calm_record(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        calm = GsrRecord("c1", "S01", EmotionLabel.CALM, 16.0, 1e-310 * rng.uniform(1, 2, 960))
        fear = GsrRecord("f1", "S01", EmotionLabel.FEAR, 16.0, 3.0 + rng.uniform(0, 1, 960))
        manifest = save_dataset(Dataset(records=[calm, fear]), str(tmp_path / "corpus"))
        rc = main_printing_warnings(["preprocess", "--manifest", manifest,
                                     "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: calm record 'c1' has a range too small to normalize record 'f1'\n")

class TestFeatures:
    def test_table_shape(self, features_csv):
        matrix = read_feature_csv(str(features_csv))
        assert matrix.n_rows == 20
        assert matrix.n_features == 30

    def test_stdout_summary(self, manifest, tmp_path, capsys):
        out = tmp_path / "features.csv"
        assert cli.main(["features", "--manifest", manifest, "--out", str(out)]) == 0
        assert "20 x 30 feature rows" in capsys.readouterr().out

    def test_overflowing_record_prints_one_error_line(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        huge = GsrRecord("huge", "S01", EmotionLabel.FEAR, 16.0, 1e200 * rng.uniform(1, 2, 128))
        manifest = save_dataset(Dataset(records=[huge]), str(tmp_path / "corpus"))
        rc = main_printing_warnings(["features", "--manifest", manifest,
                                     "--out", str(tmp_path / "features.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: feature vector for 'huge' has non-finite values\n")


class TestSelect:
    def test_writes_selection_json(self, features_csv, tmp_path):
        out = tmp_path / "selection.json"
        assert cli.main(["select", "--features", str(features_csv),
                         "--out", str(out), "--k", "5"]) == 0
        payload = json.loads(out.read_text())
        assert payload["k"] == 5
        assert len(payload["selected_indices"]) == 5
        assert tuple(read_selection_indices(str(out))) == \
            tuple(payload["selected_indices"])

    def test_explicit_list_skips_scoring(self, features_csv, tmp_path):
        out = tmp_path / "selection.json"
        assert cli.main(["select", "--features", str(features_csv),
                         "--out", str(out), "--features-list", "2,4,6"]) == 0
        assert tuple(read_selection_indices(str(out))) == (2, 4, 6)

    def test_rejects_unordered_list(self, features_csv, tmp_path, capsys):
        rc = cli.main(["select", "--features", str(features_csv),
                       "--out", str(tmp_path / "selection.json"),
                       "--features-list", "6,2"])
        assert rc == 1
        assert "ascending" in capsys.readouterr().err

    def test_rejects_junk_list(self, features_csv, tmp_path, capsys):
        rc = cli.main(["select", "--features", str(features_csv),
                       "--out", str(tmp_path / "selection.json"),
                       "--features-list", "a,b"])
        assert rc == 1
        assert "comma-separated integers" in capsys.readouterr().err


    def test_too_few_varying_columns_names_the_table(self, features_csv, tmp_path, capsys):
        lines = features_csv.read_text().splitlines()
        flat = tmp_path / "flat.csv"
        flat.write_text("\n".join(lines[:2] + [
            ",".join(line.split(",")[:2] + ["1.0"] * 20 + line.split(",")[22:])
            for line in lines[2:]]) + "\n")
        rc = cli.main(["select", "--features", str(flat), "--out", str(tmp_path / "s.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {re.escape(str(flat))}: only \\d+ non-constant "
                            "features available, cannot select 15\n", err)

    def test_bad_k_flag_names_no_file(self, features_csv, tmp_path, capsys):
        rc = cli.main(["select", "--features", str(features_csv),
                       "--out", str(tmp_path / "s.json"), "--k", "31"])
        assert rc == 1
        assert capsys.readouterr().err == "error: k must be in 1..30, got 31\n"

    def test_too_large_values_name_the_table(self, features_csv, tmp_path, capsys):
        huge = huge_column_table(features_csv, tmp_path)
        out = tmp_path / "s.json"
        rc = main_printing_warnings(["select", "--features", str(huge), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {huge}: table values are too large: their covariance overflows\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["select", "train", "cv", "report"])
    @pytest.mark.parametrize("listed", [",", ""])
    def test_empty_feature_list_rejected(self, manifest, features_csv, tmp_path, capsys,
                                         command, listed):
        source = ["--manifest", manifest] if command == "cv" else ["--features",
                                                                   str(features_csv)]
        rc = cli.main([command, *source, "--features-list", listed,
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: catalog index list is empty\n"
        assert os.listdir(tmp_path) == []

class TestTrain:
    def test_model_round_trip(self, model_path):
        model = load_model(str(model_path))
        assert len(model.machines) == 10
        assert len(model.feature_indices) == 15
        assert model.config.kernel.kind == "rbf"

    def test_selection_file_controls_columns(self, features_csv, tmp_path):
        selection = tmp_path / "selection.json"
        assert cli.main(["select", "--features", str(features_csv),
                         "--out", str(selection), "--features-list", "2,4,6"]) == 0
        out = tmp_path / "model.json"
        assert cli.main(["train", "--features", str(features_csv),
                         "--out", str(out), "--selection", str(selection)]) == 0
        assert load_model(str(out)).feature_indices == (2, 4, 6)

    def test_holdout_requires_test_out(self, features_csv, tmp_path, capsys):
        rc = cli.main(["train", "--features", str(features_csv),
                       "--out", str(tmp_path / "model.json"),
                       "--test-fraction", "0.5"])
        assert rc == 1
        assert "--test-out" in capsys.readouterr().err

    def test_holdout_writes_test_rows(self, features_csv, tmp_path):
        model_out = tmp_path / "model.json"
        test_out = tmp_path / "test.csv"
        assert cli.main(["train", "--features", str(features_csv),
                         "--out", str(model_out), "--test-fraction", "0.5",
                         "--test-out", str(test_out)]) == 0
        held = read_feature_csv(str(test_out))
        assert held.n_rows == 10
        labels = [lab.value for lab in held.labels]
        assert all(labels.count(name) == 2 for name in LABEL_NAMES)

    def test_rejects_unknown_kernel(self, features_csv, tmp_path, capsys):
        rc = cli.main(["train", "--features", str(features_csv),
                       "--out", str(tmp_path / "model.json"), "--kernel", "bogus"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_rejects_zero_eta(self, features_csv, tmp_path, capsys):
        rc = cli.main(["train", "--features", str(features_csv),
                       "--out", str(tmp_path / "model.json"), "--eta", "0"])
        assert rc == 1
        assert "eta" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        ([], "table values are too large: their covariance overflows"),
        (["--features-list", "1,2,3"],
         "kernel matrix overflows: feature values or kernel parameters are too large"),
        (["--features-list", "1,2,3", "--kernel", "sigmoid"],
         "kernel matrix overflows: feature values or kernel parameters are too large"),
    ], ids=["selection", "kernel", "sigmoid"])
    def test_too_large_values_stop_before_the_solver(self, features_csv, tmp_path, capsys,
                                                     monkeypatch, flags, message):
        monkeypatch.setattr("gsremotion.svm._smo_solve",
                            lambda *args: pytest.fail("the solver started"))
        huge = huge_column_table(features_csv, tmp_path)
        out = tmp_path / "model.json"
        rc = main_printing_warnings(["train", "--features", str(huge), *flags,
                                     "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


    def test_span_beyond_the_float_range_names_the_column(self, features_csv, tmp_path,
                                                          capsys):
        lines = features_csv.read_text().splitlines()
        rows = []
        for k, line in enumerate(lines[2:]):
            fields = line.split(",")
            fields[3] = repr(1e308 if k % 2 else -1e308)
            rows.append(",".join(fields))
        wide = tmp_path / "wide.csv"
        wide.write_text("\n".join(lines[:2] + rows) + "\n")
        rc = main_printing_warnings(["train", "--features", str(wide), "--norm", "feature",
                                     "--features-list", "1,2,3",
                                     "--out", str(tmp_path / "model.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: column f02 spans more than the float range (max - min overflows)\n")


class TestPredict:
    def test_prediction_csv(self, model_path, features_csv, tmp_path):
        out = tmp_path / "predictions.csv"
        assert cli.main(["predict", "--model", str(model_path),
                         "--features", str(features_csv), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "record_id,label,predicted"
        assert len(lines) == 21
        for line in lines[1:]:
            record_id, true, predicted = line.split(",")
            assert record_id
            assert true in LABEL_NAMES
            assert predicted in LABEL_NAMES

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_overflowing_kernel_names_the_table(self, features_csv, tmp_path, capsys,
                                                command):
        model = tmp_path / "model.json"
        assert cli.main(["train", "--features", str(features_csv),
                         "--features-list", "2,4,9", "--out", str(model)]) == 0
        huge = huge_column_table(features_csv, tmp_path)
        capsys.readouterr()
        rc = main_printing_warnings([command, "--model", str(model), "--features", str(huge),
                                     "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {huge}: kernel matrix overflows: feature values or kernel "
            "parameters are too large\n")
        assert sorted(os.listdir(tmp_path)) == ["huge.csv", "model.json"]


@pytest.fixture(scope="module")
def eval_prefix(model_path, features_csv, tmp_path_factory):
    prefix = tmp_path_factory.mktemp("cli-eval") / "scores"
    assert cli.main(["eval", "--model", str(model_path),
                     "--features", str(features_csv),
                     "--out", str(prefix), "--seed", "5"]) == 0
    return prefix


class TestEval:
    def test_json_payload(self, eval_prefix):
        payload = json.loads((eval_prefix.parent / "scores.json").read_text())
        assert set(payload) == {"accuracy", "n_rows", "label_order",
                                "per_label_rate", "confusion",
                                "sampled_rates"}
        assert payload["n_rows"] == 20
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert payload["label_order"] == [lab.value for lab in LABEL_ORDER]
        assert set(payload["per_label_rate"]) == LABEL_NAMES
        assert [sum(row) for row in payload["confusion"]] == [4] * 5

    def test_sample_block(self, eval_prefix):
        sample = json.loads(
            (eval_prefix.parent / "scores.json").read_text()
        )["sampled_rates"]
        assert sample["seed"] == 5
        assert "not a statistic" in sample["note"]
        assert set(sample["rates"]) == LABEL_NAMES

    def test_text_report(self, eval_prefix):
        text = (eval_prefix.parent / "scores.txt").read_text()
        assert "true\\pred" in text
        assert "overall" in text
        assert "not a statistic" in text

    def test_refuses_existing_output(self, model_path, features_csv,
                                     eval_prefix, capsys):
        rc = cli.main(["eval", "--model", str(model_path),
                       "--features", str(features_csv), "--out", str(eval_prefix)])
        assert rc == 1
        assert "exists" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, model_path, features_csv, eval_prefix):
        json_path = eval_prefix.parent / "scores.json"
        text_path = eval_prefix.parent / "scores.txt"
        before = (json_path.read_bytes(), text_path.read_bytes())
        assert cli.main(["eval", "--model", str(model_path),
                         "--features", str(features_csv), "--out", str(eval_prefix),
                         "--seed", "5", "--force"]) == 0
        assert (json_path.read_bytes(), text_path.read_bytes()) == before


class TestCv:
    def test_report_files(self, manifest, tmp_path):
        prefix = tmp_path / "cv"
        assert cli.main(["cv", "--manifest", manifest, "--folds", "2",
                         "--out", str(prefix), "--seed", "3"]) == 0
        payload = json.loads((tmp_path / "cv.json").read_text())
        assert payload["heldout_accesses_during_fit"] == 0
        assert len(payload["fold_accuracies"]) == 2
        assert 0.0 <= payload["mean_accuracy"] <= 1.0
        assert payload["seed"] == 3
        text = (tmp_path / "cv.txt").read_text()
        assert "fold 1" in text
        assert "held-out accesses during fit: 0" in text

    def test_one_fold_flag_is_named_folds(self, manifest, tmp_path, capsys):
        rc = cli.main(["cv", "--manifest", manifest, "--folds", "1",
                       "--out", str(tmp_path / "cv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: folds must be >= 2, got 1\n"


class TestNonConvergence:
    """A machine stopped by max_passes is named on stderr; files are unchanged."""

    @pytest.fixture
    def two_passes(self, monkeypatch):
        build = cli._pipeline_config
        monkeypatch.setattr(cli, "_pipeline_config",
                            lambda *a, **kw: replace(build(*a, **kw), max_passes=2))

    def test_train_warns(self, features_csv, tmp_path, capsys, two_passes):
        out = tmp_path / "model.json"
        assert cli.main(["train", "--features", str(features_csv), "--out", str(out)]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 10
        assert "machine happiness/grief did not converge" in warnings[0]
        assert "after 2 iterations with KKT gap" in warnings[0]
        assert not any(m.converged for m in load_model(str(out)).machines)

    def test_cv_warns_per_fold(self, manifest, tmp_path, capsys, two_passes):
        assert cli.main(["cv", "--manifest", manifest, "--folds", "2",
                         "--out", str(tmp_path / "cv"), "--seed", "3"]) == 0
        err = capsys.readouterr().err
        assert err.count("warning: fold 1: machine") == 10
        assert err.count("warning: fold 2: machine") == 10

    def test_report_warns_per_model(self, features_csv, tmp_path, capsys, two_passes):
        assert cli.main(["report", "--features", str(features_csv), "--out",
                         str(tmp_path / "cmp"), "--test-fraction", "0.5", "--k", "10"]) == 0
        err = capsys.readouterr().err
        assert err.count("warning: selected-k model: machine") == 10
        assert err.count("warning: all-features model: machine") == 10
        assert set(json.loads((tmp_path / "cmp.json").read_text())) == {
            "test_fraction", "split_seed", "n_train", "n_test", "k", "selected_indices",
            "accuracy"}

    def test_converged_run_is_quiet(self, features_csv, tmp_path, capsys):
        assert cli.main(["train", "--features", str(features_csv),
                         "--out", str(tmp_path / "model.json")]) == 0
        assert "warning:" not in capsys.readouterr().err


class TestReport:
    def run(self, features_csv, prefix, seed="3"):
        return cli.main(["report", "--features", str(features_csv),
                         "--out", str(prefix), "--test-fraction", "0.5",
                         "--k", "10", "--seed", seed])

    def test_comparison_payload(self, features_csv, tmp_path):
        assert self.run(features_csv, tmp_path / "cmp") == 0
        payload = json.loads((tmp_path / "cmp.json").read_text())
        assert payload["k"] == 10
        assert payload["n_train"] + payload["n_test"] == 20
        for block in ("selected", "all_features"):
            for side in ("train", "test"):
                assert 0.0 <= payload["accuracy"][block][side] <= 1.0
        assert "all features" in (tmp_path / "cmp.txt").read_text()

    def test_reruns_byte_identical(self, features_csv, tmp_path):
        assert self.run(features_csv, tmp_path / "first") == 0
        assert self.run(features_csv, tmp_path / "second") == 0
        for suffix in (".json", ".txt"):
            assert (tmp_path / ("first" + suffix)).read_bytes() == \
                (tmp_path / ("second" + suffix)).read_bytes()


class TestConfigFile:
    def test_defaults_then_flag_override(self, features_csv, tmp_path):
        cfg = write_config(tmp_path / "train.cfg", "k = 5\nkernel = linear\n")
        first = tmp_path / "m1.json"
        assert cli.main(["train", "--features", str(features_csv),
                         "--out", str(first), "--config", cfg]) == 0
        model = load_model(str(first))
        assert len(model.feature_indices) == 5
        assert model.config.kernel.kind == "linear"
        second = tmp_path / "m2.json"
        assert cli.main(["train", "--features", str(features_csv),
                         "--out", str(second), "--config", cfg, "--k", "3"]) == 0
        assert len(load_model(str(second)).feature_indices) == 3

    def test_comments_quotes_and_dashes(self, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("# full-line comment\n"
                       "kernel = 'linear'  # trailing comment\n"
                       "\n"
                       "test-fraction = 0.5\n")
        assert cli.read_config_file(str(cfg)) == {
            "kernel": "linear",
            "test_fraction": "0.5",
        }

    def test_malformed_line(self, features_csv, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg", "just some words\n")
        rc = cli.main(["select", "--features", str(features_csv),
                       "--out", str(tmp_path / "selection.json"), "--config", cfg])
        assert rc == 1
        assert "expected key = value" in capsys.readouterr().err

    def test_unknown_key_rejected(self, features_csv, tmp_path, capsys):
        cfg = write_config(tmp_path / "typo.cfg", "k = 5\nkernal = linear\n")
        rc = cli.main(["train", "--features", str(features_csv),
                       "--out", str(tmp_path / "model.json"), "--config", cfg])
        assert rc == 1
        assert "line 2: unknown key 'kernal'" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_unparsable_value(self, features_csv, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg", "k = five\n")
        rc = cli.main(["train", "--features", str(features_csv),
                       "--out", str(tmp_path / "model.json"), "--config", cfg])
        assert rc == 1
        assert "cannot parse" in capsys.readouterr().err
        cfg = write_config(tmp_path / "synth.cfg", "duration_s = abc\n")
        assert cli.main(["synth", "--out", str(tmp_path / "corpus"), "--config", cfg]) == 1
        assert f"error: {cfg}: config key duration_s: cannot parse 'abc'" in \
            capsys.readouterr().err


    @pytest.mark.parametrize("command,text,message", [
        ("train", "kernel = bogus\n", "config key kernel: unknown kernel kind 'bogus'"),
        ("train", "k = 99\n", "config key k: k must be in 1..30, got 99"),
        ("train", "eta = -1\n", "config key eta: eta must be positive"),
        ("report", "test_fraction = 1.5\n",
         "config key test_fraction: test_fraction must be in (0, 1), got 1.5"),
        ("select", "features_list = 0,3\n",
         "config key features_list: catalog index 0 out of range"),
        ("train", "features_list = ,\n", "config key features_list: catalog index list is empty"),
        ("cv", "folds = 1\n", "config key folds: folds must be >= 2, got 1"),
        ("synth", "counts = 3,3,3\n", "config key counts: counts needs 5 values"),
        ("synth", "noise_std = -1\n", "config key noise_std: noise_std_us cannot be negative"),
        ("synth", "duration_s = 2\n", "duration 2.0s at 16.0Hz yields fewer than 64 samples"),
        ("synth", "duration_s = inf\n", "duration_s must be positive and finite, got inf"),
    ])
    def test_out_of_range_value_names_file_and_key(self, manifest, features_csv, tmp_path,
                                                   capsys, command, text, message):
        cfg = write_config(tmp_path / "bad.cfg", text)
        inputs = {"synth": [], "cv": ["--manifest", manifest]}
        rc = cli.main([command, *inputs.get(command, ["--features", str(features_csv)]),
                       "--out", str(tmp_path / "out"), "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1, err
        assert message in err

    def test_out_of_range_flag_is_reported_as_given(self, features_csv, tmp_path, capsys):
        cfg = write_config(tmp_path / "train.cfg", "k = 5\n")
        rc = cli.main(["train", "--features", str(features_csv), "--kernel", "bogus",
                       "--out", str(tmp_path / "model.json"), "--config", cfg])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: unknown kernel kind 'bogus'")


class TestExitCodes:
    def test_missing_manifest_is_io_error(self, tmp_path, capsys):
        rc = cli.main(["features", "--manifest", str(tmp_path / "missing.txt"),
                       "--out", str(tmp_path / "features.csv")])
        assert rc == 2
        assert "io error:" in capsys.readouterr().err

    def test_missing_model_is_io_error(self, features_csv, tmp_path):
        rc = cli.main(["predict", "--model", str(tmp_path / "missing.json"),
                       "--features", str(features_csv),
                       "--out", str(tmp_path / "predictions.csv")])
        assert rc == 2

    def test_model_missing_key_is_validation_error(self, model_path, features_csv,
                                                   tmp_path, capsys):
        payload = json.loads(model_path.read_text())
        del payload["machines"][0]["bias"]
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(payload))
        rc = cli.main(["eval", "--model", str(broken), "--features", str(features_csv),
                       "--out", str(tmp_path / "scores")])
        assert rc == 1
        assert "missing key 'bias'" in capsys.readouterr().err

    def test_model_wrong_type_is_validation_error(self, model_path, features_csv,
                                                  tmp_path, capsys):
        payload = json.loads(model_path.read_text())
        payload["machines"] = None
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(payload))
        rc = cli.main(["eval", "--model", str(broken), "--features", str(features_csv),
                       "--out", str(tmp_path / "scores")])
        assert rc == 1
        assert f"{broken}: model file has a value of the wrong type" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_restricted_table_is_validation_error(self, model_path, features_csv,
                                                  tmp_path, capsys, command):
        # k catalog columns under the header f01..fk, as a restricted matrix would give
        k = len(load_model(str(model_path)).feature_indices)
        lines = features_csv.read_text().splitlines()
        header = ["record_id", "label"] + [f"f{i:02d}" for i in range(1, k + 1)]
        body = [",".join(line.split(",")[:k + 2]) for line in lines[2:]]
        restricted = tmp_path / "restricted.csv"
        restricted.write_text("\n".join([lines[0], ",".join(header), *body]) + "\n")
        rc = cli.main([command, "--model", str(model_path), "--features", str(restricted),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"{restricted}: feature columns must be f01..f30" in capsys.readouterr().err

    def test_inconsistent_model_names_its_file(self, model_path, features_csv,
                                               tmp_path, capsys):
        payload = json.loads(model_path.read_text())
        payload["feature_indices"].pop()
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(payload))
        rc = cli.main(["eval", "--model", str(broken), "--features", str(features_csv),
                       "--out", str(tmp_path / "scores")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {broken}: machines are [15] features wide, the model has 14\n")

    def test_unparsable_flag_is_validation_error(self, features_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--features", str(features_csv),
                      "--out", str(tmp_path / "model.json"), "--c", "abc"])
        assert exc.value.code == 1
        assert "argument --c: invalid float value: 'abc'" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--help"])
        assert exc.value.code == 0
        assert "--features" in capsys.readouterr().out

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            cli.main(["bogus"])


class TestMalformedInputFiles:
    """Each malformed input exits 1 with one `error: <file>: ...` line."""

    @staticmethod
    def assert_names(capsys, rc, path, message):
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        assert err.count(str(path)) == 1
        assert message in err

    def train_with(self, features_csv, selection, tmp_path):
        return cli.main(["train", "--features", str(features_csv), "--selection",
                         str(selection), "--out", str(tmp_path / "model.json")])

    def test_selection_is_a_list(self, features_csv, tmp_path, capsys):
        selection = tmp_path / "selection.json"
        selection.write_text("[1, 2]\n")
        rc = self.train_with(features_csv, selection, tmp_path)
        self.assert_names(capsys, rc, selection,
                          "selection file has a value of the wrong type")

    @pytest.mark.parametrize("indices", [[None], [[1]]])
    def test_selection_index_of_wrong_type(self, features_csv, tmp_path, capsys, indices):
        selection = tmp_path / "selection.json"
        selection.write_text(json.dumps({"selected_indices": indices}))
        rc = self.train_with(features_csv, selection, tmp_path)
        self.assert_names(capsys, rc, selection,
                          "selection file has a value of the wrong type")

    def test_empty_selection_names_its_file(self, features_csv, tmp_path, capsys):
        selection = tmp_path / "selection.json"
        selection.write_text(json.dumps({"selected_indices": []}))
        rc = self.train_with(features_csv, selection, tmp_path)
        self.assert_names(capsys, rc, selection, "catalog index list is empty")

    def test_selection_is_not_json(self, features_csv, tmp_path, capsys):
        selection = tmp_path / "selection.json"
        selection.write_text("selected: 1, 2\n")
        rc = self.train_with(features_csv, selection, tmp_path)
        self.assert_names(capsys, rc, selection, "Expecting value: line 1")

    @pytest.mark.parametrize("column, value, message", [
        (1, "boredom", "unknown emotion label 'boredom'"),
        (5, "nan", "non-finite"),
    ], ids=["label", "nan"])
    def test_feature_table_bad_field(self, features_csv, tmp_path, capsys,
                                     column, value, message):
        lines = features_csv.read_text().splitlines()
        fields = lines[4].split(",")
        fields[column] = value
        lines[4] = ",".join(fields)
        broken = tmp_path / "features.csv"
        broken.write_text("\n".join(lines) + "\n")
        rc = cli.main(["select", "--features", str(broken),
                       "--out", str(tmp_path / "selection.json")])
        self.assert_names(capsys, rc, broken, message)

    @pytest.mark.parametrize("command", [
        ["select", "--k", "5"],
        ["train"],
        ["report"],
    ], ids=["select", "train", "report"])
    def test_feature_table_missing_last_column(self, features_csv, tmp_path, capsys,
                                               command):
        lines = features_csv.read_text().splitlines()
        broken = tmp_path / "features.csv"
        broken.write_text("\n".join(lines[:1] + [ln.rsplit(",", 1)[0] for ln in lines[1:]])
                          + "\n")
        rc = cli.main([command[0], "--features", str(broken), *command[1:],
                       "--out", str(tmp_path / "out")])
        self.assert_names(capsys, rc, broken, "feature columns must be f01..f30")

    def test_one_row_table_names_its_file(self, features_csv, tmp_path, capsys):
        broken = tmp_path / "features.csv"
        broken.write_text("\n".join(features_csv.read_text().splitlines()[:3]) + "\n")
        rc = cli.main(["select", "--features", str(broken), "--k", "5",
                       "--out", str(tmp_path / "selection.json")])
        self.assert_names(capsys, rc, broken, "selection needs at least 2 rows, got 1")

    @pytest.mark.parametrize("command", [
        ["train", "--test-fraction", "0.3", "--test-out", "test.csv"],
        ["report"],
    ])
    def test_table_too_small_to_split_names_its_file(self, features_csv, tmp_path, capsys,
                                                     command):
        lines = features_csv.read_text().splitlines()
        firsts = {}
        for line in lines[2:]:
            firsts.setdefault(line.split(",")[1], line)
        broken = tmp_path / "features.csv"
        broken.write_text("\n".join(lines[:2] + list(firsts.values())) + "\n")
        args = [str(tmp_path / a) if a == "test.csv" else a for a in command[1:]]
        rc = cli.main([command[0], "--features", str(broken), *args,
                       "--out", str(tmp_path / "out")])
        self.assert_names(capsys, rc, broken, "has 1 record(s), need at least 2 to split")

    @pytest.mark.parametrize("command", ["train", "eval", "report"])
    def test_unlabeled_row_names_its_table(self, features_csv, model_path, tmp_path,
                                           capsys, command):
        lines = features_csv.read_text().splitlines()
        fields = lines[4].split(",")
        fields[1] = ""
        lines[4] = ",".join(fields)
        broken = tmp_path / "features.csv"
        broken.write_text("\n".join(lines) + "\n")
        model = ["--model", str(model_path)] if command == "eval" else []
        rc = cli.main([command, "--features", str(broken), *model,
                       "--out", str(tmp_path / "out")])
        self.assert_names(capsys, rc, broken, f"row {fields[0]!r} has no label")

    def test_out_of_range_test_fraction_flag_names_no_file(self, features_csv, tmp_path,
                                                          capsys):
        rc = cli.main(["report", "--features", str(features_csv), "--test-fraction", "1.5",
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: test_fraction must be in (0, 1), got 1.5\n"

    def test_manifest_lists_a_record_twice(self, corpus_dir, tmp_path, capsys):
        first = (corpus_dir / "manifest.txt").read_text().splitlines()[0]
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{corpus_dir / first}\n{corpus_dir / first}\n")
        rc = cli.main(["features", "--manifest", str(manifest),
                       "--out", str(tmp_path / "features.csv")])
        self.assert_names(capsys, rc, manifest, "duplicate record_id")

    def test_short_record_names_its_file(self, corpus_dir, tmp_path, capsys):
        name = (corpus_dir / "manifest.txt").read_text().splitlines()[0]
        lines = (corpus_dir / name).read_text().splitlines()
        header = lines.index(CSV_HEADER)
        record = tmp_path / name
        record.write_text("\n".join(lines[:header + 26]) + "\n")
        (tmp_path / "manifest.txt").write_text(name + "\n")
        rc = cli.main(["features", "--manifest", str(tmp_path / "manifest.txt"),
                       "--out", str(tmp_path / "features.csv")])
        self.assert_names(capsys, rc, record, "has 25 samples, need at least 64")

    @pytest.mark.parametrize("command", ["features", "cv"])
    def test_empty_manifest_names_its_file(self, tmp_path, capsys, command):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("# nothing yet\n")
        rc = cli.main([command, "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        self.assert_names(capsys, rc, manifest, "manifest lists no records")

    @pytest.mark.parametrize("kind", ["old_format", "blank_line", "two_fields"])
    def test_record_body_refused(self, corpus_dir, tmp_path, capsys, kind):
        name = (corpus_dir / "manifest.txt").read_text().splitlines()[0]
        lines = (corpus_dir / name).read_text().splitlines()
        header = lines.index(CSV_HEADER)
        body = lines[header + 1:]
        if kind == "old_format":  # the two-column layout with a t_seconds column
            lines[header:] = ["t_seconds,conductance_us"] + [
                f"{i / 16.0!r},{value}" for i, value in enumerate(body)]
            message = "expected header 'conductance_us' after metadata"
        elif kind == "blank_line":
            lines.insert(header + 4, "")
            message = "line 9: bad conductance value ''"
        else:
            lines[header + 4] = f"{body[3]},{body[3]}"
            message = f"line 9: bad conductance value '{body[3]},{body[3]}'"
        record = tmp_path / name
        record.write_text("\n".join(lines) + "\n")
        (tmp_path / "manifest.txt").write_text(name + "\n")
        rc = cli.main(["features", "--manifest", str(tmp_path / "manifest.txt"),
                       "--out", str(tmp_path / "features.csv")])
        self.assert_names(capsys, rc, record, message)
