"""End-to-end command-line tests.

Every command runs in-process through cli.main so exit codes, stdout,
stderr, and output files can all be asserted without subprocesses; only
TestLocale starts a child, to run it under another locale.
The corpus here is deliberately tiny; accuracy itself is covered by the
library tests and the acceptance suite.
"""

import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gsremotion import cli, svm
from gsremotion.dataset import (
    LABEL_ORDER,
    Dataset,
    EmotionLabel,
    GsrRecord,
    load_dataset,
    save_dataset,
)
from gsremotion.evaluate import kfold_cross_validate
from gsremotion.features import read_feature_csv, write_feature_csv
from gsremotion.kernels import KERNEL_KINDS
from gsremotion.pipeline import PipelineConfig, comparison_report, evaluate_model, subset_rows
from gsremotion.preprocess import NORM_MODES
from gsremotion.selection import read_selection_indices
from gsremotion.svm import load_model
from gsremotion.synth import SynthConfig

LABEL_NAMES = {lab.value for lab in LABEL_ORDER}
# what a feature table with any other header is refused with
FEATURE_HEADER_RULE = "header must be record_id,label," + ",".join(
    f"f{i:02d}" for i in range(1, 31))


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


def table_with_value(features_csv, tmp_path, column, value):
    """The feature table with catalog column `column` of its first row set to value."""
    lines = features_csv.read_text().splitlines()
    fields = lines[2].split(",")
    fields[column + 1] = repr(value)
    path = tmp_path / f"f{column:02d}.csv"
    path.write_text("\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n")
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
        assert sorted(os.listdir(corpus_dir)) == ["manifest.txt", "samples.npy"]

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

    def test_refuses_overwrite_before_checking_its_config(self, tmp_path, capsys):
        """An existing output is refused first, as every command does, before
        a duration too short for one record is."""
        cfg = write_config(tmp_path / "synth.cfg", "duration_s = 1.0\n")
        out = tmp_path / "corpus"
        out.mkdir()
        (out / "samples.npy").write_text("kept")
        rc = cli.main(["synth", "--out", str(out), "--config", cfg])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {out / 'samples.npy'} exists; pass --force to overwrite\n")
        assert cli.main(["synth", "--out", str(out), "--config", cfg, "--force"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: duration 1.0s at ")

    @pytest.mark.parametrize("command", ["synth", "preprocess"])
    @pytest.mark.parametrize("existing", ["samples.npy", "manifest.txt"])
    def test_either_corpus_file_is_protected(self, manifest, tmp_path, capsys, command,
                                             existing):
        out = tmp_path / "out"
        out.mkdir()
        (out / existing).write_text("kept")
        source = ["--manifest", manifest] if command == "preprocess" else []
        rc = cli.main([command, *source, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {out / existing} exists; pass --force to overwrite\n")
        assert os.listdir(out) == [existing] and (out / existing).read_text() == "kept"
        assert cli.main([command, *source, "--out", str(out), "--force"]) == 0
        assert sorted(os.listdir(out)) == ["manifest.txt", "samples.npy"]

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

    @pytest.mark.parametrize("duration,message", [
        # numpy's allocator refuses the first block
        ("1e12", "cannot allocate the corpus: Unable to allocate"),
        # numpy refuses the block's shape before allocating
        ("1e300", "cannot allocate the corpus: 64 records of 1.6e+301 samples exceed"),
    ])
    def test_corpus_too_large_to_allocate_names_the_file(self, tmp_path, capsys,
                                                          duration, message):
        cfg = write_config(tmp_path / "synth.cfg", f"duration_s = {duration}\n")
        out = tmp_path / "corpus"
        rc = cli.main(["synth", "--out", str(out), "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1, err
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("duration,rate,events", [
        ("1e19", "1e-17", "1e+19 gives a record up to 2.33e+18"),
        ("1e21", "1e-19", "1e+21 gives a record up to 2.33e+20"),
    ])
    def test_too_many_events_name_duration_s(self, tmp_path, capsys, duration, rate, events):
        # 100 samples a record, but more events than one array can hold
        cfg = write_config(tmp_path / "synth.cfg",
                           f"duration_s = {duration}\nsample_rate_hz = {rate}\n")
        out = tmp_path / "corpus"
        rc = cli.main(["synth", "--out", str(out), "--config", cfg])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: duration_s {events} events, too many to draw as one array\n")
        assert not out.exists()

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
            f"error: {manifest}: record 'f1' has non-finite values after denoising\n")


    def test_tiny_calm_range_names_the_calm_record(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        calm = GsrRecord("c1", "S01", EmotionLabel.CALM, 16.0, 1e-310 * rng.uniform(1, 2, 960))
        fear = GsrRecord("f1", "S01", EmotionLabel.FEAR, 16.0, 3.0 + rng.uniform(0, 1, 960))
        manifest = save_dataset(Dataset(records=[calm, fear]), str(tmp_path / "corpus"))
        rc = main_printing_warnings(["preprocess", "--manifest", manifest,
                                     "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {manifest}: calm record 'c1' has a range too small to normalize "
            "record 'f1'\n")

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
            f"error: {manifest}: feature vector for 'huge' has non-finite values\n")


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
        assert capsys.readouterr().err == (
            "error: --features-list: invalid literal for int() with base 10: 'a'\n")


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
        assert capsys.readouterr().err == "error: --k: k must be in 1..30, got 31\n"

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
        assert capsys.readouterr().err == "error: --features-list: catalog index list is empty\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("listed", ["1,,3", "1,3,", ",1,3", "1, ,3"])
    def test_empty_field_in_feature_list_rejected(self, features_csv, tmp_path, capsys,
                                                  listed):
        """An empty field is refused, not dropped: 1,,3 is not the 2 features 1,3."""
        rc = cli.main(["select", "--features", str(features_csv),
                       "--out", str(tmp_path / "selection.json"), "--features-list", listed])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: --features-list: empty field in comma-separated integers {listed!r}\n")
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
        for test_out in ([], ["--test-out", ""]):
            rc = cli.main(["train", "--features", str(features_csv),
                           "--out", str(tmp_path / "model.json"),
                           "--test-fraction", "0.5", *test_out])
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

    def test_refused_fit_leaves_no_held_out_file(self, features_csv, tmp_path, capsys):
        huge = huge_column_table(features_csv, tmp_path)
        argv = ["train", "--features", str(huge), "--features-list", "1,2,3",
                "--test-fraction", "0.5", "--test-out", str(tmp_path / "t.csv"),
                "--out", str(tmp_path / "model.json")]
        for _ in range(2):  # a rerun meets the same refusal, not an existing file
            assert main_printing_warnings(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (f"error: {huge}: kernel matrix overflows: feature values or "
                           "kernel parameters are too large\n")
            assert sorted(os.listdir(tmp_path)) == ["huge.csv"]

    def test_existing_test_out_refused_before_any_input_is_read(self, tmp_path, capsys):
        existing = tmp_path / "existing.csv"
        existing.write_text("kept\n")
        rc = cli.main(["train", "--features", str(tmp_path / "missing.csv"),
                       "--test-fraction", "0.3", "--test-out", str(existing),
                       "--out", str(tmp_path / "model.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {existing} exists; pass --force to overwrite\n"
        assert sorted(os.listdir(tmp_path)) == ["existing.csv"]
        assert existing.read_text() == "kept\n"

    def test_unwritable_model_prints_no_held_out_line(self, features_csv, tmp_path, capsys):
        """The held-out rows are written before the model; when the model
        cannot be written, stdout stays empty and only the io error is printed."""
        test_out = tmp_path / "test.csv"
        model = tmp_path / "missing" / "model.json"
        rc = cli.main(["train", "--features", str(features_csv), "--test-fraction", "0.3",
                       "--test-out", str(test_out), "--out", str(model)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("io error: ") and captured.err.count("\n") == 1
        assert str(model) in captured.err
        assert not test_out.exists()

    @pytest.mark.parametrize("force", [False, True])
    def test_refuses_test_out_naming_the_model(self, tmp_path, capsys, monkeypatch, force):
        """Checked before the table is read: the table here does not exist."""
        monkeypatch.chdir(tmp_path)
        os.mkdir("sub")
        rc = cli.main(["train", "--features", "missing.csv", "--test-fraction", "0.3",
                       "--test-out", "sub/../m.json", "--out", "m.json"]
                      + ["--force"] * force)
        assert rc == 1
        assert capsys.readouterr().err == "error: --test-out and --out both name m.json\n"
        assert os.listdir(tmp_path) == ["sub"]

    def test_rejects_unknown_kernel(self, features_csv, tmp_path, capsys):
        for kind in ("bogus", "sigmoid", "poly"):
            rc = cli.main(["train", "--features", str(features_csv),
                           "--out", str(tmp_path / "model.json"), "--kernel", kind])
            assert rc == 1
            assert capsys.readouterr().err == (
                f"error: --kernel: unknown kernel kind {kind!r} "
                "(expected one of: linear, rbf)\n")
        assert not (tmp_path / "model.json").exists()

    def test_rejects_zero_eta(self, features_csv, tmp_path, capsys):
        rc = cli.main(["train", "--features", str(features_csv),
                       "--out", str(tmp_path / "model.json"), "--eta", "0"])
        assert rc == 1
        assert "eta" in capsys.readouterr().err
        rc = cli.main(["train", "--features", str(features_csv), "--kernel", "linear",
                       "--eta", "5", "--out", str(tmp_path / "model.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: eta 5.0 given, but the linear kernel takes no eta\n")
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("flags, message", [
        ([], "table values are too large: their covariance overflows"),
        (["--features-list", "1,2,3"],
         "kernel matrix overflows: feature values or kernel parameters are too large"),
        (["--features-list", "1,2,3", "--kernel", "linear"],
         "kernel matrix overflows: feature values or kernel parameters are too large"),
    ], ids=["selection", "kernel", "linear"])
    def test_too_large_values_stop_before_the_solver(self, features_csv, tmp_path, capsys,
                                                     monkeypatch, flags, message):
        monkeypatch.setattr("gsremotion.svm._smo_solve",
                            lambda *args: pytest.fail("the solver started"))
        huge = huge_column_table(features_csv, tmp_path)
        out = tmp_path / "model.json"
        rc = main_printing_warnings(["train", "--features", str(huge), *flags,
                                     "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {huge}: {message}\n"
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
            f"error: {wide}: column f02 spans more than the float range "
            "(max - min overflows)\n")


class TestConflictingKeys:
    """A key that would leave another one ignored is refused with exit 1, and
    nothing is written, whether a flag or the config file sets each key."""

    LIST_AND_K = "--features-list and --k cannot both be set: the list sets the number of features"
    LIST_AND_SELECTION = ("--features-list and --selection cannot both be set: "
                          "each names the model's features")

    def run(self, tmp_path, capsys, argv, file_keys=None):
        if file_keys:
            argv += ["--config", write_config(tmp_path / "keys.cfg", "".join(
                f"{key} = {value}\n" for key, value in file_keys.items()))]
        rc = cli.main(argv + ["--out", str(tmp_path / "out")])
        assert rc == 1
        assert not (tmp_path / "out").exists() and not (tmp_path / "t.csv").exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("command", ["select", "train", "cv", "report"])
    @pytest.mark.parametrize("in_file", [(), ("k",), ("features_list",)])
    def test_feature_list_and_k(self, manifest, features_csv, tmp_path, capsys, command,
                                in_file):
        keys = {"features_list": "4,5", "k": "9"}
        source = ["--manifest", manifest] if command == "cv" else ["--features",
                                                                   str(features_csv)]
        flags = [arg for key, value in keys.items() if key not in in_file
                 for arg in ("--" + key.replace("_", "-"), value)]
        err = self.run(tmp_path, capsys, [command, *source, *flags],
                       {key: keys[key] for key in in_file})
        assert err == f"error: {self.LIST_AND_K}\n"

    def test_both_in_the_file_name_it(self, features_csv, tmp_path, capsys):
        err = self.run(tmp_path, capsys, ["train", "--features", str(features_csv)],
                       {"features_list": "1,2", "k": "5"})
        assert err == f"error: {tmp_path / 'keys.cfg'}: {self.LIST_AND_K}\n"

    @pytest.mark.parametrize("in_file", [False, True])
    def test_feature_list_and_selection(self, features_csv, tmp_path, capsys, in_file):
        selection = tmp_path / "selection.json"
        assert cli.main(["select", "--features", str(features_csv),
                         "--out", str(selection), "--features-list", "2,4,6"]) == 0
        argv = ["train", "--features", str(features_csv), "--selection", str(selection)]
        if in_file:
            err = self.run(tmp_path, capsys, argv, {"features_list": "1,2,3"})
        else:
            err = self.run(tmp_path, capsys, argv + ["--features-list", "1,2,3"])
        assert err == f"error: {self.LIST_AND_SELECTION}\n"

    def test_test_out_without_test_fraction(self, features_csv, tmp_path, capsys):
        err = self.run(tmp_path, capsys, ["train", "--features", str(features_csv),
                                          "--test-out", str(tmp_path / "t.csv")])
        assert err == ("error: --test-out requires --test-fraction: "
                       "without it no rows are held out\n")

    def test_refused_before_any_input_is_read(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, ["train", "--features", str(tmp_path / "missing.csv"),
                                          "--selection", str(tmp_path / "missing.json"),
                                          "--features-list", "1,2"])
        assert err == f"error: {self.LIST_AND_SELECTION}\n"


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

    def test_id_holding_a_comma_stays_one_field(self, model_path, features_csv, tmp_path):
        matrix = read_feature_csv(str(features_csv))
        matrix.record_ids[0] = "S01,x"
        table = tmp_path / "features.csv"
        write_feature_csv(matrix, str(table))
        out = tmp_path / "predictions.csv"
        assert cli.main(["predict", "--model", str(model_path),
                         "--features", str(table), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [3] * 21
        assert rows[1][0] == "S01,x"

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

    def train_scaled(self, features_csv, tmp_path, listed):
        model = tmp_path / "model.json"
        assert cli.main(["train", "--features", str(features_csv), "--features-list", listed,
                         "--norm", "feature", "--out", str(model)]) == 0
        return str(model)

    def test_unused_column_is_not_scaled(self, features_csv, tmp_path, capsys):
        # f17 = 1e305 overflows (value - min) / span, but the model never reads f17
        model = self.train_scaled(features_csv, tmp_path, "1,2,3")
        table = table_with_value(features_csv, tmp_path, 17, 1e305)
        capsys.readouterr()
        for source, out in ((table, "with.csv"), (features_csv, "without.csv")):
            assert main_printing_warnings(["predict", "--model", model, "--features",
                                           str(source), "--out", str(tmp_path / out)]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "with.csv").read_text() == (tmp_path / "without.csv").read_text()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_used_column_scaling_overflow_names_the_table(self, features_csv, tmp_path,
                                                          capsys, command):
        model = self.train_scaled(features_csv, tmp_path, "17,18")
        table = table_with_value(features_csv, tmp_path, 17, 1e305)
        capsys.readouterr()
        rc = main_printing_warnings([command, "--model", model, "--features", str(table),
                                     "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {table}: kernel matrix overflows: feature values or kernel "
            "parameters are too large\n")


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

    def test_label_the_model_never_saw_names_the_table(self, features_csv, tmp_path, capsys):
        table = read_feature_csv(str(features_csv))
        no_calm = tmp_path / "no_calm.csv"
        write_feature_csv(subset_rows(table, [i for i, lab in enumerate(table.labels)
                                              if lab is not EmotionLabel.CALM]), str(no_calm))
        model = tmp_path / "model.json"
        assert cli.main(["train", "--features", str(no_calm), "--out", str(model)]) == 0
        capsys.readouterr()
        rc = cli.main(["eval", "--model", str(model), "--features", str(features_csv),
                       "--out", str(tmp_path / "scores")])
        message = "label 'calm' not in label order (happiness, grief, fear, anger)"
        assert (rc, capsys.readouterr().err) == (1, f"error: {features_csv}: {message}\n")
        assert not (tmp_path / "scores.json").exists()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_model(load_model(str(model)), table)

    def test_label_the_table_lacks_names_the_table(self, model_path, features_csv, tmp_path,
                                                   capsys):
        """The model knows calm and the table has no calm row: the refusal is the
        table's, like every other refusal of the stage."""
        table = read_feature_csv(str(features_csv))
        no_calm = tmp_path / "no_calm.csv"
        write_feature_csv(subset_rows(table, [i for i, lab in enumerate(table.labels)
                                              if lab is not EmotionLabel.CALM]), str(no_calm))
        rc = cli.main(["eval", "--model", str(model_path), "--features", str(no_calm),
                       "--out", str(tmp_path / "scores")])
        assert (rc, capsys.readouterr().err) == (
            1, f"error: {no_calm}: label 'calm' has no scored rows\n")
        assert not (tmp_path / "scores.json").exists()


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

    # each command's inputs, none of which exists: a feature table unless listed
    MISSING_INPUTS = {"cv": ["--manifest", "missing.txt"],
                      "preprocess": ["--manifest", "missing.txt"],
                      "eval": ["--model", "missing.json", "--features", "missing.csv"]}

    @pytest.mark.parametrize("flag, message", [
        (["cv", "--k", "99"], "k must be in 1..30, got 99"),
        (["cv", "--seed", "-1"], "expected non-negative integer"),
        (["preprocess", "--norm", "zscore"],
         "unknown norm mode 'zscore' (expected one of: signal, feature, both)"),
        (["select", "--k", "99"], "k must be in 1..30, got 99"),
        (["train", "--k", "99"], "k must be in 1..30, got 99"),
        (["train", "--kernel", "linear", "--eta", "0.5"],
         "eta 0.5 given, but the linear kernel takes no eta"),
        (["train", "--test-fraction", "1.5", "--test-out", "t.csv"],
         "test_fraction must be in (0, 1), got 1.5"),
        (["eval", "--seed", "-1"], "expected non-negative integer"),
        (["report", "--k", "99"], "k must be in 1..30, got 99"),
    ])
    def test_bad_flag_fails_before_any_input_is_read(self, tmp_path, capsys, monkeypatch,
                                                      flag, message):
        """Every command checks its options first: with each input file
        missing, the command and its bad flags in flag exit 1 with the
        flag's own error line, and nothing is written. The line names the
        first flag, unless the fault is the pairing of --kernel and --eta."""
        monkeypatch.chdir(tmp_path)
        command, *flags = flag
        inputs = self.MISSING_INPUTS.get(command, ["--features", "missing.csv"])
        rc = cli.main([command, *inputs, *flags, "--out", "out"])
        named = "" if flags[0] == "--kernel" else f"{flags[0]}: "
        assert rc == 1
        assert capsys.readouterr().err == f"error: {named}{message}\n"
        assert os.listdir(tmp_path) == []

    def test_bad_config_value_fails_before_any_input_is_read(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "bad.cfg", "k = 99\n")
        rc = cli.main(["select", "--features", "missing.csv", "--out", "out", "--config", cfg])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: {cfg}: config key k: k must be in 1..30, got 99\n"
        assert os.listdir(tmp_path) == ["bad.cfg"]

    def test_one_fold_flag_is_named_folds(self, manifest, tmp_path, capsys):
        rc = cli.main(["cv", "--manifest", manifest, "--folds", "1",
                       "--out", str(tmp_path / "cv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: --folds: folds must be >= 2, got 1\n"


class TestNonConvergence:
    """A machine stopped by MAX_PASSES is named on stderr; files are unchanged."""

    @pytest.fixture
    def two_passes(self, monkeypatch):
        monkeypatch.setattr(svm, "MAX_PASSES", 2)

    def test_train_warns(self, features_csv, tmp_path, capsys, two_passes):
        out = tmp_path / "model.json"
        assert cli.main(["train", "--features", str(features_csv), "--out", str(out)]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 10
        assert "machine happiness/grief did not converge" in warnings[0]
        assert "after 2 iterations with KKT gap" in warnings[0]
        model = load_model(str(out))
        assert not any(m.converged for m in model.machines)
        assert warnings == [f"warning: {line}" for line in model.warnings()]

    def test_cv_warns_per_fold(self, manifest, tmp_path, capsys, two_passes):
        assert cli.main(["cv", "--manifest", manifest, "--folds", "2",
                         "--out", str(tmp_path / "cv"), "--seed", "3"]) == 0
        err = capsys.readouterr().err
        assert err.count("warning: fold 1: machine") == 10
        assert err.count("warning: fold 2: machine") == 10
        report = kfold_cross_validate(load_dataset(manifest), 2,
                                      PipelineConfig(seed=3), 3)
        assert err.splitlines() == [f"warning: {line}" for line in report.warnings]

    def test_report_warns_per_model(self, features_csv, tmp_path, capsys, two_passes):
        assert cli.main(["report", "--features", str(features_csv), "--out",
                         str(tmp_path / "cmp"), "--test-fraction", "0.5", "--k", "10"]) == 0
        err = capsys.readouterr().err
        assert err.count("warning: selected-k model: machine") == 10
        assert err.count("warning: all-features model: machine") == 10
        report = comparison_report(read_feature_csv(str(features_csv)),
                                   PipelineConfig(selection_k=10), 0.5)
        assert err.splitlines() == [f"warning: {line}" for line in report.warnings]
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

    def test_repeated_key_rejected(self, features_csv, tmp_path, capsys):
        for text, key in (("k = 5\nk = 7\n", "k"),
                          ("test-fraction = 0.5\ntest_fraction = 0.4\n", "test_fraction")):
            cfg = write_config(tmp_path / "twice.cfg", text)
            rc = cli.main(["select", "--features", str(features_csv),
                           "--out", str(tmp_path / "selection.json"), "--config", cfg])
            assert rc == 1
            assert capsys.readouterr().err == f"error: {cfg}: line 2: key {key!r} given twice\n"
            assert not (tmp_path / "selection.json").exists()

    def test_unparsable_value(self, features_csv, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg", "k = five\n")
        rc = cli.main(["train", "--features", str(features_csv),
                       "--out", str(tmp_path / "model.json"), "--config", cfg])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: config key k: invalid literal for int() with base 10: 'five'\n")
        cfg = write_config(tmp_path / "synth.cfg", "duration_s = abc\n")
        assert cli.main(["synth", "--out", str(tmp_path / "corpus"), "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: config key duration_s: could not convert string to float: 'abc'\n")

    def test_refused_list_keeps_the_parser_reason(self, features_csv, tmp_path, capsys):
        """The same unparsable list, from the file or as a flag, prints the
        parser's reason; the file's names the file and the key."""
        cfg = write_config(tmp_path / "bad.cfg", "features_list = 1,,2\n")
        reason = "empty field in comma-separated integers '1,,2'"
        select = ["select", "--features", str(features_csv), "--out", str(tmp_path / "s.json")]
        assert cli.main([*select, "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: config key features_list: {reason}\n"
        assert cli.main([*select, "--features-list", "1,,2"]) == 1
        assert capsys.readouterr().err == f"error: --features-list: {reason}\n"
        assert not (tmp_path / "s.json").exists()


    # one out-of-range value per config key, run by a subcommand that reads it
    OUT_OF_RANGE = [
        ("train", "kernel = bogus\n", "config key kernel: unknown kernel kind 'bogus'"),
        ("train", "k = 99\n", "config key k: k must be in 1..30, got 99"),
        ("train", "eta = -1\n", "config key eta: eta must be positive"),
        ("train", "kernel = linear\neta = 5\n",
         "eta 5.0 given, but the linear kernel takes no eta"),
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
        ("train", "c = 0\n", "config key c: c must be positive and finite, got 0.0"),
        ("preprocess", "norm = bogus\n", "config key norm: unknown norm mode 'bogus'"),
        ("train", "seed = -1\n", "config key seed: expected non-negative integer"),
        ("synth", "sample_rate_hz = 0\n", "sample_rate_hz must be positive and finite, got 0.0"),
        ("synth", "sample_rate_hz = inf\n", "sample_rate_hz must be positive and finite, got inf"),
        ("synth", "sample_rate_hz = nan\n", "sample_rate_hz must be positive and finite, got nan"),
        ("synth", "noise_std = nan\n",
         "config key noise_std: noise_std_us must be finite, got nan"),
        ("synth", "noise_std = inf\n",
         "config key noise_std: noise_std_us must be finite, got inf"),
        ("synth", "duration_s = 1e308\n", "yields a sample count that is not finite"),
    ]

    def test_every_config_key_has_an_out_of_range_case(self):
        assert {text.split("=")[0].strip() for _, text, _ in self.OUT_OF_RANGE} == \
            set(cli._OPTIONS)

    @pytest.mark.parametrize("command,text,message", OUT_OF_RANGE)
    def test_out_of_range_value_names_file_and_key(self, manifest, features_csv, tmp_path,
                                                   capsys, command, text, message):
        cfg = write_config(tmp_path / "bad.cfg", text)
        inputs = {"synth": [], "cv": ["--manifest", manifest],
                  "preprocess": ["--manifest", manifest]}
        rc = cli.main([command, *inputs.get(command, ["--features", str(features_csv)]),
                       "--out", str(tmp_path / "out"), "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1, err
        assert message in err

    @pytest.mark.parametrize("command, text", [
        ("synth", "counts = 10,,10,10,10,10\n"),
        ("synth", "counts = 10,10,10,10,10,\n"),
        ("select", "features_list = 1,,3\n"),
    ])
    def test_empty_list_field_names_the_key(self, features_csv, tmp_path, capsys,
                                            command, text):
        cfg = write_config(tmp_path / "bad.cfg", text)
        source = [] if command == "synth" else ["--features", str(features_csv)]
        rc = cli.main([command, *source, "--out", str(tmp_path / "out"), "--config", cfg])
        key, value = (part.strip() for part in text.split("="))
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: config key {key}: empty field in comma-separated integers {value!r}\n")
        assert os.listdir(tmp_path) == ["bad.cfg"]

    @pytest.mark.parametrize("command", [name for name, *_ in cli._COMMANDS])
    def test_every_command_reads_the_file(self, manifest, features_csv, model_path, tmp_path,
                                          capsys, command):
        table = ["--features", str(features_csv)]
        inputs = {"synth": [], "preprocess": ["--manifest", manifest],
                  "features": ["--manifest", manifest], "cv": ["--manifest", manifest],
                  "predict": ["--model", str(model_path), *table],
                  "eval": ["--model", str(model_path), *table]}.get(command, table)
        argv = [command, *inputs, "--out", str(tmp_path / "out"), "--config"]
        assert cli.main([*argv, str(tmp_path / "missing.cfg")]) == 2
        assert capsys.readouterr().err.startswith("io error:")
        typo = write_config(tmp_path / "typo.cfg", "kernal = linear\n")
        assert cli.main([*argv, typo]) == 1
        assert capsys.readouterr().err == f"error: {typo}: line 1: unknown key 'kernal'\n"
        assert os.listdir(tmp_path) == ["typo.cfg"]

    def test_out_of_range_flag_is_reported_as_given(self, features_csv, tmp_path, capsys):
        cfg = write_config(tmp_path / "train.cfg", "k = 5\n")
        rc = cli.main(["train", "--features", str(features_csv), "--kernel", "bogus",
                       "--out", str(tmp_path / "model.json"), "--config", cfg])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --kernel: unknown kernel kind 'bogus'")


class TestNumberGrammar:
    """A number Python's int or float would take with `_`, non-ASCII digits or
    surrounding whitespace is refused wherever it is read, and the refusal
    names the flag, the config key, or the file and line."""

    INT = "invalid literal for int() with base 10"

    @pytest.mark.parametrize("flag, message", [
        (["--features-list", "1_5,2_0"], f"--features-list: {INT}: '1_5'"),
        (["--features-list", "\u0661,\u0662"], f"--features-list: {INT}: '\u0661'"),
        (["--k", "1_5"], f"--k: {INT}: '1_5'"),
        (["--k", " 15"], f"--k: {INT}: ' 15'"),
    ], ids=["grouped-list", "arabic-indic-list", "grouped-k", "spaced-k"])
    def test_flag(self, features_csv, tmp_path, capsys, flag, message):
        rc = cli.main(["select", "--features", str(features_csv), *flag,
                       "--out", str(tmp_path / "s.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, text, message", [
        ("synth", "counts = 1_0,10,10,10,10\n", f"config key counts: {INT}: '1_0'"),
        ("select", "k = 1_5\n", f"config key k: {INT}: '1_5'"),
    ], ids=["counts", "k"])
    def test_config_value(self, features_csv, tmp_path, capsys, command, text, message):
        cfg = write_config(tmp_path / "bad.cfg", text)
        source = [] if command == "synth" else ["--features", str(features_csv)]
        rc = cli.main([command, *source, "--out", str(tmp_path / "out"), "--config", cfg])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert os.listdir(tmp_path) == ["bad.cfg"]

    def test_manifest_rate(self, corpus_dir, tmp_path, capsys):
        corpus = shutil.copytree(corpus_dir, tmp_path / "corpus")
        manifest = corpus / "manifest.txt"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        fields = lines[2].split(",")
        fields[3] = " \uff11\uff16.0 "
        lines[2] = ",".join(fields)
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = cli.main(["features", "--manifest", str(manifest),
                       "--out", str(tmp_path / "features.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {manifest}: line 3: could not convert string to float: "
            "' \uff11\uff16.0 '\n")
        assert os.listdir(tmp_path) == ["corpus"]

    def test_feature_value(self, features_csv, tmp_path, capsys):
        lines = features_csv.read_text().splitlines()
        fields = lines[3].split(",")
        fields[2] = "\u0663"
        lines[3] = ",".join(fields)
        table = tmp_path / "features.csv"
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = cli.main(["select", "--features", str(table), "--out", str(tmp_path / "s.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {table}: line 4: bad feature value\n"
        assert os.listdir(tmp_path) == ["features.csv"]

    def test_flag_and_config_value_give_one_reason(self, features_csv, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg", "k = five\n")
        select = ["select", "--features", str(features_csv), "--out", str(tmp_path / "s.json")]
        assert cli.main([*select, "--k", "five"]) == 1
        assert capsys.readouterr().err == f"error: --k: {self.INT}: 'five'\n"
        assert cli.main([*select, "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: config key k: {self.INT}: 'five'\n"


def with_first_label(path, out, label):
    """The manifest or feature table at path written to out, its first row's
    label set to label (CSV-quoted when it needs to be)."""
    with open(path, newline="", encoding="utf-8") as fh:
        head = [fh.readline(), fh.readline()]
        rows = list(csv.reader(fh))
    rows[0][head[1].split(",").index("label")] = label
    with open(out, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(head)
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return out


class TestWordGrammar:
    """A label, kernel kind or norm mode is one of its words in any case and
    nothing else: surrounding whitespace or a line break is refused wherever
    it is read, with one wording, naming the flag, the config key, or the
    file and line. A config value loses one pair of matching quotes only."""

    KINDS = "(expected one of: linear, rbf)"
    LABELS = "(expected one of: happiness, grief, fear, anger, calm)"

    def test_manifest_label(self, corpus_dir, tmp_path, capsys):
        corpus = shutil.copytree(corpus_dir, tmp_path / "corpus")
        manifest = with_first_label(corpus / "manifest.txt", corpus / "manifest.txt",
                                    " CaLm\n")
        rc = cli.main(["features", "--manifest", str(manifest),
                       "--out", str(tmp_path / "features.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {manifest}: line 3: unknown emotion label ' CaLm\\n' {self.LABELS}\n")
        assert os.listdir(tmp_path) == ["corpus"]

    def test_feature_table_label(self, features_csv, tmp_path, capsys):
        table = with_first_label(features_csv, tmp_path / "features.csv", " CaLm\n")
        rc = cli.main(["select", "--features", str(table), "--out", str(tmp_path / "s.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {table}: line 3: unknown emotion label ' CaLm\\n' {self.LABELS}\n")
        assert os.listdir(tmp_path) == ["features.csv"]

    @pytest.mark.parametrize("flag, message", [
        (["--kernel", " Linear"], f"--kernel: unknown kernel kind ' Linear' {KINDS}"),
        (["--norm", " both"], "--norm: unknown norm mode ' both' "
                              "(expected one of: signal, feature, both)"),
    ], ids=["kernel", "norm"])
    def test_spaced_flag(self, features_csv, tmp_path, capsys, flag, message):
        rc = cli.main(["train", "--features", str(features_csv), *flag,
                       "--out", str(tmp_path / "model.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    def test_model_kind(self, model_path, features_csv, tmp_path, capsys):
        payload = json.loads(model_path.read_text())
        payload["config"]["kernel"]["kind"] = " RBF"
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(payload))
        rc = cli.main(["eval", "--model", str(broken), "--features", str(features_csv),
                       "--out", str(tmp_path / "scores")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {broken}: unknown kernel kind ' RBF' {self.KINDS}\n")

    @pytest.mark.parametrize("text, key, value", [
        ("counts = '6,6,6,6,6\"\n", "counts", "'6"),
        ("seed = \"\"7''\n", "seed", "\"\"7''"),
    ], ids=["counts", "seed"])
    def test_mismatched_config_quotes(self, tmp_path, capsys, text, key, value):
        cfg = write_config(tmp_path / "synth.cfg", text)
        rc = cli.main(["synth", "--out", str(tmp_path / "corpus"), "--config", cfg])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: config key {key}: "
            f"invalid literal for int() with base 10: {value!r}\n")
        assert os.listdir(tmp_path) == ["synth.cfg"]

    def test_quoted_config_value_loses_one_pair(self, features_csv, tmp_path, capsys):
        cfg = write_config(tmp_path / "train.cfg", "kernel = \"'rbf'\"\n")
        rc = cli.main(["train", "--features", str(features_csv),
                       "--out", str(tmp_path / "model.json"), "--config", cfg])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: config key kernel: unknown kernel kind \"'rbf'\" {self.KINDS}\n")

    def test_capitalised_kernel_writes_its_word(self, features_csv, model_path, tmp_path):
        out = tmp_path / "model.json"
        assert cli.main(["train", "--features", str(features_csv), "--kernel", "RBF",
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["kernel"]["kind"] == "rbf"
        assert out.read_bytes() == model_path.read_bytes()

    def test_capitalised_norm_runs_as_its_word(self, manifest, tmp_path, capsys):
        outs = [tmp_path / "lower", tmp_path / "capitalised"]
        for norm, out in zip(("both", "Both"), outs):
            assert cli.main(["preprocess", "--manifest", manifest, "--norm", norm,
                             "--out", str(out)]) == 0
            assert capsys.readouterr().out == (
                f"preprocessed 20 records into {out} (norm=both)\n")
        for name in ("manifest.txt", "samples.npy"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


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
        assert f"{restricted}: line 2: {FEATURE_HEADER_RULE}\n" in capsys.readouterr().err

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

    def test_overflowing_support_vector_names_its_model(self, model_path, features_csv,
                                                        tmp_path, capsys):
        """An rbf support vector whose squared norm overflows is refused as the
        model is built from its file."""
        payload = json.loads(model_path.read_text())
        assert payload["config"]["kernel"]["kind"] == "rbf"
        payload["machines"][0]["support_vectors"][0][0] = (1e200).hex()
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(payload))
        rc = cli.main(["predict", "--model", str(broken), "--features", str(features_csv),
                       "--out", str(tmp_path / "predictions.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {broken}: kernel matrix overflows: feature "
                                           "values or kernel parameters are too large\n")

    def test_unparsable_flag_is_validation_error(self, features_csv, tmp_path, capsys):
        assert cli.main(["train", "--features", str(features_csv),
                         "--out", str(tmp_path / "model.json"), "--c", "abc"]) == 1
        assert capsys.readouterr().err == "error: --c: could not convert string to float: 'abc'\n"
        for flag in ("--r", "--degree"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["train", "--features", str(features_csv),
                          "--out", str(tmp_path / "model.json"), flag, "3"])
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert err.startswith("usage: ") and f"unrecognized arguments: {flag} 3" in err

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


class TestOutputRefusals:
    """main refuses an output before it reads an input or runs the stage: one
    that is an input, even with --force, and one that could not be opened."""

    @pytest.fixture
    def inputs(self, manifest, features_csv, model_path, tmp_path, monkeypatch):
        """A working directory of copies of the corpus, the table and the model."""
        shutil.copytree(os.path.dirname(manifest), tmp_path / "corpus")
        shutil.copy(features_csv, tmp_path / "f.csv")
        shutil.copy(model_path, tmp_path / "m.json")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.mark.parametrize("argv, named", [
        (["eval", "--model", "m.json", "--features", "f.csv", "--out", "m"], "m.json"),
        (["select", "--features", "f.csv", "--out", "f.csv"], "f.csv"),
        (["preprocess", "--manifest", "corpus/manifest.txt", "--out", "corpus"],
         os.path.join("corpus", "samples.npy")),
    ], ids=["eval-model", "select-table", "preprocess-corpus"])
    def test_output_naming_an_input_is_refused_with_force(self, inputs, capsys, argv, named):
        def files():
            return {path: path.read_bytes() for path in inputs.rglob("*") if path.is_file()}

        before = files()
        assert cli.main([*argv, "--force"]) == 1
        assert capsys.readouterr() == ("", f"error: {named} is an input of this command\n")
        assert files() == before

    @pytest.mark.parametrize("command, stage, written", [
        ("features", "extract_dataset_features", "f.csv"),
        ("cv", "kfold_cross_validate", "cv.json"),
    ], ids=["features", "cv"])
    def test_missing_output_directory_is_refused_before_the_stage(
            self, manifest, tmp_path, capsys, monkeypatch, command, stage, written):
        monkeypatch.setattr(cli, stage, lambda *args: pytest.fail("the stage ran"))
        out = tmp_path / "nosuch" / written.replace(".json", "")
        rc = cli.main([command, "--manifest", manifest, "--out", str(out)])
        path = str(tmp_path / "nosuch" / written)
        assert (rc, capsys.readouterr()) == (
            2, ("", f"io error: [Errno 2] No such file or directory: {path!r}\n"))

    def test_file_as_corpus_out_is_refused_before_the_stage(self, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.setattr(cli, "generate_dataset", lambda config: pytest.fail("the stage ran"))
        out = tmp_path / "afile"
        out.write_text("kept\n")
        rc = cli.main(["synth", "--out", str(out), "--force"])
        assert (rc, capsys.readouterr()) == (
            2, ("", f"io error: [Errno 17] File exists: {str(out)!r}\n"))
        assert out.read_text() == "kept\n"


class TestHelp:
    """Each subcommand's --help exits 0 and shows the defaults its stage uses."""

    @pytest.fixture(scope="class")
    def stage_defaults(self, manifest, features_csv, model_path, tmp_path_factory):
        """({flag: value}, {(command, flag): value} where one subcommand's own
        default is read elsewhere), taken from runs that leave the option unset."""
        root = tmp_path_factory.mktemp("cli-defaults")
        model = load_model(str(model_path))
        kernel = model.config.kernel
        assert cli.main(["report", "--features", str(features_csv),
                         "--out", str(root / "cmp")]) == 0
        assert cli.main(["eval", "--model", str(model_path), "--features", str(features_csv),
                         "--out", str(root / "scores")]) == 0
        assert cli.main(["select", "--features", str(features_csv),
                         "--out", str(root / "s.json")]) == 0
        # four records per label cannot fill the default fold count, which the error names
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main(["cv", "--manifest", manifest, "--out", str(root / "cv")]) == 1
        folds = re.search(r"into (\d+) folds", err.getvalue()).group(1)
        shared = {"c": model.config.c, "kernel": kernel.kind,
                  "seed": model.config.seed, "k": len(model.feature_indices),
                  "norm": PipelineConfig().norm_mode, "folds": folds,
                  "test-fraction": json.loads((root / "cmp.json").read_text())["test_fraction"]}
        sampled = json.loads((root / "scores.json").read_text())["sampled_rates"]
        return shared, {
            ("synth", "seed"): SynthConfig().seed,
            ("eval", "seed"): sampled["seed"],
            ("select", "k"): json.loads((root / "s.json").read_text())["k"],
        }

    @pytest.mark.parametrize("command", [name for name, *_ in cli._COMMANDS])
    def test_shown_defaults_are_the_stage_defaults(self, stage_defaults, capsys, command):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        options = " ".join(capsys.readouterr().out.split()).split("options:")[1]
        shown = {}
        for entry in re.split(r" --(?=[a-z])", options)[1:]:
            found = re.search(r"\(.*default ([^ );]+)", entry)
            if found:
                shown[entry.split()[0]] = found.group(1)
        shared, own = stage_defaults
        for flag, value in shown.items():
            assert value == str(own.get((command, flag), shared.get(flag))), flag


class TestReadme:
    def test_model_flags_sentence_matches_the_parser(self):
        """The README sentence on model hyperparameters names exactly the
        model flags, the kernel kinds and the norm modes the CLI accepts."""
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        with open(readme) as fh:
            text = " ".join(fh.read().split())
        sentence = re.search(r"Model hyperparameters are flags on (.*?)\.(?: |$)", text).group(1)
        assert set(re.findall(r"`--([a-z-]+)", sentence)) == {
            key.replace("_", "-") for key in cli._MODEL_KEYS}
        assert re.search(r"--kernel \{(.*?)\}", sentence).group(1).split(",") == \
            list(KERNEL_KINDS)
        assert re.search(r"--norm \{(.*?)\}", sentence).group(1).split(",") == list(NORM_MODES)


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

    @pytest.mark.parametrize("payload, message", [
        ({"k": 2}, "selection file is missing key 'selected_indices'"),
        ({"selected_indices": "1,2"}, "selection file has a value of the wrong type "
                                      "(selected_indices must be a JSON list, got '1,2')"),
    ], ids=["missing", "string"])
    def test_selection_indices_read_as_model_keys(self, features_csv, tmp_path, capsys,
                                                  payload, message):
        """A missing or mistyped selected_indices reads as a model.json key does."""
        selection = tmp_path / "selection.json"
        selection.write_text(json.dumps(payload))
        rc = self.train_with(features_csv, selection, tmp_path)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {selection}: {message}\n"
        assert os.listdir(tmp_path) == ["selection.json"]

    @pytest.mark.parametrize("indices", [[None], [[1]]])
    def test_selection_index_of_wrong_type(self, features_csv, tmp_path, capsys, indices):
        selection = tmp_path / "selection.json"
        selection.write_text(json.dumps({"selected_indices": indices}))
        rc = self.train_with(features_csv, selection, tmp_path)
        self.assert_names(capsys, rc, selection,
                          "selection file has a value of the wrong type")

    def test_float_selection_indices_refused(self, features_csv, tmp_path, capsys):
        selection = tmp_path / "selection.json"
        selection.write_text(json.dumps({"selected_indices": [1.0, 4.0, 9.0]}))
        rc = self.train_with(features_csv, selection, tmp_path)
        self.assert_names(capsys, rc, selection, "catalog index 1.0 is a float, not an integer")
        assert not (tmp_path / "model.json").exists()

    def test_float_model_feature_indices_refused(self, model_path, features_csv, tmp_path,
                                                 capsys):
        payload = json.loads(model_path.read_text())
        payload["feature_indices"] = [float(i) for i in payload["feature_indices"]]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        rc = cli.main(["eval", "--model", str(model), "--features", str(features_csv),
                       "--out", str(tmp_path / "scores")])
        first = payload["feature_indices"][0]
        self.assert_names(capsys, rc, model, f"catalog index {first!r} is a float, not an integer")
        assert os.listdir(tmp_path) == ["model.json"]

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

    @pytest.mark.parametrize("value", ["inf", "-inf", "1e999"])
    def test_feature_table_non_finite_value_names_its_line(self, features_csv, tmp_path,
                                                           capsys, value):
        lines = features_csv.read_text().splitlines()
        fields = lines[5].split(",")
        fields[7] = value
        lines[5] = ",".join(fields)
        broken = tmp_path / "features.csv"
        broken.write_text("\n".join(lines) + "\n")
        rc = cli.main(["select", "--features", str(broken),
                       "--out", str(tmp_path / "selection.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {broken}: line 6: non-finite feature value\n"
        assert os.listdir(tmp_path) == ["features.csv"]

    @pytest.mark.parametrize("kind", ["model", "selection"])
    def test_deeply_nested_json_names_its_file(self, features_csv, tmp_path, capsys, kind):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        out = str(tmp_path / "out")
        if kind == "model":
            argv = ["predict", "--model", str(deep), "--features", str(features_csv)]
        else:
            argv = ["train", "--features", str(features_csv), "--selection", str(deep)]
        rc = cli.main(argv + ["--out", out])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {deep}: {kind} file is nested too deeply to read\n")
        assert os.listdir(tmp_path) == ["deep.json"]

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
        self.assert_names(capsys, rc, broken, FEATURE_HEADER_RULE)

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

    @pytest.mark.parametrize("command", ["select", "train", "predict", "eval", "report"])
    @pytest.mark.parametrize("fault", ["repeated_id", "blank_row"])
    def test_feature_table_row_fault_names_its_line(self, features_csv, model_path, tmp_path,
                                                    capsys, command, fault):
        lines = features_csv.read_text().splitlines()
        if fault == "repeated_id":
            lines.append(lines[5])
            message = (f"line {len(lines)}: record_id {lines[5].split(',')[0]!r} "
                       "is also on line 6")
        else:
            lines.insert(5, "")
            message = "line 6: expected 32 fields, got 0"
        broken = tmp_path / "features.csv"
        broken.write_text("\n".join(lines) + "\n")
        model = ["--model", str(model_path)] if command in ("predict", "eval") else []
        rc = cli.main([command, "--features", str(broken), *model,
                       "--out", str(tmp_path / "out")])
        self.assert_names(capsys, rc, broken, message)
        assert os.listdir(tmp_path) == ["features.csv"]

    @pytest.mark.parametrize("command", ["select", "train", "report"])
    @pytest.mark.parametrize("fault", ["too_few_varying", "covariance_overflow"])
    def test_table_the_fit_refuses_names_its_file(self, features_csv, tmp_path, capsys,
                                                  command, fault):
        if fault == "covariance_overflow":
            broken, k = huge_column_table(features_csv, tmp_path), []
            message = "table values are too large: their covariance overflows"
        else:  # one of the table's 30 columns is constant
            broken, k = tmp_path / "features.csv", ["--k", "30"]
            shutil.copy(features_csv, broken)
            message = "only 29 non-constant features available, cannot select 30"
        rc = main_printing_warnings([command, "--features", str(broken), *k,
                                     "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {broken}: {message}\n"
        assert os.listdir(tmp_path) == [broken.name]

    def test_corpus_the_fit_refuses_names_its_manifest(self, tmp_path, capsys):
        # every record the same samples: every feature column is constant
        samples = 3.0 + np.random.default_rng(0).uniform(0, 1, 128)
        manifest = save_dataset(Dataset(records=[
            GsrRecord(f"{lab.value}{i}", f"S{i % 2}", lab, 16.0, samples)
            for lab in LABEL_ORDER for i in range(6)]), str(tmp_path / "corpus"))
        rc = cli.main(["cv", "--manifest", manifest, "--out", str(tmp_path / "cv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {manifest}: only 0 non-constant features available, cannot select 15\n")
        assert os.listdir(tmp_path) == ["corpus"]

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
        assert capsys.readouterr().err == (
            "error: --test-fraction: test_fraction must be in (0, 1), got 1.5\n")

    @pytest.mark.parametrize("command", ["train", "report"])
    def test_negative_seed_flag_names_no_file(self, features_csv, tmp_path, capsys, command):
        held_out = ["--test-out", str(tmp_path / "test.csv")] if command == "train" else []
        rc = cli.main([command, "--features", str(features_csv), "--seed", "-1",
                       "--test-fraction", "0.5", *held_out, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: --seed: expected non-negative integer\n"

    def test_manifest_lists_a_record_twice(self, corpus_dir, tmp_path, capsys):
        first = load_dataset(str(corpus_dir / "manifest.txt")).records[0]
        manifest = save_dataset(Dataset(records=[first]), str(tmp_path))
        # the row twice and its samples twice: the rows tile the array
        lines = open(manifest).read().splitlines()
        with open(manifest, "w") as fh:
            fh.write("\n".join(lines + lines[2:]) + "\n")
        np.save(tmp_path / "samples.npy", np.tile(first.samples, 2))
        rc = cli.main(["features", "--manifest", manifest,
                       "--out", str(tmp_path / "features.csv")])
        self.assert_names(capsys, rc, manifest,
                          f"line 4: record_id {first.record_id!r} is also on line 3")

    def test_short_record_names_its_file(self, corpus_dir, tmp_path, capsys):
        first = load_dataset(str(corpus_dir / "manifest.txt")).records[0]
        manifest = save_dataset(Dataset(records=[first]), str(tmp_path))
        lines = open(manifest).read().splitlines()
        with open(manifest, "w") as fh:
            fh.write("\n".join(lines[:2] + [lines[2].replace(",256", ",25")]) + "\n")
        np.save(tmp_path / "samples.npy", first.samples[:25])
        rc = cli.main(["features", "--manifest", manifest,
                       "--out", str(tmp_path / "features.csv")])
        self.assert_names(capsys, rc, manifest,
                          f"line 3: record {first.record_id!r} has 25 samples, need at least 64")

    def test_corpus_too_small_to_stratify_names_its_manifest(self, manifest, tmp_path,
                                                            capsys):
        rc = cli.main(["cv", "--manifest", manifest, "--out", str(tmp_path / "cv")])
        self.assert_names(capsys, rc, manifest,
                          "label 'happiness' has 4 rows, cannot stratify into 5 folds")

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.update(format_version=1), "format_version 1 unsupported (expected 4)"),
        (lambda p: p.update(format_version=2), "format_version 2 unsupported (expected 4)"),
        (lambda p: p.update(format_version=3), "format_version 3 unsupported (expected 4)"),
        (lambda p: p["config"]["kernel"].update(kind="sigmoid"),
         "unknown kernel kind 'sigmoid' (expected one of: linear, rbf)"),
        (lambda p: p["config"]["kernel"].update(kind="linear", eta=(0.5).hex()),
         "eta 0.5 given, but the linear kernel takes no eta"),
        (lambda p: p.pop("normalization"), "missing key 'normalization'"),
        (lambda p: p["machines"].append(p["machines"][0]),
         "11 machines for 5 labels: need one per label pair"),
    ], ids=["v1", "v2", "v3", "deleted_kind", "linear_eta", "no_normalization",
            "eleven_machines"])
    def test_model_file_refused(self, model_path, features_csv, tmp_path, capsys,
                                edit, message):
        payload = json.loads(model_path.read_text())
        edit(payload)
        broken = tmp_path / "model.json"
        broken.write_text(json.dumps(payload))
        rc = cli.main(["predict", "--model", str(broken), "--features", str(features_csv),
                       "--out", str(tmp_path / "predictions.csv")])
        self.assert_names(capsys, rc, broken, message)

    @pytest.mark.parametrize("command", ["features", "cv"])
    def test_empty_manifest_names_its_file(self, tmp_path, capsys, command):
        manifest = save_dataset(Dataset(records=[]), str(tmp_path / "corpus"))
        rc = cli.main([command, "--manifest", manifest, "--out", str(tmp_path / "out")])
        self.assert_names(capsys, rc, manifest, "manifest lists no records")

    @pytest.mark.parametrize("record_id", ["../escaped", "#hidden", "a/b", "a\\b", ".", ".."])
    def test_record_id_that_cannot_name_a_file(self, corpus_dir, tmp_path, capsys,
                                               record_id):
        # record format 2 refused these ids: `../escaped` named a file outside
        # --out, and its manifest reader skipped a `#hidden.csv` line. No id
        # names a file now, so each one is carried through as it is
        records = load_dataset(str(corpus_dir / "manifest.txt")).records
        renamed = Dataset(records=[replace(records[0], record_id=record_id)] + records[1:])
        manifest = save_dataset(renamed, str(tmp_path / "corpus"))
        rc = cli.main(["preprocess", "--manifest", manifest,
                       "--out", str(tmp_path / "work" / "out")])
        assert rc == 0, capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "work").rglob("*")) == [
            "manifest.txt", "out", "samples.npy"]
        back = load_dataset(str(tmp_path / "work" / "out" / "manifest.txt"))
        assert [r.record_id for r in back] == [r.record_id for r in renamed]

    @pytest.mark.parametrize("kind", ["old_format", "blank_line", "two_fields"])
    def test_record_body_refused(self, corpus_dir, tmp_path, capsys, kind):
        if kind == "old_format":  # record format 2: one text file per record
            (tmp_path / "r1.csv").write_text(
                "# record_id: r1\n# subject: S01\n# label: calm\n# sample_rate_hz: 16.0\n"
                "conductance_us\n" + "2.5\n" * 64)
            (tmp_path / "manifest.txt").write_text("r1.csv\n")
            message = ("no '# record_format: 3' line: record format 2 (one file per record) "
                       "is no longer read; regenerate the corpus with `gsremotion synth`")
        else:
            shutil.copy(corpus_dir / "samples.npy", tmp_path)
            lines = (corpus_dir / "manifest.txt").read_text().splitlines()
            if kind == "blank_line":
                lines.insert(4, "")
                message = "line 5: expected 5 fields, got 0"
            else:  # a sixth field
                lines[3] += ",16.0"
                message = "line 4: expected 5 fields, got 6"
            (tmp_path / "manifest.txt").write_text("\n".join(lines) + "\n")
        rc = cli.main(["features", "--manifest", str(tmp_path / "manifest.txt"),
                       "--out", str(tmp_path / "features.csv")])
        self.assert_names(capsys, rc, tmp_path / "manifest.txt", message)


class TestLocale:
    """Every text file is read and written as UTF-8, whatever the locale: a
    child runs under the C locale with neither coercion nor UTF-8 mode."""

    ENV = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}

    def run(self, *argv):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src, **self.ENV)
        return subprocess.run([sys.executable, "-m", "gsremotion.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_child_runs_in_ascii(self):
        code = "import locale; print(locale.getpreferredencoding(False))"
        env = dict(os.environ, **self.ENV)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        assert proc.stdout.strip() in ("ANSI_X3.4-1968", "ascii", "US-ASCII")

    def test_non_ascii_record_id_is_predicted(self, features_csv, model_path, tmp_path):
        lines = features_csv.read_text().splitlines()
        lines[2] = "S\u00e901_x," + lines[2].split(",", 1)[1]
        table = tmp_path / "features.csv"
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "predictions.csv"
        proc = self.run("predict", "--model", str(model_path), "--features", str(table),
                        "--out", str(out))
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = out.read_text(encoding="utf-8").splitlines()
        assert len(rows) == len(lines) - 1
        assert rows[1].startswith("S\u00e901_x,")

    def test_non_ascii_config_comment(self, features_csv, tmp_path):
        cfg = tmp_path / "select.cfg"
        cfg.write_text("features_list = 2,3,5  # caf\u00e9\n", encoding="utf-8")
        out = tmp_path / "selection.json"
        proc = self.run("select", "--features", str(features_csv), "--config", str(cfg),
                        "--out", str(out))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert read_selection_indices(str(out)) == [2, 3, 5]
