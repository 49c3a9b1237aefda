"""Cross-validation reads its features from the preprocess_blocks stream.

kfold_cross_validate never holds the prepared corpus: it extracts features
from preprocess_blocks, which denoises each subject's first calm record
first and then every other record. Its feature table must equal the one
preprocess_dataset and extract_dataset_features give, bit for bit; a
corpus with two faults must give the error the first of them gives, from
preprocess_dataset and from `cv` alike; and the feature stage must stay far
below the corpus's own size.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gsremotion import cli, features
from gsremotion.dataset import _BLOCK_ROWS, Dataset, EmotionLabel, GsrRecord, save_dataset
from gsremotion.evaluate import kfold_cross_validate
from gsremotion.features import extract_dataset_features
from gsremotion.pipeline import PipelineConfig
from gsremotion.preprocess import NORM_MODES, preprocess_dataset
from gsremotion.synth import DEFAULT_COUNTS, SynthConfig, generate_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class StopAfterFeatures(Exception):
    """Raised in place of kfold_cross_validate's folds, once its table is built."""


def cv_feature_table(dataset, mode, monkeypatch):
    """The feature table kfold_cross_validate builds, taken before any fold runs."""
    tables = []
    extract = features.extract_dataset_features

    def capture(*args):
        tables.append(extract(*args))
        raise StopAfterFeatures

    with monkeypatch.context() as patch:
        patch.setattr(features, "extract_dataset_features", capture)
        with pytest.raises(StopAfterFeatures):
            kfold_cross_validate(dataset, 2, PipelineConfig(norm_mode=mode), seed=0)
    return tables[0]


def assert_same_table(got, want):
    assert got.record_ids == want.record_ids
    assert got.labels == want.labels
    assert got.values.shape == want.values.shape
    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))


def two_length_corpus():
    """Records of 16 Hz x 256 and 8 Hz x 160 samples, interleaved; every subject
    has records of both kinds, and its first calm record scales both."""
    counts = {lab: 4 for lab in EmotionLabel}
    short = generate_dataset(SynthConfig(per_label_counts=counts, duration_s=16.0, seed=7))
    slow = generate_dataset(SynthConfig(per_label_counts=counts, duration_s=20.0,
                                        sample_rate_hz=8.0, seed=8))
    records = []
    for a, b in zip(slow, short):
        records += [b, GsrRecord("b_" + a.record_id, a.subject_id, a.label,
                                 a.sample_rate_hz, a.samples)]
    return Dataset(records=records)


class TestStreamParity:
    """The CV's table is extract_dataset_features(preprocess_dataset(ds, mode))."""

    @pytest.mark.parametrize("mode", NORM_MODES)
    def test_two_lengths_and_rates(self, mode, monkeypatch):
        ds = two_length_corpus()
        assert len({(r.samples.size, r.sample_rate_hz) for r in ds}) == 2
        want = extract_dataset_features(preprocess_dataset(ds, mode))
        assert_same_table(cv_feature_table(ds, mode, monkeypatch), want)

    @pytest.mark.parametrize("mode", NORM_MODES)
    def test_first_calms_in_later_blocks_of_a_many_block_group(self, mode, default_corpus,
                                                               monkeypatch):
        records = default_corpus.records
        first_calm = next(i for i, r in enumerate(records) if r.label is EmotionLabel.CALM)
        assert first_calm >= 3 * _BLOCK_ROWS  # synth writes the calm records last
        assert len(records) > 4 * _BLOCK_ROWS
        want = extract_dataset_features(preprocess_dataset(default_corpus, mode))
        assert_same_table(cv_feature_table(default_corpus, mode, monkeypatch), want)

    def test_feature_stage_holds_no_prepared_corpus(self, monkeypatch):
        """The prepared 4x corpus alone would take the corpus's sample bytes;
        the streamed feature stage peaks below half of them."""
        counts = {lab: 4 * n for lab, n in DEFAULT_COUNTS.items()}
        ds = generate_dataset(SynthConfig(per_label_counts=counts, seed=3))
        sample_bytes = sum(r.samples.nbytes for r in ds)
        tracemalloc.start()
        try:
            cv_feature_table(ds, "signal", monkeypatch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sample_bytes / 2, (peak, sample_bytes)


def calm_and_fear(subject, n=128, seed=0):
    rng = np.random.default_rng(seed)
    return [GsrRecord(f"c_{subject}", subject, EmotionLabel.CALM, 16.0,
                      3.0 + rng.uniform(0, 1, n)),
            GsrRecord(f"f_{subject}", subject, EmotionLabel.FEAR, 16.0,
                      3.0 + rng.uniform(0, 1, n))]


def overflowing(record_id, subject, label=EmotionLabel.FEAR):
    return GsrRecord(record_id, subject, label, 16.0, np.resize([1.5e308, -1.5e308], 128))


def constant_calm(record_id, subject):
    return GsrRecord(record_id, subject, EmotionLabel.CALM, 16.0, np.full(128, 3.0))


def tiny_calm(record_id, subject):
    rng = np.random.default_rng(1)
    return GsrRecord(record_id, subject, EmotionLabel.CALM, 16.0,
                     1e-310 * rng.uniform(1, 2, 128))


def anger(record_id, subject):
    rng = np.random.default_rng(2)
    return GsrRecord(record_id, subject, EmotionLabel.ANGER, 16.0, 3.0 + rng.uniform(0, 1, 128))


# Corpora with two faults each; the first fault in the documented order wins,
# wherever its record sits in the dataset or in the stream.
TWO_FAULTS = {
    "overflow_and_constant_calm": (
        [constant_calm("c1", "S01"), anger("a1", "S01"), overflowing("f1", "S01")],
        "record 'f1' has non-finite values after denoising"),
    "lowest_overflow_outside_the_calm_blocks": (
        [overflowing("f1", "S01"), overflowing("c2", "S02", EmotionLabel.CALM),
         *calm_and_fear("S01")],
        "record 'f1' has non-finite values after denoising"),
    "constant_calm_and_missing_subject": (
        [anger("a2", "S02"), *calm_and_fear("S01"), constant_calm("c3", "S03")],
        "calm record 'c3' is constant after denoising and cannot set a range"),
    "missing_subject_and_range_too_small": (
        [anger("a1", "S01"), tiny_calm("c1", "S01"), anger("a2", "S02")],
        "signal normalization needs a calm record per subject; missing for: S02"),
    "lowest_record_a_range_is_too_small_for": (
        [anger("a2", "S02"), *calm_and_fear("S01"), tiny_calm("c2", "S02"),
         anger("a1", "S01"), anger("a3", "S02")],
        "calm record 'c2' has a range too small to normalize record 'a2'"),
}


@pytest.mark.parametrize("case", list(TWO_FAULTS))
class TestErrorPrecedence:
    def test_preprocess_dataset(self, case):
        records, message = TWO_FAULTS[case]
        for mode in ("signal", "both"):
            with pytest.raises(ValueError) as info:
                preprocess_dataset(Dataset(records=records), mode)
            assert str(info.value) == message

    def test_cli_cv(self, case, tmp_path, capsys):
        records, message = TWO_FAULTS[case]
        manifest = save_dataset(Dataset(records=records), str(tmp_path / "corpus"))
        rc = cli.main(["cv", "--manifest", manifest, "--out", str(tmp_path / "cv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {manifest}: {message}\n"


def test_preprocess_and_cv_leave_numpy_ma_unimported():
    """np.median imports numpy.ma; the signal path takes its median without it."""
    code = "\n".join([
        "import sys",
        "from gsremotion.dataset import EmotionLabel",
        "from gsremotion.evaluate import kfold_cross_validate",
        "from gsremotion.pipeline import PipelineConfig",
        "from gsremotion.preprocess import preprocess_dataset",
        "from gsremotion.synth import SynthConfig, generate_dataset",
        "ds = generate_dataset(SynthConfig(per_label_counts={lab: 3 for lab in EmotionLabel},",
        "                                  duration_s=16.0, seed=1))",
        "preprocess_dataset(ds, 'signal')",
        "kfold_cross_validate(ds, 2, PipelineConfig(), 0)",
        "print('numpy.ma' in sys.modules)",
    ])
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    assert proc.stdout == "False\n"
